#include "src/common/flags.h"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "src/common/check.h"

namespace lyra {

FlagSet::FlagSet(std::string program_description)
    : program_description_(std::move(program_description)) {}

void FlagSet::Add(const std::string& name, Type type, void* destination,
                  const std::string& help, std::string default_rendering) {
  LYRA_CHECK(destination != nullptr);
  LYRA_CHECK(Find(name) == nullptr);
  flags_.push_back({name, help, type, destination, std::move(default_rendering)});
}

void FlagSet::AddBool(const std::string& name, bool* value, const std::string& help) {
  Add(name, Type::kBool, value, help, *value ? "true" : "false");
}

void FlagSet::AddInt(const std::string& name, int* value, const std::string& help) {
  Add(name, Type::kInt, value, help, std::to_string(*value));
}

void FlagSet::AddDouble(const std::string& name, double* value, const std::string& help) {
  std::ostringstream out;
  out << *value;
  Add(name, Type::kDouble, value, help, out.str());
}

void FlagSet::AddString(const std::string& name, std::string* value,
                        const std::string& help) {
  Add(name, Type::kString, value, help, *value);
}

void FlagSet::AddOptionalInt64(const std::string& name,
                               std::optional<std::int64_t>* value,
                               const std::string& help) {
  Add(name, Type::kOptionalInt64, value, help,
      value->has_value() ? std::to_string(**value) : "unset");
}

FlagSet::Flag* FlagSet::Find(const std::string& name) {
  for (Flag& flag : flags_) {
    if (flag.name == name) {
      return &flag;
    }
  }
  return nullptr;
}

Status FlagSet::Assign(Flag& flag, const std::string& value) {
  char* end = nullptr;
  switch (flag.type) {
    case Type::kBool:
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.destination) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.destination) = false;
      } else {
        return Status::InvalidArgument("--" + flag.name + " expects true/false, got '" +
                                       value + "'");
      }
      return Status::Ok();
    case Type::kInt: {
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + flag.name + " expects an integer, got '" +
                                       value + "'");
      }
      *static_cast<int*>(flag.destination) = static_cast<int>(parsed);
      return Status::Ok();
    }
    case Type::kDouble: {
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return Status::InvalidArgument("--" + flag.name + " expects a number, got '" +
                                       value + "'");
      }
      *static_cast<double*>(flag.destination) = parsed;
      return Status::Ok();
    }
    case Type::kString:
      *static_cast<std::string*>(flag.destination) = value;
      return Status::Ok();
    case Type::kOptionalInt64: {
      errno = 0;
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        return Status::InvalidArgument("--" + flag.name +
                                       " expects a 64-bit integer, got '" + value + "'");
      }
      *static_cast<std::optional<std::int64_t>*>(flag.destination) = parsed;
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled flag type");
}

Status FlagSet::Parse(int argc, const char* const* argv) {
  positional_.clear();
  help_requested_ = false;
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || arg.empty() || arg[0] != '-' || arg == "-") {
      positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      flags_done = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unknown argument: " + arg);
    }

    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto equals = name.find('=');
    if (equals != std::string::npos) {
      value = name.substr(equals + 1);
      name = name.substr(0, equals);
      has_value = true;
    }

    // --no-name clears a boolean.
    if (!has_value && name.rfind("no-", 0) == 0) {
      Flag* negated = Find(name.substr(3));
      if (negated != nullptr && negated->type == Type::kBool) {
        *static_cast<bool*>(negated->destination) = false;
        continue;
      }
    }

    Flag* flag = Find(name);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    if (!has_value) {
      if (flag->type == Type::kBool) {
        *static_cast<bool*>(flag->destination) = true;
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("--" + name + " needs a value");
      }
      value = argv[++i];
    }
    const Status assigned = Assign(*flag, value);
    if (!assigned.ok()) {
      return assigned;
    }
  }
  return Status::Ok();
}

std::string FlagSet::Usage() const {
  std::ostringstream out;
  if (!program_description_.empty()) {
    out << program_description_ << "\n\n";
  }
  out << "flags:\n";
  for (const Flag& flag : flags_) {
    out << "  --" << flag.name;
    switch (flag.type) {
      case Type::kBool:
        out << "[=true|false]";
        break;
      case Type::kInt:
      case Type::kOptionalInt64:
        out << "=<int>";
        break;
      case Type::kDouble:
        out << "=<number>";
        break;
      case Type::kString:
        out << "=<string>";
        break;
    }
    out << "\n      " << flag.help << " (default: " << flag.default_rendering << ")\n";
  }
  return out.str();
}

}  // namespace lyra
