#include "src/common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"

namespace lyra {

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  JsonEscapeTo(raw, out);
  return out;
}

void JsonEscapeTo(const std::string& raw, std::string& out) {
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::MakeObject() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  LYRA_CHECK(is_bool());
  return bool_;
}

double JsonValue::AsDouble() const {
  LYRA_CHECK(is_number());
  return number_;
}

std::optional<std::int64_t> JsonValue::AsInt() const {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (!is_number() || !(std::fabs(number_) < kExact) ||
      std::trunc(number_) != number_) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(number_);
}

const std::string& JsonValue::AsString() const {
  LYRA_CHECK(is_string());
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  LYRA_CHECK(is_array());
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::AsObject() const {
  LYRA_CHECK(is_object());
  return object_;
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  LYRA_CHECK(is_object());
  if (object_.empty()) {
    // Replies built field-by-field would otherwise walk the 1/2/4 capacity
    // chain; most hand-built objects have a handful of members.
    object_.reserve(4);
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

JsonValue& JsonValue::Replace(const std::string& key, JsonValue value) {
  LYRA_CHECK(is_object());
  for (auto& [name, existing] : object_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  return Set(key, std::move(value));
}

JsonValue& JsonValue::Append(JsonValue value) {
  LYRA_CHECK(is_array());
  array_.push_back(std::move(value));
  return *this;
}

JsonValue* JsonValue::FindMutable(const std::string& key) {
  return const_cast<JsonValue*>(
      static_cast<const JsonValue*>(this)->Find(key));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  for (const auto& [name, value] : object_) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

double JsonValue::GetDouble(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

std::optional<std::int64_t> JsonValue::GetInt(const std::string& key) const {
  const JsonValue* v = Find(key);
  return v != nullptr ? v->AsInt() : std::nullopt;
}

std::string JsonValue::GetString(const std::string& key, std::string fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_ : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->bool_ : fallback;
}

namespace {

void DumpTo(const JsonValue& value, std::string& out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += value.AsBool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber: {
      const double n = value.AsDouble();
      LYRA_CHECK(std::isfinite(n));
      char buf[40];
      // Integral values within int64 range print exactly (to_chars: same
      // digits as "%lld", ~5x cheaper than snprintf on the reply hot path);
      // everything else uses %.17g, which round-trips IEEE doubles
      // bit-exactly.
      if (n == std::floor(n) && std::fabs(n) < 9.2e18) {
        const auto result =
            std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(n));
        out.append(buf, result.ptr);
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", n);
        out += buf;
      }
      break;
    }
    case JsonValue::Type::kString:
      out.push_back('"');
      JsonEscapeTo(value.AsString(), out);
      out.push_back('"');
      break;
    case JsonValue::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : value.AsArray()) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        DumpTo(item, out);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : value.AsObject()) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        out.push_back('"');
        JsonEscapeTo(key, out);
        out += "\":";
        DumpTo(item, out);
      }
      out.push_back('}');
      break;
    }
  }
}

// Allocation-free upper-ish bound on the serialized size, so Dump can reserve
// once instead of growing geometrically. Escapes can exceed the string terms
// (rare in our documents); the string then grows once more, still correct.
std::size_t EstimateDumpSize(const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      return 4;
    case JsonValue::Type::kBool:
      return 5;
    case JsonValue::Type::kNumber:
      return 24;  // %.17g worst case plus sign/exponent
    case JsonValue::Type::kString:
      return value.AsString().size() + 2;
    case JsonValue::Type::kArray: {
      std::size_t total = 2;
      for (const JsonValue& item : value.AsArray()) {
        total += EstimateDumpSize(item) + 1;
      }
      return total;
    }
    case JsonValue::Type::kObject: {
      std::size_t total = 2;
      for (const auto& [key, item] : value.AsObject()) {
        total += key.size() + 4 + EstimateDumpSize(item);
      }
      return total;
    }
  }
  return 0;
}

}  // namespace

std::string JsonValue::Dump() const {
  std::string out;
  out.reserve(EstimateDumpSize(*this));
  DumpTo(*this, out);
  return out;
}

void JsonValue::AppendTo(std::string& out) const { DumpTo(*this, out); }

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.type_ != b.type_) {
    return false;
  }
  switch (a.type_) {
    case JsonValue::Type::kNull:
      return true;
    case JsonValue::Type::kBool:
      return a.bool_ == b.bool_;
    case JsonValue::Type::kNumber:
      return a.number_ == b.number_;
    case JsonValue::Type::kString:
      return a.string_ == b.string_;
    case JsonValue::Type::kArray:
      return a.array_ == b.array_;
    case JsonValue::Type::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

class JsonParser {
 public:
  JsonParser(const std::string& text, const JsonParseLimits& limits)
      : text_(text), limits_(limits) {}

  StatusOr<JsonValue> Parse() {
    if (limits_.max_bytes > 0 && text_.size() > limits_.max_bytes) {
      return Status::InvalidArgument(
          "json: document of " + std::to_string(text_.size()) +
          " bytes exceeds limit of " + std::to_string(limits_.max_bytes));
    }
    JsonValue value;
    Status status = ParseValue(value, 0);
    if (!status.ok()) {
      return status;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    std::size_t n = 0;
    while (literal[n] != '\0') {
      ++n;
    }
    if (text_.compare(pos_, n, literal) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > limits_.max_depth) {
      return Error("nesting deeper than " + std::to_string(limits_.max_depth));
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out.type_ = JsonValue::Type::kString;
        return ParseString(out.string_);
      case 't':
        if (!ConsumeLiteral("true")) {
          return Error("bad literal");
        }
        out.type_ = JsonValue::Type::kBool;
        out.bool_ = true;
        return Status::Ok();
      case 'f':
        if (!ConsumeLiteral("false")) {
          return Error("bad literal");
        }
        out.type_ = JsonValue::Type::kBool;
        out.bool_ = false;
        return Status::Ok();
      case 'n':
        if (!ConsumeLiteral("null")) {
          return Error("bad literal");
        }
        out.type_ = JsonValue::Type::kNull;
        return Status::Ok();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue& out, int depth) {
    out.type_ = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (Consume('}')) {
      return Status::Ok();
    }
    // Typical documents here (commands, replies) carry a handful of keys;
    // one up-front reservation replaces the 1/2/4/8 growth reallocations.
    out.object_.reserve(8);
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      Status status = ParseString(key);
      if (!status.ok()) {
        return status;
      }
      if (limits_.duplicates == JsonParseLimits::DuplicateKeys::kReject &&
          out.Find(key) != nullptr) {
        return Error("duplicate object key '" + key + "'");
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':'");
      }
      JsonValue value;
      status = ParseValue(value, depth + 1);
      if (!status.ok()) {
        return status;
      }
      out.object_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return Status::Ok();
      }
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue& out, int depth) {
    out.type_ = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (Consume(']')) {
      return Status::Ok();
    }
    while (true) {
      JsonValue value;
      Status status = ParseValue(value, depth + 1);
      if (!status.ok()) {
        return status;
      }
      out.array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return Status::Ok();
      }
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return Status::Ok();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        // RFC 8259: control characters must be escaped. Everything we emit
        // escapes them (JsonEscape), so only hostile input trips this.
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs land as two
          // 3-byte sequences, fine for our diagnostic use).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue& out) {
    const std::size_t start = pos_;
    const bool negative = Consume('-');
    // Fast path: short pure-integer tokens (the overwhelming majority of
    // numbers on the wire) accumulate directly — every digit sequence of
    // <= 15 digits is exactly representable, so this matches strtod
    // bit-for-bit. Anything with '.', exponent, or more digits falls back.
    std::uint64_t magnitude = 0;
    std::size_t digits = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      magnitude = magnitude * 10 + static_cast<std::uint64_t>(text_[pos_] - '0');
      ++digits;
      ++pos_;
    }
    const bool more =
        pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
         text_[pos_] == '+' || text_[pos_] == '-');
    if (digits > 0 && digits <= 15 && !more) {
      out.type_ = JsonValue::Type::kNumber;
      out.number_ = negative ? -static_cast<double>(magnitude)
                             : static_cast<double>(magnitude);
      return Status::Ok();
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Error("bad number '" + token + "'");
    }
    if (!std::isfinite(value)) {
      return Error("number '" + token + "' out of range");
    }
    out.type_ = JsonValue::Type::kNumber;
    out.number_ = value;
    return Status::Ok();
  }

  const std::string& text_;
  JsonParseLimits limits_;
  std::size_t pos_ = 0;
};

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  return JsonParser(text, JsonParseLimits()).Parse();
}

StatusOr<JsonValue> JsonValue::Parse(const std::string& text,
                                     const JsonParseLimits& limits) {
  return JsonParser(text, limits).Parse();
}

}  // namespace lyra
