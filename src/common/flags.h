// Minimal command-line flag library for the CLI tools.
//
// Flags are registered into a FlagSet with a name, help text and a typed
// destination, then parsed from argv. Supported syntaxes: --name=value,
// --name value, and --name for booleans (plus --no-name to clear). Parsing
// reports errors through Status rather than exiting, so tools own their exit
// behaviour; --help renders a usage string.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace lyra {

class FlagSet {
 public:
  explicit FlagSet(std::string program_description = "");

  // Registration. Destinations must outlive Parse(); the current value of
  // the destination is rendered as the default in --help.
  void AddBool(const std::string& name, bool* value, const std::string& help);
  void AddInt(const std::string& name, int* value, const std::string& help);
  void AddDouble(const std::string& name, double* value, const std::string& help);
  void AddString(const std::string& name, std::string* value, const std::string& help);
  // An integer flag whose absence is distinct from every value, negative
  // ones included: empty until the flag is given.
  void AddOptionalInt64(const std::string& name, std::optional<std::int64_t>* value,
                        const std::string& help);

  // Parses argv (skipping argv[0]). Unknown flags, malformed values, and
  // missing arguments are errors. Leftover positional arguments land in
  // positional(). A "--" terminates flag parsing.
  Status Parse(int argc, const char* const* argv);

  // True when --help / -h was seen (Parse still returns Ok in that case).
  bool help_requested() const { return help_requested_; }

  // Usage text listing every registered flag with its help and default.
  std::string Usage() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  enum class Type { kBool, kInt, kDouble, kString, kOptionalInt64 };

  struct Flag {
    std::string name;
    std::string help;
    Type type = Type::kBool;
    void* destination = nullptr;
    std::string default_rendering;
  };

  void Add(const std::string& name, Type type, void* destination,
           const std::string& help, std::string default_rendering);
  Flag* Find(const std::string& name);
  static Status Assign(Flag& flag, const std::string& value);

  std::string program_description_;
  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
};

}  // namespace lyra

#endif  // SRC_COMMON_FLAGS_H_
