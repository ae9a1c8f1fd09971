#pragma once
// Minimal command-line flag parser for the example and bench binaries.
//
// Supports --name=value, --name value, and boolean --flag forms. Unknown
// flags are an error so typos fail fast; "--help" prints registered flags.
// A usage error ends the process with exit code 2 after printing the
// message and the usage to stderr, so no main needs its own handler.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace geomap {

class CliParser {
 public:
  explicit CliParser(std::string program_description);

  /// Register flags with defaults before calling parse().
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  void add_bool(const std::string& name, bool default_value,
                const std::string& help);

  /// Parse argv. Returns false (after printing usage) when --help was
  /// given. An unexpected argument, unknown flag, missing value or bad
  /// value prints the error and the usage to stderr and exits 2.
  bool parse(int argc, char** argv);

  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::string get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// True when `name` is a registered flag (of any kind).
  bool has(const std::string& name) const;

  /// Basename of argv[0] as seen by parse() — the producing binary's
  /// name, stamped into exported artifacts as run metadata.
  std::string program_name() const;

  void print_usage(std::ostream& os) const;

 private:
  enum class Kind { kInt, kDouble, kString, kBool };
  struct Flag {
    Kind kind;
    std::string value;  // canonical textual value
    std::string help;
  };

  /// parse() without the exit: throws InvalidArgument on usage errors.
  bool parse_flags(int argc, char** argv);
  const Flag& find(const std::string& name, Kind kind) const;

  std::string description_;
  std::string program_name_;
  std::map<std::string, Flag> flags_;
};

}  // namespace geomap
