// Minimal command-line option parsing for the topomap binaries.
//
// Supports `--key=value`, `--key value`, and boolean `--flag` forms.
// Unknown options are an error so typos in sweep scripts fail loudly: a
// malformed command line throws usage_error, a malformed number
// precondition_error naming the option; run_main maps both to exit codes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace topomap {

class CliParser {
 public:
  CliParser(std::string program_description);

  /// Register options before calling parse(). `help` appears in usage().
  void add_flag(const std::string& name, const std::string& help);
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);

  /// Parses argv.  Returns false after printing usage on `--help`; throws
  /// usage_error on an unknown or positional argument, an option without
  /// its value, or a flag given one.
  bool parse(int argc, const char* const* argv);

  /// Whether `name` was registered.
  bool has(const std::string& name) const { return options_.count(name) > 0; }

  bool flag(const std::string& name) const;
  std::string str(const std::string& name) const;
  /// The numeric accessors throw precondition_error naming the option when
  /// the value is not a number or out of range.
  std::int64_t integer(const std::string& name) const;
  double real(const std::string& name) const;

  /// Comma-separated integer list, e.g. `--sizes=64,256,1024`.
  std::vector<std::int64_t> int_list(const std::string& name) const;
  std::vector<double> real_list(const std::string& name) const;

  std::string usage() const;

 private:
  struct Option {
    std::string help;
    std::string value;
    bool is_flag = false;
  };

  const Option& lookup(const std::string& name) const;

  std::string description_;
  std::string program_;
  std::map<std::string, Option> options_;
};

/// The whole of `text` as an integer / a real; throws precondition_error
/// naming `what` when it is not one or is out of range.
std::int64_t parse_integer(const std::string& text, const std::string& what);
double parse_real(const std::string& text, const std::string& what);

/// Runs a main body under the exit-code taxonomy every topomap binary
/// shares, reporting the error on stderr: 1 for usage_error and anything
/// unclassified, 2 precondition_error, 3 invariant_error, 4 io_error.
int run_main(int argc, char** argv, int (*body)(int argc, char** argv));

}  // namespace topomap
