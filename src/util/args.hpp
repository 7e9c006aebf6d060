#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace tealeaf {

/// Minimal command-line parser for the examples and benchmark harnesses.
///
/// Accepted forms:  `--key value`, `--key=value`, `--flag` (boolean true),
/// and bare positional arguments.  Unknown keys are retained so harnesses
/// can layer their own options.
class Args {
 public:
  Args(int argc, const char* const* argv);

  /// True if `--name` was passed (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] int get_int(const std::string& name, int fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Throw TeaError if any of the retired engine options `--name` was
  /// passed — a retired flag must fail loudly, not be ignored.
  void reject_retired(std::initializer_list<const char*> names) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Name of the executable (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Split a comma-separated list ("cg,ppcg" / "1,4,8").  `context` names
/// the option/deck key in the TeaError thrown for an empty list.  Shared
/// by the deck parser's sweep_* keys and the harness --axis flags so both
/// accept exactly the same inputs.
[[nodiscard]] std::vector<std::string> split_list(const std::string& value,
                                                  const std::string& context);

/// As split_list, but every item must parse fully as a number (integral
/// values may be written as "4" or "4.0"); throws TeaError otherwise.
[[nodiscard]] std::vector<int> split_int_list(const std::string& value,
                                              const std::string& context);

}  // namespace tealeaf
