// Tiny --key=value command-line parser for the examples and benches.
// Not a general-purpose CLI library; just enough to parameterize runs.
//
// Grammar:
//   --key=value    set flag `key` to `value`
//   --key          set flag `key` to "true"
//   --             end-of-flags separator: everything after is positional
//   anything else  positional argument
//
// Malformed input is a hard error, not silent garbage: an empty flag name
// (`--=v`) aborts at parse time, and `get_int`/`get_count`/`get_double`/
// `get_bool` on a value that does not parse in full (e.g. `--u=12abc`),
// overflows, is negative (for counts) or (for doubles) is not finite print
// a one-line usage error naming the flag and exit with status 2 —
// util/parse.h is the shared strict parse. Experiment
// grids are built from these flags; a mis-typed value must never become a
// silently corrupted run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nowsched::util {

class Flags {
 public:
  /// Parses argv entries of the form --key=value or --key (value "true").
  /// A bare `--` ends flag parsing; later arguments are positionals even if
  /// they start with `--`. Non-flag arguments are collected as positionals.
  /// Unknown flags are kept (examples print them back in --help output).
  Flags(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Numeric/boolean accessors validate the whole value; on a malformed or
  /// out-of-range value they print `usage error: --key ...` to stderr and
  /// exit(2) so every binary inherits the same diagnostic.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// get_int for sizes and counts: a negative value is a usage error too.
  std::size_t get_count(const std::string& key, std::size_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positionals() const noexcept { return positionals_; }
  const std::string& program() const noexcept { return program_; }

  /// The shared diagnostic the numeric accessors use: prints
  /// `<program>: usage error: --key expects <expected>, got "value"` to
  /// stderr and exits(2). Public so callers validating flag values the
  /// accessors cannot (enumerations, formats) fail identically.
  [[noreturn]] void usage_error(const std::string& key, const char* expected,
                                const std::string& value) const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace nowsched::util
