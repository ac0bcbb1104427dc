// Strict whole-string number parsing, shared by util/text_record.h (every
// text-record reader) and util::Flags.
//
// The repo-wide rule since PR 2 is that a malformed number is a hard error,
// never a silently-consumed prefix — util::Flags enforces it for CLI flags
// with exit(2); these helpers are the optional building blocks, and
// util/text_record.h layers the throwing, range-checked parse on them.
// nullopt means "not a valid number of this type" (empty input, trailing
// junk, out of range, or a sign that the type forbids); the caller owns the
// diagnostic.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace nowsched::util {

[[nodiscard]] inline std::optional<std::int64_t> parse_int64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

[[nodiscard]] inline std::optional<std::uint64_t> parse_uint64(const std::string& s) {
  // strtoull happily wraps negative inputs; forbid the sign explicitly.
  if (s.empty() || s[0] == '-') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

[[nodiscard]] inline std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // ERANGE also flags a subnormal result, which is exact (text records write
  // them); only underflow to zero loses the value (overflow is caught below).
  if (end != s.c_str() + s.size() || (errno == ERANGE && v == 0.0)) return std::nullopt;
  // "nan" and "inf" parse whole-string but are poison for every consumer
  // (NaN slides through range checks of the `x < lo || x > hi` shape and
  // can hang arrival-sampling loops); a text record never needs them.
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace nowsched::util
