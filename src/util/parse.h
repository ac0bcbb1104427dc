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
//
// Each parser first tries std::from_chars on the whole string: no locale,
// no errno, and no C-string scan. The accepted set is the C parsers'
// (strtoll / strtoull / strtod), though, which also take leading blanks, a
// leading '+' and hex floats ("0x1p3"); from_chars refuses all of those, so
// a string it does not take whole falls through to the C parser, and that
// path decides exactly as before. A string from_chars does take whole is
// one the C parser reads to the same value.
#pragma once

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <system_error>

#if !defined(__cpp_lib_to_chars)
#error "nowsched needs a standard library with floating-point <charconv> (__cpp_lib_to_chars)"
#endif

namespace nowsched::util {

namespace detail {

/// from_chars over the whole of `s`; nullopt unless it took every byte.
template <typename T, typename... Format>
[[nodiscard]] std::optional<T> from_chars_whole(const std::string& s, Format... format) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, format...);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace detail

[[nodiscard]] inline std::optional<std::int64_t> parse_int64(const std::string& s) {
  if (const auto v = detail::from_chars_whole<std::int64_t>(s)) return v;
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

[[nodiscard]] inline std::optional<std::uint64_t> parse_uint64(const std::string& s) {
  if (const auto v = detail::from_chars_whole<std::uint64_t>(s)) return v;
  // strtoull happily wraps negative inputs; forbid the sign explicitly.
  if (s.empty() || s[0] == '-') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

[[nodiscard]] inline std::optional<double> parse_double(const std::string& s) {
  // "nan" and "inf" parse whole-string but are poison for every consumer
  // (NaN slides through range checks of the `x < lo || x > hi` shape and
  // can hang arrival-sampling loops); a text record never needs them.
  if (const auto v = detail::from_chars_whole<double>(s, std::chars_format::general)) {
    if (!std::isfinite(*v)) return std::nullopt;
    return v;
  }
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // ERANGE also flags a subnormal result, which is exact (text records write
  // them); only underflow to zero loses the value (overflow is caught below).
  if (end != s.c_str() + s.size() || (errno == ERANGE && v == 0.0)) return std::nullopt;
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace nowsched::util
