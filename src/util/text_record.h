// Strict versioned text records: the one owner of the rules every nowsched
// text format shares (scenario replay, verdict, `nowsched-stats v1` and the
// nowsched-rpc payloads).
//
//   * Line 1 is the exact version header ("nowsched-scenario v1", ...).
//   * Every other line is `key=value`, split at the first '='.
//   * Integers print in decimal, bools as 0/1, doubles with 17 significant
//     digits (max_digits10: every IEEE double round-trips bit-exactly),
//     written by std::to_chars(general, 17), which is printf's "%.17g".
//   * A value parses whole-string into its field's exact type: a malformed
//     number, a sign the type forbids, or a value outside the type's range
//     is an error — never a consumed prefix or a narrowed integer.
//
// A record type describes itself once, as a static table of Field<R>: the
// key, the member it reads and writes, and whether a reader must see it.
// The table drives the encoder (keys in table order) and both readers.
//
// The keyed rule (RecordReader::section; scenario, verdict and stats):
// blank lines and lines starting with '#' are skipped; an unknown
// key, a duplicate key within one section, a missing required key, or a
// malformed or out-of-range value throws std::invalid_argument naming the
// format and the line.
//
// The ordered rule (RecordReader::expect_*; rpc payloads): every line is
// expected in turn, so a missing, reordered or extra line is the same
// typed error.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "util/parse.h"

namespace nowsched::util {

/// Canonical text of one value, appended to `out`.
inline void append_value(std::string& out, std::string_view v) { out += v; }
inline void append_value(std::string& out, bool v) { out += v ? '1' : '0'; }
void append_value(std::string& out, double v);
template <std::integral T>
void append_value(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/// Whole-string parse of `value` into T (a signed or unsigned integer type,
/// double, 0/1 bool, or std::string verbatim). Throws std::invalid_argument
/// naming what was wrong; the reader adds the format and the line.
template <typename T>
T parse_value(const std::string& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    return value;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (value != "0" && value != "1") throw std::invalid_argument("expected 0 or 1");
    return value == "1";
  } else if constexpr (std::is_same_v<T, double>) {
    const auto x = parse_double(value);
    if (!x) throw std::invalid_argument("malformed number");
    return *x;
  } else {
    std::optional<std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>> x;
    if constexpr (std::is_signed_v<T>) {
      x = parse_int64(value);
    } else {
      x = parse_uint64(value);
    }
    if (!x) throw std::invalid_argument("malformed integer");
    if (!std::in_range<T>(*x)) throw std::invalid_argument("integer out of range");
    return static_cast<T>(*x);
  }
}

/// One field of record type R. `read` throws std::invalid_argument on a
/// bad value.
template <typename R>
struct Field {
  const char* key;
  void (*write)(std::string& out, const R& record);
  void (*read)(R& record, const std::string& value);
  bool required = true;
};

template <typename R>
using FieldTable = std::span<const Field<R>>;

template <typename M>
struct MemberOf;
template <typename C, typename T>
struct MemberOf<T C::*> {
  using Record = C;
};

/// The field for a plain member: field<&ScenarioSpec::lifespan>("lifespan").
template <auto Member>
constexpr auto field(const char* key, bool required = true) {
  using R = typename MemberOf<decltype(Member)>::Record;
  return Field<R>{
      key, [](std::string& out, const R& r) { append_value(out, r.*Member); },
      [](R& r, const std::string& v) {
        r.*Member = parse_value<std::remove_cvref_t<decltype(r.*Member)>>(v);
      },
      required};
}

/// Appends `key=value\n` for every field of `table`, in table order.
template <typename R>
void write_fields(std::string& out, std::type_identity_t<FieldTable<R>> table,
                  const R& record) {
  for (const Field<R>& f : table) {
    out += f.key;
    out += '=';
    f.write(out, record);
    out += '\n';
  }
}

/// Appends the header line, then write_fields.
template <typename R>
void append_record(std::string& out, std::string_view header,
                   std::type_identity_t<FieldTable<R>> table, const R& record) {
  out += header;
  out += '\n';
  write_fields(out, table, record);
}

/// append_record into a fresh string.
template <typename R>
std::string write_record(std::string_view header,
                         std::type_identity_t<FieldTable<R>> table, const R& record) {
  std::string out;
  append_record(out, header, table, record);
  return out;
}

/// A field table bound to the record it fills.
template <typename R>
struct Binding {
  FieldTable<R> table;
  R& record;
};

template <typename R>
Binding<R> bind(std::type_identity_t<FieldTable<R>> table, R& record) {
  return {table, record};
}

/// Cursor over one record's lines. `text` must outlive the reader.
class RecordReader {
 public:
  /// Consumes and checks the header line.
  RecordReader(const char* format, std::string_view text, std::string_view header);

  // --- Keyed rule ---------------------------------------------------------

  /// Advances to the next key=value line, skipping blank and '#' lines;
  /// false at the end of the text.
  bool next();

  /// Reads lines into the bound tables until the end of the text (false) or
  /// a line keyed `stop` (true; that line stays current). An empty `stop`
  /// reads to the end.
  template <typename... R>
  bool section(std::string_view stop, Binding<R>... bound) {
    std::uint64_t seen[sizeof...(R)] = {};  // one bit per field; <= 64 fields
    bool more = false;
    while ((more = next()) && (stop.empty() || key_ != stop)) {
      std::size_t t = 0;
      if (!(read_keyed(bound, seen[t++]) || ...)) fail("unknown key");
    }
    std::size_t t = 0;
    (require_all(bound, seen[t++]), ...);
    return more;
  }

  std::string_view key() const noexcept { return key_; }
  const std::string& value() const noexcept { return value_; }

  template <typename T>
  T value_as() const {
    return checked([&] { return parse_value<T>(value_); });
  }

  // --- Ordered rule -------------------------------------------------------

  /// Next line must be `key=<value>`; returns the value (may be empty, may
  /// contain anything but a newline).
  const std::string& expect_value(const char* key);

  template <typename T>
  T expect(const char* key) {
    expect_value(key);
    return value_as<T>();
  }

  /// Reads every field of `table` in table order, one line each.
  template <typename R>
  void expect_fields(std::type_identity_t<FieldTable<R>> table, R& record) {
    for (const Field<R>& f : table) {
      expect_value(f.key);
      checked([&] { f.read(record, value_); });
    }
  }

  /// A `key=<count>` line for a list of items at least `min_item_bytes`
  /// long each. A count the rest of the text cannot hold is rejected before
  /// anything is sized from it: reserve() would otherwise throw
  /// std::length_error or std::bad_alloc, not the typed error callers catch.
  std::size_t expect_count(const char* key, std::size_t min_item_bytes);

  void expect_blank();

  /// Lines up to (not including) the next blank line or the end, each with
  /// its newline — one embedded keyed record, viewed in place in the text.
  std::string_view block();

  void expect_eof();

  /// Runs `parse`, turning its std::invalid_argument into fail().
  template <typename F>
  auto checked(F&& parse) const {
    try {
      return parse();
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
  }

  /// Throws "<format>: <what> in line N: '<line>'".
  [[noreturn]] void fail(std::string_view what) const;
  /// Throws "<format>: <what>" for an error of the record as a whole.
  [[noreturn]] void fail_record(std::string_view what) const;

 private:
  bool take_line();

  template <typename R>
  bool read_keyed(Binding<R> b, std::uint64_t& seen) const {
    for (std::size_t i = 0; i < b.table.size(); ++i) {
      if (key_ != b.table[i].key) continue;
      if ((seen >> i) & 1) fail("duplicate key");
      seen |= std::uint64_t{1} << i;
      checked([&] { b.table[i].read(b.record, value_); });
      return true;
    }
    return false;
  }

  template <typename R>
  void require_all(Binding<R> b, std::uint64_t seen) const {
    for (std::size_t i = 0; i < b.table.size(); ++i) {
      if (b.table[i].required && !((seen >> i) & 1)) {
        fail_record(std::string("incomplete record, missing '") + b.table[i].key + "'");
      }
    }
  }

  const char* format_;
  std::string_view rest_;
  std::string_view line_;
  std::string_view key_;
  std::string value_;
  std::size_t line_no_ = 0;
};

}  // namespace nowsched::util
