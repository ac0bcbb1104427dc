// util/text_record: the one owner of the text-record rules. Typed,
// range-checked values; field tables that drive writing and both reading
// rules; and diagnostics that name the format and the line.
#include "util/text_record.h"

#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fuzz_cases.h"

namespace nowsched::util {
namespace {

struct Sample {
  std::string name;
  int small = 0;
  std::int64_t wide = 0;
  std::uint64_t id = 0;
  std::size_t count = 0;
  double ratio = 0.0;
  bool flag = false;
};

constexpr Field<Sample> kSampleFields[] = {
    field<&Sample::name>("name"),   field<&Sample::small>("small"),
    field<&Sample::wide>("wide"),   field<&Sample::id>("id"),
    field<&Sample::count>("count"), field<&Sample::ratio>("ratio", false),
    field<&Sample::flag>("flag", false),
};

struct Extra {
  int level = 0;
};

constexpr Field<Extra> kExtraFields[] = {field<&Extra::level>("level")};

Sample sample() {
  Sample s;
  s.name = "alpha beta=gamma";
  s.small = -7;
  s.wide = std::numeric_limits<std::int64_t>::min();
  s.id = std::numeric_limits<std::uint64_t>::max();
  s.count = 12;
  s.ratio = 0.1;
  s.flag = true;
  return s;
}

constexpr const char* kSampleText =
    "sample v1\n"
    "name=alpha beta=gamma\n"
    "small=-7\n"
    "wide=-9223372036854775808\n"
    "id=18446744073709551615\n"
    "count=12\n"
    "ratio=0.10000000000000001\n"
    "flag=1\n";

Sample read_sample(const std::string& text) {
  RecordReader in("sample", text, "sample v1");
  Sample s;
  in.section("", bind(kSampleFields, s));
  return s;
}

std::string error_of(const std::string& text) {
  try {
    read_sample(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::string text_of(double x) {
  std::string out;
  append_value(out, x);
  return out;
}

TEST(TextRecord, FormatsDoublesRoundTripExact) {
  EXPECT_EQ(text_of(0.1), "0.10000000000000001");
  EXPECT_EQ(text_of(1.5), "1.5");
  EXPECT_EQ(text_of(-0.0), "-0");
  EXPECT_EQ(text_of(1e-300), "1e-300");
  for (const double x : {0.1 + 0.2, 1.0 / 3.0, 6.02214076e23, -2.5e-310,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(parse_value<double>(text_of(x)), x) << text_of(x);
  }
  EXPECT_THROW(parse_value<double>("1e-400"), std::invalid_argument);  // -> 0
}

// --- Number codec equivalence ------------------------------------------------
//
// The oracles below are the C-library rules the codec is specified by: doubles
// print as printf's "%.17g", and a value parses as strtoll / strtoull / strtod
// taking the whole string (no underflow to zero, no inf/nan, a sign the type
// forbids is an error), then range-checked into its field's type.

std::string printf_17g(double x) {
  char buf[32];
  return std::string(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof(buf), "%.17g", x)));
}

template <typename T>
std::optional<T> reference_parse(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  if constexpr (std::is_same_v<T, double>) {
    const double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || (errno == ERANGE && v == 0.0)) return std::nullopt;
    if (!std::isfinite(v)) return std::nullopt;
    return v;
  } else if constexpr (std::is_signed_v<T>) {
    const long long v = std::strtoll(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE || !std::in_range<T>(v)) {
      return std::nullopt;
    }
    return static_cast<T>(v);
  } else {
    if (s[0] == '-') return std::nullopt;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE || !std::in_range<T>(v)) {
      return std::nullopt;
    }
    return static_cast<T>(v);
  }
}

template <typename T>
std::optional<T> codec_parse(const std::string& s) {
  try {
    return parse_value<T>(s);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

template <typename T>
std::uint64_t bits_of(T v) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(v);
  } else {
    return static_cast<std::uint64_t>(v);
  }
}

/// A finite double from uniformly random bits (so every exponent, including
/// the subnormal range, is equally likely).
double random_finite(std::mt19937_64& rng) {
  for (;;) {
    const double x = std::bit_cast<double>(rng());
    if (std::isfinite(x)) return x;
  }
}

TEST(TextRecord, DoublesPrintExactlyAsPrintfPercent17g) {
  using L = std::numeric_limits<double>;
  std::vector<double> xs = {0.0,         -0.0,        L::denorm_min(), -L::denorm_min(),
                            L::min(),    -L::min(),   L::max(),        -L::max(),
                            L::epsilon(), 1.0,        0.1,             1e16,
                            1e17,        123456789012345680.0, 5e-324, 2.2250738585072009e-308};
  std::mt19937_64 rng(17);
  const int cases = testing::fuzz_cases(200) * 100;
  for (int i = 0; i < cases; ++i) xs.push_back(random_finite(rng));
  for (int i = 0; i < 1000; ++i) {  // subnormals, explicitly
    xs.push_back(std::bit_cast<double>(rng() & ((std::uint64_t{1} << 52) - 1)));
  }
  for (const double x : xs) {
    ASSERT_EQ(text_of(x), printf_17g(x)) << std::hexfloat << x;
  }
}

/// Strings around every number syntax the readers meet: canonical values,
/// the forms only the C parsers take (leading blanks, '+', hex), overflow
/// at 19-21 digits, underflow, subnormals, inf/nan and trailing junk.
std::vector<std::string> number_corpus(int cases) {
  std::vector<std::string> out = {
      "",   "-",  "+",  ".",  " ",  "e5",  ".5",  "5.",  "0",   "-0",  "+0",  "00",
      "007", "1_000", "0x10", "0X1F", "0x1p3", "0x1P-1074", "0x1p-1075", "0x", "-0x1p3",
      " 5", "+5", "\t7", " 1.5", "+1.5", "\n5", "\v5", "\f5", "\r5", "5 ", "5\n", " -5",
      "1e-400", "-1e-400", "1e999", "-1e999", "1e308", "1.7976931348623157e308",
      "1.7976931348623159e308", "2.2250738585072011e-308", "2.2250738585072014e-308",
      "4.9406564584124654e-324", "2.4703282292062328e-324", "2.4703282292062327e-324",
      "3e-324", "2e-324", "1e-323", "-4.9406564584124654e-324", "0e-400", "-0e999",
      "inf", "-inf", "+inf", "INF", "infinity", "Infinity", "nan", "-nan", "NAN",
      "nan(123)", "nan()", "1e", "1e+", "1e-", "1e+5", "1E5", "1.5e", "--1", "+-1",
      "-+1", "1-", "12abc", "1.0", "one", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809", "18446744073709551615",
      "18446744073709551616", "-18446744073709551615", "2147483647", "2147483648",
      "-2147483648", "-2147483649", "4294967295", "4294967296", "4294967297",
      std::string("5\0", 2), std::string("\0", 1),
      "0.30000000000000004", "123456789012345678901234567890",
      "0.000000000000000000000000000000000000001"};
  std::mt19937_64 rng(35);
  const auto pick = [&rng](const auto& options) {
    return std::string(options[rng() % std::size(options)]);
  };
  const char* prefixes[] = {"", "", "", "", "-", "+", " ", "\t", " -", "0x", "00"};
  const char* suffixes[] = {"", "", "", "", "x", " ", ".", "e", "e5", "e-5", "\n", "0", "\r"};
  char buf[64];
  for (int i = 0; i < cases; ++i) {
    std::string core;
    switch (rng() % 8) {
      case 0: core = std::to_string(static_cast<std::int64_t>(rng())); break;
      case 1: core = std::to_string(rng()); break;
      case 2: core = std::to_string(static_cast<std::int32_t>(rng())); break;
      case 3: {  // 1-21 random digits: 19-21 straddle both 64-bit limits
        const int digits = 1 + static_cast<int>(rng() % 21);
        for (int d = 0; d < digits; ++d) core += static_cast<char>('0' + rng() % 10);
        break;
      }
      case 4: core = printf_17g(random_finite(rng)); break;
      case 5: {  // shorter and other printf forms of a double
        const char* forms[] = {"%.3g", "%.6e", "%a", "%.20g", "%.1f"};
        const double x = random_finite(rng);
        const int n = std::snprintf(buf, sizeof(buf), forms[rng() % 5], x);
        // "%.1f" of a large double does not fit; fall back to the canonical form.
        core = n < static_cast<int>(sizeof(buf)) ? std::string(buf, static_cast<std::size_t>(n))
                                                 : printf_17g(x);
        break;
      }
      case 6: {  // near the underflow edge: k * 1e-324 .. 1e-322
        std::snprintf(buf, sizeof(buf), "%de-%d", static_cast<int>(rng() % 100),
                      322 + static_cast<int>(rng() % 4));
        core = buf;
        break;
      }
      default: core = printf_17g(std::bit_cast<double>(rng() & ((std::uint64_t{1} << 52) - 1)));
    }
    out.push_back(pick(prefixes) + core + pick(suffixes));
  }
  return out;
}

template <typename T>
void expect_parse_matches_reference(const std::vector<std::string>& corpus) {
  for (const std::string& s : corpus) {
    const std::optional<T> want = reference_parse<T>(s);
    const std::optional<T> got = codec_parse<T>(s);
    ASSERT_EQ(got.has_value(), want.has_value()) << '\'' << s << '\'';
    if (want) {
      ASSERT_EQ(bits_of(*got), bits_of(*want)) << '\'' << s << '\'';
    }
  }
}

TEST(TextRecord, NumbersParseExactlyAsTheCLibraryRules) {
  const std::vector<std::string> corpus = number_corpus(testing::fuzz_cases(200) * 50);
  expect_parse_matches_reference<int>(corpus);
  expect_parse_matches_reference<std::int64_t>(corpus);
  expect_parse_matches_reference<std::uint32_t>(corpus);
  expect_parse_matches_reference<std::uint64_t>(corpus);
  expect_parse_matches_reference<double>(corpus);
  // The corpus reaches both outcomes, and the forms only the C parsers take.
  EXPECT_EQ(codec_parse<int>(" 5"), 5);
  EXPECT_EQ(codec_parse<int>("+5"), 5);
  EXPECT_EQ(codec_parse<std::uint64_t>("\t7"), 7u);
  EXPECT_EQ(codec_parse<double>(" 1.5"), 1.5);
  EXPECT_EQ(codec_parse<double>("+1.5"), 1.5);
  EXPECT_EQ(codec_parse<double>("0x1p3"), 8.0);
  EXPECT_EQ(codec_parse<double>("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(codec_parse<double>("1e-400"), std::nullopt);
  EXPECT_EQ(codec_parse<double>("inf"), std::nullopt);
}

TEST(TextRecord, ParsesIntegersIntoTheirExactType) {
  EXPECT_EQ(parse_value<int>("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_EQ(parse_value<int>("2147483647"), std::numeric_limits<int>::max());
  EXPECT_THROW(parse_value<int>("2147483648"), std::invalid_argument);
  EXPECT_THROW(parse_value<int>("4294967297"), std::invalid_argument);
  EXPECT_EQ(parse_value<std::int64_t>("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(parse_value<std::int64_t>("9223372036854775808"),
               std::invalid_argument);
  EXPECT_EQ(parse_value<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(parse_value<std::uint64_t>("18446744073709551616"),
               std::invalid_argument);
  EXPECT_THROW(parse_value<std::uint64_t>("-1"), std::invalid_argument);
  EXPECT_THROW(parse_value<std::size_t>("-1"), std::invalid_argument);
  EXPECT_THROW(parse_value<std::uint32_t>("4294967296"), std::invalid_argument);
  for (const char* junk : {"", "12abc", "0x10", "1.0", "one"}) {
    EXPECT_THROW(parse_value<int>(junk), std::invalid_argument) << junk;
    EXPECT_THROW(parse_value<std::uint64_t>(junk), std::invalid_argument) << junk;
  }
}

TEST(TextRecord, ParsesDoublesBoolsAndStringsStrictly) {
  EXPECT_EQ(parse_value<double>("2.5"), 2.5);
  for (const char* junk : {"", "nan", "inf", "-inf", "1e999", "2.5x"}) {
    EXPECT_THROW(parse_value<double>(junk), std::invalid_argument) << junk;
  }
  EXPECT_TRUE(parse_value<bool>("1"));
  EXPECT_FALSE(parse_value<bool>("0"));
  for (const char* junk : {"", "2", "01", "true", "yes"}) {
    EXPECT_THROW(parse_value<bool>(junk), std::invalid_argument) << junk;
  }
  EXPECT_EQ(parse_value<std::string>(" any = text "), " any = text ");
}

TEST(TextRecord, FieldTableWritesInTableOrderAndReadsBack) {
  const std::string text = write_record("sample v1", kSampleFields, sample());
  EXPECT_EQ(text, kSampleText);
  const Sample back = read_sample(text);
  EXPECT_EQ(back.name, "alpha beta=gamma");  // split at the FIRST '='
  EXPECT_EQ(back.small, -7);
  EXPECT_EQ(back.wide, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(back.id, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(back.count, 12u);
  EXPECT_EQ(back.ratio, 0.1);
  EXPECT_TRUE(back.flag);
  EXPECT_EQ(write_record("sample v1", kSampleFields, back), text);
}

TEST(TextRecord, KeyedRuleSkipsBlankAndCommentLinesInAnyOrder) {
  const Sample s = read_sample(
      "sample v1\n# note\n\ncount=3\nid=9\n\nwide=-1\n#x=1\nsmall=2\nname=\n");
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.id, 9u);
  EXPECT_EQ(s.wide, -1);
  EXPECT_EQ(s.small, 2);
  EXPECT_EQ(s.name, "");
  EXPECT_EQ(s.ratio, 0.0);  // optional fields keep their defaults
  EXPECT_FALSE(s.flag);
}

TEST(TextRecord, KeyedRuleErrorsNameTheFormatAndTheLine) {
  const std::string good(kSampleText);
  EXPECT_EQ(error_of(good), "");
  EXPECT_EQ(error_of("sample v2\n"), "sample: missing 'sample v1' header");
  EXPECT_EQ(error_of(""), "sample: missing 'sample v1' header");
  EXPECT_EQ(error_of(good + "bogus=1\n"), "sample: unknown key in line 9: 'bogus=1'");
  EXPECT_EQ(error_of(good + "small=8\n"), "sample: duplicate key in line 9: 'small=8'");
  EXPECT_EQ(error_of(good + "junk\n"), "sample: expected key=value in line 9: 'junk'");
  EXPECT_EQ(error_of("sample v1\nname=x\nsmall=1\nwide=1\nid=1\n"),
            "sample: incomplete record, missing 'count'");
  std::string bad = good;
  bad.replace(bad.find("small=-7"), 8, "small=4294967297");
  EXPECT_EQ(error_of(bad), "sample: integer out of range in line 3: 'small=4294967297'");
}

TEST(TextRecord, SectionsStopAtTheirKeyAndKeepSeparateKeySets) {
  const std::string text =
      "nested v1\nname=a\nsmall=1\nwide=2\nid=3\ncount=4\nlevel=5\n"
      "next=x\nlevel=6\n";
  RecordReader in("nested", text, "nested v1");
  Sample s;
  Extra outer;
  ASSERT_TRUE(in.section("next", bind(kSampleFields, s), bind(kExtraFields, outer)));
  EXPECT_EQ(in.key(), "next");
  EXPECT_EQ(in.value(), "x");
  EXPECT_EQ(outer.level, 5);
  Extra inner;
  EXPECT_FALSE(in.section("next", bind(kExtraFields, inner)));  // reads to the end
  EXPECT_EQ(inner.level, 6);
}

TEST(TextRecord, OrderedRuleExpectsEveryLineInTurn) {
  const std::string text = "ordered v1\nlevel=3\nn=2\n\nrec v1\na=1\n\nrec v1\nb=2\n";
  RecordReader in("ordered", text, "ordered v1");
  Extra e;
  in.expect_fields(kExtraFields, e);
  EXPECT_EQ(e.level, 3);
  EXPECT_EQ(in.expect_count("n", 4), 2u);
  in.expect_blank();
  EXPECT_EQ(in.block(), "rec v1\na=1\n");
  EXPECT_EQ(in.block(), "rec v1\nb=2\n");
  in.expect_eof();

  RecordReader wrong("ordered", "ordered v1\nlevels=3\n", "ordered v1");
  EXPECT_THROW(wrong.expect<int>("level"), std::invalid_argument);
  RecordReader truncated("ordered", "ordered v1\n", "ordered v1");
  EXPECT_THROW(truncated.expect_value("level"), std::invalid_argument);
  RecordReader trailing("ordered", "ordered v1\nextra\n", "ordered v1");
  EXPECT_THROW(trailing.expect_eof(), std::invalid_argument);
  RecordReader malformed("ordered", "ordered v1\nlevel=x\n", "ordered v1");
  EXPECT_THROW(malformed.expect<int>("level"), std::invalid_argument);
}

TEST(TextRecord, CountsTheRestOfTheTextCannotHoldAreRejected) {
  RecordReader in("ordered", "ordered v1\nn=3\n0123456789\n", "ordered v1");
  EXPECT_THROW(in.expect_count("n", 4), std::invalid_argument);
  RecordReader huge("ordered", "ordered v1\nn=18446744073709551615\n", "ordered v1");
  EXPECT_THROW(huge.expect_count("n", 1), std::invalid_argument);
}

}  // namespace
}  // namespace nowsched::util
