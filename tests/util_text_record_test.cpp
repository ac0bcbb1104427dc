// util/text_record: the one owner of the text-record rules. Typed,
// range-checked values; field tables that drive writing and both reading
// rules; and diagnostics that name the format and the line.
#include "util/text_record.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

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
