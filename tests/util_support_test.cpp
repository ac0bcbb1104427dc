#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/flags.h"
#include "util/table.h"

namespace nowsched::util {
namespace {

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

TEST(Table, AlignsColumnsAndUnderlinesHeader) {
  Table t({"a", "bb"}, {Align::kLeft, Align::kRight});
  t.add_row({"x", "1"});
  t.add_row({"yy", "22"});
  const std::string out = t.to_string();
  std::istringstream is(out);
  std::string l1, l2, l3, l4;
  std::getline(is, l1);
  std::getline(is, l2);
  std::getline(is, l3);
  std::getline(is, l4);
  EXPECT_EQ(l1, "a  | bb");
  EXPECT_EQ(l2, "-------");
  EXPECT_EQ(l3, "x  |  1");
  EXPECT_EQ(l4, "yy | 22");
}

TEST(Table, TitleAndRulePrinted) {
  Table t({"v"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string out = t.to_string("My Title");
  EXPECT_NE(out.find("My Title"), std::string::npos);
  // A rule row appears between the data rows.
  EXPECT_NE(out.find("\n1\n-"), std::string::npos);
}

TEST(Table, FmtIntegralDoubleHasNoDecimals) {
  EXPECT_EQ(Table::fmt(42.0), "42");
  EXPECT_EQ(Table::fmt(-3.0), "-3");
}

TEST(Table, FmtRoundsToPrecision) {
  EXPECT_EQ(Table::fmt(3.14159265, 3), "3.14");
  EXPECT_EQ(Table::fmt(1234.5678, 6), "1234.57");
}

TEST(Table, MarkdownRendersAlignmentEscapingAndDropsRules) {
  Table t({"name", "w"}, {Align::kLeft, Align::kRight});
  t.add_row({"pipe|cell", "1"});
  t.add_rule();
  t.add_row({"y", "22"});
  EXPECT_EQ(t.to_markdown(),
            "| name | w |\n"
            "| :--- | ---: |\n"
            "| pipe\\|cell | 1 |\n"
            "| y | 22 |\n");
}

TEST(Table, RowCountTracksDataRows) {
  Table t({"v"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_rule();
  EXPECT_EQ(t.rows(), 2u);  // rule counts as a stored row marker
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "nowsched_csv_test.csv";
  {
    CsvWriter csv(path, {"u", "w"});
    csv.write_row(std::vector<double>{1.0, 2.5});
    csv.write_row(std::vector<std::string>{"a", "b"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "u,w");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::remove(path.c_str());
}

TEST(Csv, EscapesSpecialCharacters) {
  const std::string path = ::testing::TempDir() + "nowsched_csv_escape.csv";
  {
    CsvWriter csv(path, {"x"});
    csv.write_row(std::vector<std::string>{"has,comma"});
    csv.write_row(std::vector<std::string>{"has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Csv, ThrowsOnUnwritablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv", {"a"}), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(Flags, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--u=1024", "--verbose", "pos1", "--ratio=2.5"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.program(), "prog");
  EXPECT_EQ(flags.get_int("u", 0), 1024);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(flags.get_double("ratio", 0.0), 2.5);
  ASSERT_EQ(flags.positionals().size(), 1u);
  EXPECT_EQ(flags.positionals()[0], "pos1");
}

TEST(Flags, FallbacksUsedWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, argv);
  EXPECT_EQ(flags.get("name", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("n", -7), -7);
  EXPECT_FALSE(flags.get_bool("b", false));
  EXPECT_FALSE(flags.has("n"));
}

TEST(Flags, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=1", "--c=yes", "--d=false",
                        "--e=on", "--f=off", "--g=no", "--h=0"};
  Flags flags(9, argv);
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_TRUE(flags.get_bool("b", false));
  EXPECT_TRUE(flags.get_bool("c", false));
  EXPECT_FALSE(flags.get_bool("d", true));
  EXPECT_TRUE(flags.get_bool("e", false));
  EXPECT_FALSE(flags.get_bool("f", true));
  EXPECT_FALSE(flags.get_bool("g", true));
  EXPECT_FALSE(flags.get_bool("h", true));
}

TEST(Flags, DoubleDashEndsFlagParsing) {
  const char* argv[] = {"prog", "--u=5", "--", "--not-a-flag", "file.txt"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_int("u", 0), 5);
  EXPECT_FALSE(flags.has("not-a-flag"));
  ASSERT_EQ(flags.positionals().size(), 2u);
  EXPECT_EQ(flags.positionals()[0], "--not-a-flag");
  EXPECT_EQ(flags.positionals()[1], "file.txt");
}

TEST(Flags, NegativeAndWhitespaceFreeNumbersParse) {
  const char* argv[] = {"prog", "--n=-42", "--x=-2.5e3", "--big=9223372036854775807"};
  Flags flags(4, argv);
  EXPECT_EQ(flags.get_int("n", 0), -42);
  EXPECT_DOUBLE_EQ(flags.get_double("x", 0.0), -2500.0);
  EXPECT_EQ(flags.get_int("big", 0), INT64_MAX);
}

using FlagsDeathTest = ::testing::Test;

TEST(FlagsDeathTest, GarbageIntIsAUsageErrorNotZero) {
  const char* argv[] = {"prog", "--u=garbage"};
  Flags flags(2, argv);
  EXPECT_EXIT(flags.get_int("u", 0), ::testing::ExitedWithCode(2),
              "usage error: --u expects an integer, got \"garbage\"");
}

TEST(FlagsDeathTest, TrailingJunkIntIsAUsageErrorNotPrefix) {
  const char* argv[] = {"prog", "--u=12abc"};
  Flags flags(2, argv);
  EXPECT_EXIT(flags.get_int("u", 0), ::testing::ExitedWithCode(2),
              "usage error: --u expects an integer, got \"12abc\"");
}

TEST(FlagsDeathTest, EmptyAndOverflowingIntsAreUsageErrors) {
  const char* argv[] = {"prog", "--a=", "--b=99999999999999999999"};
  Flags flags(3, argv);
  EXPECT_EXIT(flags.get_int("a", 0), ::testing::ExitedWithCode(2), "--a expects");
  EXPECT_EXIT(flags.get_int("b", 0), ::testing::ExitedWithCode(2), "--b expects");
}

TEST(FlagsDeathTest, ValuelessFlagReadAsIntNamesTheFlag) {
  // `--u` (no value) stores "true"; asking for an int must not yield 0.
  const char* argv[] = {"prog", "--u"};
  Flags flags(2, argv);
  EXPECT_EXIT(flags.get_int("u", 0), ::testing::ExitedWithCode(2),
              "--u expects an integer, got \"true\"");
}

TEST(FlagsDeathTest, GarbageDoubleAndBoolAreUsageErrors) {
  const char* argv[] = {"prog", "--ratio=2.5x", "--flag=maybe"};
  Flags flags(3, argv);
  EXPECT_EXIT(flags.get_double("ratio", 0.0), ::testing::ExitedWithCode(2),
              "--ratio expects a number, got \"2.5x\"");
  EXPECT_EXIT(flags.get_bool("flag", false), ::testing::ExitedWithCode(2),
              "--flag expects a boolean");
}

TEST(FlagsDeathTest, NegativeCountIsAUsageErrorNotAWrappedSize) {
  const char* argv[] = {"prog", "--sessions=-1", "--jobs=12", "--zero=0", "--bad=abc"};
  Flags flags(5, argv);
  EXPECT_EQ(flags.get_count("jobs", 0), 12u);
  EXPECT_EQ(flags.get_count("zero", 5), 0u);
  EXPECT_EQ(flags.get_count("absent", 7), 7u);
  EXPECT_EXIT(flags.get_count("sessions", 0), ::testing::ExitedWithCode(2),
              "usage error: --sessions expects a non-negative integer, got \"-1\"");
  EXPECT_EXIT(flags.get_count("bad", 0), ::testing::ExitedWithCode(2),
              "--bad expects a non-negative integer, got \"abc\"");
}

TEST(FlagsDeathTest, EmptyKeyIsRejectedAtParseTime) {
  const char* argv_eq[] = {"prog", "--=v"};
  EXPECT_EXIT(Flags(2, argv_eq), ::testing::ExitedWithCode(2),
              "empty flag name in \"--=v\"");
}

}  // namespace
}  // namespace nowsched::util
