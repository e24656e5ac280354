// Tests for string utilities, math helpers, the table printer, flags and
// the id window.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/id_window.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/table.h"

namespace ltc {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, OutputsAroundTheStackBufferAreWhole) {
  // Lengths on both sides of the 256-byte one-pass buffer, and far past it.
  EXPECT_EQ(StrFormat("%s", ""), "");
  for (const std::size_t len : {1u, 254u, 255u, 256u, 257u, 511u, 5000u}) {
    const std::string body(len, 'q');
    EXPECT_EQ(StrFormat("%s", body.c_str()), body) << len;
    EXPECT_EQ(StrFormat("<%s>%d", body.c_str(), 42), "<" + body + ">42")
        << len;
  }
}

TEST(JoinSplitTest, RoundTrips) {
  std::vector<std::string> parts = {"a", "", "c"};
  EXPECT_EQ(Join(parts, ","), "a,,c");
  EXPECT_EQ(Split("a,,c", ','), parts);
  EXPECT_EQ(Split("solo", ','), std::vector<std::string>{"solo"});
  EXPECT_EQ(Join({}, ","), "");
}

TEST(TrimTest, RemovesEdgesOnly) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim("\t\n x \r"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
  EXPECT_TRUE(EndsWith("file.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", ".csv"));
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024ULL * 1024ULL), "3.0 MiB");
}

TEST(HumanDurationTest, PicksUnits) {
  EXPECT_EQ(HumanDuration(2.5), "2.50 s");
  EXPECT_EQ(HumanDuration(0.0025), "2.50 ms");
  EXPECT_EQ(HumanDuration(2.5e-6), "2.50 us");
}

TEST(ParseTest, ValidatesWholeString) {
  double d;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_FALSE(ParseDouble("3.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  std::int64_t i;
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("4.2", &i));
}

TEST(ParseTest, DoubleRoundTripsSubnormals) {
  // "%.17g" writes every finite double; ParseDouble must read each back
  // bit for bit, subnormals included.
  const double values[] = {std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           2.2250738585072009e-308,  // largest subnormal
                           -std::numeric_limits<double>::denorm_min()};
  for (const double v : values) {
    const std::string text = StrFormat("%.17g", v);
    double d = 0.0;
    ASSERT_TRUE(ParseDouble(text, &d)) << text;
    EXPECT_EQ(std::memcmp(&d, &v, sizeof(d)), 0) << text;
  }
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("2.2250738585072009e-308", &d));
  EXPECT_EQ(std::fpclassify(d), FP_SUBNORMAL);
  // Overflow and underflow to zero stay out of range.
  EXPECT_FALSE(ParseDouble("1e400", &d));
  EXPECT_FALSE(ParseDouble("-1e400", &d));
  EXPECT_FALSE(ParseDouble("1e-400", &d));
}

TEST(MathTest, SigmoidProperties) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(30.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-30.0), 0.0, 1e-12);
  // Symmetry: s(x) + s(-x) == 1.
  for (double x : {0.1, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0, 1e-12) << x;
  }
  // No overflow at extremes.
  EXPECT_EQ(Sigmoid(1000.0), 1.0);
  EXPECT_EQ(Sigmoid(-1000.0), 0.0);
}

TEST(MathTest, ClampAndCeilDiv) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 5), 1);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"algo", "latency"});
  tp.AddRow({"AAM", "812"});
  tp.AddRow({"MCF-LTC", "1024"});
  const std::string out = tp.Render();
  EXPECT_NE(out.find("algo"), std::string::npos);
  EXPECT_NE(out.find("MCF-LTC"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(tp.num_rows(), 2u);
}

TEST(TablePrinterTest, CsvEscapesSpecials) {
  TablePrinter tp({"name", "note"});
  tp.AddRow({"a,b", "say \"hi\""});
  const std::string csv = tp.RenderCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TablePrinterTest, CellHelpers) {
  EXPECT_EQ(TablePrinter::Cell(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Cell(static_cast<std::int64_t>(42)), "42");
}

TEST(TablePrinterTest, WriteCsvRoundTrip) {
  TablePrinter tp({"x"});
  tp.AddRow({"1"});
  const std::string path = "/tmp/ltc_table_test/out.csv";
  ASSERT_TRUE(tp.WriteCsv(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  ASSERT_GT(std::fread(buf, 1, sizeof(buf) - 1, f), 0u);
  std::fclose(f);
  EXPECT_STREQ(buf, "x\n1\n");
}

// ---- Flags ----

Flag<std::int64_t> FLAG_test_int("test_int", 3, "an int flag");
Flag<double> FLAG_test_double("test_double", 0.5, "a double flag");
Flag<bool> FLAG_test_bool("test_bool", false, "a bool flag");
Flag<std::string> FLAG_test_str("test_str", "d", "a string flag");

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",        "--test_int=7",  "--test_double",
                        "2.5",         "--test_bool",   "--test_str=hello"};
  ASSERT_TRUE(ParseCommandLine(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(FLAG_test_int.Get(), 7);
  EXPECT_DOUBLE_EQ(FLAG_test_double.Get(), 2.5);
  EXPECT_TRUE(FLAG_test_bool.Get());
  EXPECT_EQ(FLAG_test_str.Get(), "hello");
}

TEST(FlagsTest, NegatedBool) {
  const char* argv[] = {"prog", "--no-test_bool"};
  ASSERT_TRUE(ParseCommandLine(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(FLAG_test_bool.Get());
}

TEST(FlagsTest, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--no_such_flag=1"};
  EXPECT_TRUE(ParseCommandLine(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagsTest, RejectsBadValue) {
  const char* argv[] = {"prog", "--test_int=abc"};
  EXPECT_TRUE(ParseCommandLine(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagsTest, PositionalArguments) {
  const char* argv[] = {"prog", "pos1", "--test_int=1", "pos2"};
  std::vector<std::string> positional;
  ASSERT_TRUE(
      ParseCommandLine(4, const_cast<char**>(argv), &positional).ok());
  EXPECT_EQ(positional, (std::vector<std::string>{"pos1", "pos2"}));
  const char* argv2[] = {"prog", "stray"};
  EXPECT_FALSE(ParseCommandLine(2, const_cast<char**>(argv2)).ok());
}

TEST(FlagsTest, UsageListsFlags) {
  const std::string usage = FlagUsage();
  EXPECT_NE(usage.find("test_int"), std::string::npos);
  EXPECT_NE(usage.find("an int flag"), std::string::npos);
}

// ---- IdWindow ----

/// True when `W` has an operator[] taking an integer.
template <typename W, typename = void>
struct HasSubscript : std::false_type {};
template <typename W>
struct HasSubscript<W, std::void_t<decltype(std::declval<W&>()[0])>>
    : std::true_type {};

// A window is addressed by id only: a raw position does not compile.
static_assert(!HasSubscript<IdWindow<int>>::value,
              "IdWindow must not offer a positional operator[]");
static_assert(!HasSubscript<const IdWindow<double, std::int32_t>>::value,
              "IdWindow must not offer a positional operator[]");
static_assert(HasSubscript<std::vector<int>>::value,
              "the detector sees a subscript where there is one");

/// The values of `w` in id order.
template <typename T, typename Id>
std::vector<T> Values(const IdWindow<T, Id>& w) {
  return std::vector<T>(w.begin(), w.end());
}

TEST(IdWindowTest, ContainsExactlyItsIdsAtBothEdges) {
  IdWindow<int> w(10);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.first_id(), 10);
  EXPECT_EQ(w.end_id(), 10);
  EXPECT_FALSE(w.contains(10));
  for (int v : {100, 110, 120}) w.push_back(v);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.end_id(), 13);
  EXPECT_FALSE(w.contains(9));
  EXPECT_TRUE(w.contains(10));
  EXPECT_TRUE(w.contains(12));
  EXPECT_FALSE(w.contains(13));
  EXPECT_EQ(w.at(10), 100);
  EXPECT_EQ(w.at(12), 120);
  w.at(11) = 7;
  EXPECT_EQ(Values(w), (std::vector<int>{100, 7, 120}));
}

TEST(IdWindowTest, RetireBeforeAtOrBelowTheFirstIdIsANoOp) {
  IdWindow<int> w(5);
  for (int v : {1, 2, 3}) w.push_back(v);
  w.RetireBefore(5);
  w.RetireBefore(0);
  w.RetireBefore(-3);
  EXPECT_EQ(w.first_id(), 5);
  EXPECT_EQ(Values(w), (std::vector<int>{1, 2, 3}));
  w.RetireBefore(6);
  EXPECT_EQ(w.first_id(), 6);
  EXPECT_EQ(w.end_id(), 8);
  EXPECT_EQ(w.at(6), 2);
  EXPECT_EQ(Values(w), (std::vector<int>{2, 3}));
}

TEST(IdWindowTest, RetireBeforePastTheEndEmptiesAndRebases) {
  IdWindow<int> w;
  for (int v : {1, 2, 3}) w.push_back(v);
  w.RetireBefore(3);  // exactly the end
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.first_id(), 3);
  w.RetireBefore(9);  // past it
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.first_id(), 9);
  EXPECT_EQ(w.end_id(), 9);
  w.push_back(4);
  EXPECT_TRUE(w.contains(9));
  EXPECT_EQ(w.at(9), 4);
}

TEST(IdWindowTest, GrowToFillsOnlyTheNewIds) {
  IdWindow<int> w(2);
  w.push_back(8);
  w.GrowTo(5, -1);
  EXPECT_EQ(w.end_id(), 5);
  EXPECT_EQ(Values(w), (std::vector<int>{8, -1, -1}));
  w.GrowTo(4, 0);  // already reaches it
  w.GrowTo(2, 0);
  EXPECT_EQ(Values(w), (std::vector<int>{8, -1, -1}));
  w.RetireBefore(7);
  w.GrowTo(8, 3);
  EXPECT_EQ(w.first_id(), 7);
  EXPECT_EQ(Values(w), (std::vector<int>{3}));
}

TEST(IdWindowTest, ResetRestartsTheWindow) {
  IdWindow<double> w;
  for (double v : {1.0, 2.0}) w.push_back(v);
  w.Reset(40, 3, 0.5);
  EXPECT_EQ(w.first_id(), 40);
  EXPECT_EQ(w.end_id(), 43);
  EXPECT_EQ(Values(w), (std::vector<double>{0.5, 0.5, 0.5}));
  w.Reset(7, 2);  // default fill
  EXPECT_EQ(w.first_id(), 7);
  EXPECT_EQ(Values(w), (std::vector<double>{0.0, 0.0}));
  w.Reset(0, 0);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.end_id(), 0);
}

// The worker-style window: indices start at 1, narrow id type.
TEST(IdWindowTest, WorkerStyleWindowStartsAtOne) {
  IdWindow<char, std::int32_t> w(1);
  EXPECT_EQ(w.end_id(), 1);  // last index 0: nothing arrived
  for (char c : {'a', 'b', 'c', 'd'}) w.push_back(c);
  EXPECT_FALSE(w.contains(0));
  EXPECT_TRUE(w.contains(1));
  EXPECT_TRUE(w.contains(4));
  EXPECT_FALSE(w.contains(5));
  EXPECT_EQ(w.at(1), 'a');
  w.RetireBefore(1);  // nothing before the first index
  EXPECT_EQ(w.size(), 4u);
  w.RetireBefore(3);
  EXPECT_EQ(w.at(3), 'c');
  EXPECT_EQ(w.end_id() - 1, 4);  // the newest index survives retirement
}

}  // namespace
}  // namespace ltc
