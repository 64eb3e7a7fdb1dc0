// Tests for the common substrate: Status/Result, string utilities, RNG.

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace p3pdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(StatusTest, EveryCodeHasAName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(StatusCodeName(StatusCode::kLimitExceeded), "LimitExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  P3PDB_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 21);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_FALSE(Doubled(0).ok());
  Result<int> r = Doubled(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 10);
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \n\t"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, SplitKeepsEmptyPieces) {
  std::vector<std::string> parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, JsonEscapeCoversEveryControlCharacter) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(JsonEscape(std::string_view("\x00\x01\x1f", 3)),
            "\\u0000\\u0001\\u001f");
  EXPECT_EQ(JsonEscape("caf\xc3\xa9 ~"), "caf\xc3\xa9 ~");  // UTF-8 passes
}

TEST(StringUtilTest, ToLowerAsciiOnly) {
  EXPECT_EQ(ToLower("AbC-12_Z"), "abc-12_z");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "SELEC"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a*b*c", "*", "%"), "a%b%c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(ReplaceAll("abc", "x", "y"), "abc");
}

TEST(StringUtilTest, SqlQuoteDoublesQuotes) {
  EXPECT_EQ(SqlQuote("it's"), "'it''s'");
  EXPECT_EQ(SqlQuote(""), "''");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

TEST(FnvTest, KnownAnswers) {
  // The published FNV-1a 64-bit test vectors.
  EXPECT_EQ(FnvHash(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(FnvHash("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(FnvHash("foobar"), 0x85944171f73967e8ULL);
  // A hash continues byte by byte: split input hashes as the whole.
  EXPECT_EQ(FnvHash("bar", FnvHash("foo")), FnvHash("foobar"));
  EXPECT_EQ(FnvStep(FnvHash("fooba"), 'r'), FnvHash("foobar"));
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, UniformIntInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  Random rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, ChoicePicksMembers) {
  Random rng(99);
  std::vector<int> items = {1, 2, 3};
  for (int i = 0; i < 100; ++i) {
    int v = rng.Choice(items);
    EXPECT_TRUE(v == 1 || v == 2 || v == 3);
  }
}

TEST(TimingStatsTest, AvgMaxMin) {
  TimingStats stats;
  stats.Add(1.0);
  stats.Add(3.0);
  stats.Add(2.0);
  EXPECT_DOUBLE_EQ(stats.Average(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 3.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_EQ(stats.count(), 3u);
}

TEST(TimingStatsTest, EmptyIsZero) {
  TimingStats stats;
  EXPECT_DOUBLE_EQ(stats.Average(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 0.0);
}

TEST(TimingStatsTest, PercentileIsNearestRank) {
  TimingStats stats;
  for (int v : {5, 1, 4, 2, 3}) stats.Add(v);  // order must not matter
  // Sorted: 1 2 3 4 5. Nearest rank ceil(p/100 * 5).
  EXPECT_DOUBLE_EQ(stats.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(20.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(90.0), 5.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(99.0), 5.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100.0), 5.0);
}

TEST(TimingStatsTest, PercentileEndpoints) {
  TimingStats stats;
  stats.Add(7.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 7.0);
  // Out-of-range p clamps to min/max rather than indexing out of bounds.
  EXPECT_DOUBLE_EQ(stats.Percentile(-5.0), 7.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(150.0), 7.0);
}

TEST(TimingStatsTest, PercentileOnSkewedTail) {
  TimingStats stats;
  for (int i = 0; i < 99; ++i) stats.Add(1.0);
  stats.Add(1000.0);  // one outlier
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(99.0), 1.0);   // rank 99 of 100
  EXPECT_DOUBLE_EQ(stats.Percentile(99.5), 1000.0);  // rank 100
}

}  // namespace
}  // namespace p3pdb
