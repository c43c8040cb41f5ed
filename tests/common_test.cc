#include <map>

#include <gtest/gtest.h>

#include "common/chrono.h"
#include "common/json.h"
#include "common/period.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/value.h"

namespace bih {
namespace {

TEST(DateTest, RoundTripYMD) {
  for (int y : {1970, 1992, 1995, 1998, 2000, 2024}) {
    for (int m : {1, 2, 6, 12}) {
      for (int d : {1, 15, 28}) {
        Date date = Date::FromYMD(y, m, d);
        int yy, mm, dd;
        date.ToYMD(&yy, &mm, &dd);
        EXPECT_EQ(y, yy);
        EXPECT_EQ(m, mm);
        EXPECT_EQ(d, dd);
      }
    }
  }
}

TEST(DateTest, EpochIsZero) {
  EXPECT_EQ(0, Date::FromYMD(1970, 1, 1).days());
}

TEST(DateTest, KnownDayNumbers) {
  // 1992-01-01 is 8035 days after the epoch.
  EXPECT_EQ(8035, Date::FromYMD(1992, 1, 1).days());
  EXPECT_EQ(1, Date::FromYMD(1970, 1, 2).days());
}

TEST(DateTest, LeapYearHandling) {
  Date feb29 = Date::FromYMD(1992, 2, 29);
  Date mar1 = Date::FromYMD(1992, 3, 1);
  EXPECT_EQ(1, feb29.DaysUntil(mar1));
  // 1900 is not a leap year in the Gregorian calendar.
  Date feb28_1900 = Date::FromYMD(1900, 2, 28);
  Date mar1_1900 = Date::FromYMD(1900, 3, 1);
  EXPECT_EQ(1, feb28_1900.DaysUntil(mar1_1900));
}

TEST(DateTest, FormatAndParse) {
  Date d = Date::FromYMD(1995, 6, 17);
  EXPECT_EQ("1995-06-17", d.ToString());
  Date parsed;
  ASSERT_TRUE(Date::Parse("1995-06-17", &parsed));
  EXPECT_EQ(d, parsed);
  EXPECT_FALSE(Date::Parse("not a date", &parsed));
  EXPECT_FALSE(Date::Parse("1995-13-01", &parsed));
}

TEST(DateTest, Ordering) {
  EXPECT_LT(Date::FromYMD(1992, 1, 1), Date::FromYMD(1998, 12, 31));
  EXPECT_EQ(Date::FromYMD(1992, 1, 1).AddDays(365),
            Date::FromYMD(1992, 12, 31));
}

TEST(TimestampTest, DateConversion) {
  Date d = Date::FromYMD(1995, 6, 17);
  Timestamp t = Timestamp::FromDate(d);
  EXPECT_EQ(d, t.ToDate());
  EXPECT_EQ(d.AddDays(1), t.AddMicros(Timestamp::kMicrosPerDay).ToDate());
}

TEST(TimestampTest, Format) {
  Timestamp t = Timestamp::FromDate(Date::FromYMD(1995, 6, 17))
                    .AddMicros(3 * 3600 * Timestamp::kMicrosPerSecond + 42);
  EXPECT_EQ("1995-06-17 03:00:00.000042", t.ToString());
}

TEST(PeriodTest, ContainsAndOverlap) {
  Period p(10, 20);
  EXPECT_TRUE(p.Contains(10));
  EXPECT_TRUE(p.Contains(19));
  EXPECT_FALSE(p.Contains(20));
  EXPECT_FALSE(p.Contains(9));
  EXPECT_TRUE(p.Overlaps(Period(19, 30)));
  EXPECT_FALSE(p.Overlaps(Period(20, 30)));  // half-open: meets, no overlap
  EXPECT_TRUE(p.Meets(Period(20, 30)));
  EXPECT_TRUE(p.Contains(Period(12, 18)));
  EXPECT_FALSE(p.Contains(Period(12, 21)));
}

TEST(PeriodTest, OpenEnded) {
  Period open = Period::From(100);
  EXPECT_TRUE(open.IsOpenEnded());
  EXPECT_TRUE(open.Contains(1'000'000'000));
  EXPECT_TRUE(open.Overlaps(Period(0, 101)));
  EXPECT_FALSE(open.Overlaps(Period(0, 100)));
}

TEST(PeriodTest, Intersect) {
  Period a(10, 20), b(15, 30);
  EXPECT_EQ(Period(15, 20), a.Intersect(b));
  EXPECT_TRUE(a.Intersect(Period(20, 30)).Empty());
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
  EXPECT_EQ(3, rng.UniformInt(3, 3));
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(2);
  std::map<int64_t, int> counts;
  const int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(0, 5)];
  for (const auto& [v, n] : counts) {
    EXPECT_NEAR(n, kDraws / 6, kDraws / 60) << "value " << v;
  }
}

TEST(RngTest, WeightedChoiceFollowsWeights) {
  Rng rng(3);
  std::vector<double> weights{0.7, 0.2, 0.1};
  std::vector<int> counts(3, 0);
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.WeightedChoice(weights)];
  EXPECT_NEAR(counts[0], kDraws * 0.7, kDraws * 0.02);
  EXPECT_NEAR(counts[1], kDraws * 0.2, kDraws * 0.02);
  EXPECT_NEAR(counts[2], kDraws * 0.1, kDraws * 0.02);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(4);
  int64_t low = 0, total = 20000;
  for (int i = 0; i < total; ++i) {
    int64_t v = rng.Zipf(1000, 0.8);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 1000);
    if (v <= 10) ++low;
  }
  // Zipf(0.8): the first 10 of 1000 values should take far more than 1% of
  // the mass.
  EXPECT_GT(low, total / 10);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  double sum = 0.0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += rng.Exponential(10.0);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.5);
}

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{1}).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value("x").is_string());
}

TEST(ValueTest, CompareSameType) {
  EXPECT_LT(Value(int64_t{1}).Compare(Value(int64_t{2})), 0);
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(int64_t{2})), 0);
  EXPECT_GT(Value("b").Compare(Value("a")), 0);
  EXPECT_LT(Value(1.5).Compare(Value(2.5)), 0);
}

TEST(ValueTest, CompareMixedNumeric) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_GT(Value("a").Compare(Value()), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{42}).Hash(), Value(int64_t{42}).Hash());
  EXPECT_EQ(Value("abc").Hash(), Value("abc").Hash());
  // Compare() finds 42 and 42.0 equal, so they must hash alike.
  ASSERT_EQ(0, Value(42.0).Compare(Value(int64_t{42})));
  EXPECT_EQ(Value(42.0).Hash(), Value(int64_t{42}).Hash());
}

TEST(ValueTest, DateTimestampAccessors) {
  Date d = Date::FromYMD(1994, 4, 4);
  EXPECT_EQ(d, Value(d).AsDate());
  Timestamp t(123456789);
  EXPECT_EQ(t, Value(t).AsTimestamp());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ("NULL", Value().ToString());
  EXPECT_EQ("42", Value(int64_t{42}).ToString());
  EXPECT_EQ("abc", Value("abc").ToString());
}

TEST(StatusTest, UnavailableCarriesRetryHint) {
  Status s = Status::Unavailable("store is read-only",
                                 "recover from the log and retry");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(Status::Code::kUnavailable, s.code());
  EXPECT_EQ("recover from the log and retry", s.retry_hint());
  // The hint is folded into the message after a fixed marker, so callers
  // that only print ToString() still see it.
  EXPECT_EQ("Unavailable: store is read-only; retry: recover from the log and retry",
            s.ToString());
}

TEST(StatusTest, UnavailableWithoutHint) {
  Status s = Status::Unavailable("maintenance window");
  EXPECT_EQ(Status::Code::kUnavailable, s.code());
  EXPECT_EQ("", s.retry_hint());
  EXPECT_EQ("Unavailable: maintenance window", s.ToString());
}

TEST(StatusTest, RetryHintIsEmptyForOtherCodes) {
  // Even a message that happens to contain the marker text yields no hint
  // unless the status really is kUnavailable.
  Status io = Status::IoError("disk failed; retry: later");
  EXPECT_EQ("", io.retry_hint());
  EXPECT_EQ("", Status::OK().retry_hint());
}

TEST(JsonTest, EscapePassesPlainTextThrough) {
  EXPECT_EQ("", JsonEscape(""));
  EXPECT_EQ("plain ascii 123", JsonEscape("plain ascii 123"));
}

TEST(JsonTest, EscapeHandlesQuotesAndBackslashes) {
  EXPECT_EQ("say \\\"hi\\\"", JsonEscape("say \"hi\""));
  EXPECT_EQ("a\\\\b", JsonEscape("a\\b"));
}

TEST(JsonTest, EscapeHandlesControlCharacters) {
  EXPECT_EQ("line\\nbreak", JsonEscape("line\nbreak"));
  EXPECT_EQ("tab\\there", JsonEscape("tab\there"));
  EXPECT_EQ("\\r\\b\\f", JsonEscape("\r\b\f"));
  // Other control bytes take the \u form.
  EXPECT_EQ("nul\\u0000end", JsonEscape(std::string("nul\0end", 7)));
  EXPECT_EQ("\\u001b[0m", JsonEscape("\x1b[0m"));
}

TEST(JsonTest, QuoteWrapsAndEscapes) {
  EXPECT_EQ("\"\"", JsonQuote(""));
  EXPECT_EQ("\"tenant \\\"a\\\"\"", JsonQuote("tenant \"a\""));
}

}  // namespace
}  // namespace bih
