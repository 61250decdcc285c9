// Tests for common/time: calendar conversion, formatting, parsing.
#include "common/time.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "common/error.hpp"

namespace bglpred {
namespace {

TEST(TimeTest, EpochIsZero) {
  EXPECT_EQ(make_time(1970, 1, 1), 0);
}

TEST(TimeTest, KnownDates) {
  EXPECT_EQ(make_time(1970, 1, 2), kDay);
  EXPECT_EQ(make_time(2000, 1, 1), 946684800);
  EXPECT_EQ(make_time(2005, 1, 21), 1106265600);
  EXPECT_EQ(make_time(2006, 4, 28), 1146182400);
}

TEST(TimeTest, ComponentsRoundTrip) {
  const TimePoint t = make_time(2005, 3, 14, 6, 25, 1);
  EXPECT_EQ(format_time(t), "2005-03-14 06:25:01");
  EXPECT_EQ(parse_time("2005-03-14 06:25:01"), t);
}

TEST(TimeTest, LeapYearFebruary29Valid) {
  EXPECT_NO_THROW(make_time(2004, 2, 29));
  EXPECT_NO_THROW(make_time(2000, 2, 29));  // divisible by 400
}

TEST(TimeTest, NonLeapFebruary29Throws) {
  EXPECT_THROW(make_time(2005, 2, 29), InvalidArgument);
  EXPECT_THROW(make_time(1900, 2, 29), InvalidArgument);  // century rule
}

TEST(TimeTest, OutOfRangeComponentsThrow) {
  EXPECT_THROW(make_time(2005, 0, 1), InvalidArgument);
  EXPECT_THROW(make_time(2005, 13, 1), InvalidArgument);
  EXPECT_THROW(make_time(2005, 4, 31), InvalidArgument);
  EXPECT_THROW(make_time(2005, 1, 1, 24), InvalidArgument);
  EXPECT_THROW(make_time(2005, 1, 1, 0, 60), InvalidArgument);
  EXPECT_THROW(make_time(2005, 1, 1, 0, 0, 60), InvalidArgument);
}

TEST(TimeTest, ParseRejectsGarbage) {
  EXPECT_THROW(parse_time("not a date"), ParseError);
  EXPECT_THROW(parse_time("2005-13-01 00:00:00"), ParseError);
  EXPECT_THROW(parse_time(""), ParseError);
}

TEST(TimeTest, FormatParseRoundTripSweep) {
  // Sweep across month boundaries, leap days, and year ends.
  for (const TimePoint t :
       {make_time(2004, 2, 28, 23, 59, 59), make_time(2004, 2, 29),
        make_time(2004, 12, 31, 23, 59, 59), make_time(2005, 1, 1),
        make_time(2038, 1, 19, 3, 14, 7), make_time(1999, 12, 31)}) {
    EXPECT_EQ(parse_time(format_time(t)), t);
  }
}

// The snprintf format format_time_to used before it wrote digits in
// place: the oracle for the sweep below. The calendar fields come from
// <chrono>, independently of time.cpp's civil-days conversion.
std::string snprintf_format_time(TimePoint t) {
  using namespace std::chrono;
  const sys_seconds s{seconds{t}};
  const sys_days day = floor<days>(s);
  const year_month_day ymd{day};
  const auto sod = static_cast<int>((s - day).count());
  char buf[40];
  const int len = std::snprintf(
      buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
      static_cast<int>(ymd.year()),
      static_cast<int>(static_cast<unsigned>(ymd.month())),
      static_cast<int>(static_cast<unsigned>(ymd.day())), sod / 3600,
      sod % 3600 / 60, sod % 60);
  return std::string(buf, static_cast<std::size_t>(len));
}

TEST(TimeTest, FormatMatchesSnprintfFromBeforeEpochPastYear9999) {
  // Pinned strings first, so the oracle itself is checked: years outside
  // 0..9999 take the printf fallback and widen exactly as %04d does.
  EXPECT_EQ(format_time(-1), "1969-12-31 23:59:59");
  EXPECT_EQ(format_time(make_time(0, 1, 1)), "0000-01-01 00:00:00");
  EXPECT_EQ(format_time(make_time(-1, 12, 31, 23, 59, 59)),
            "-001-12-31 23:59:59");
  EXPECT_EQ(format_time(make_time(9999, 12, 31, 23, 59, 59)),
            "9999-12-31 23:59:59");
  EXPECT_EQ(format_time(make_time(10000, 1, 1)), "10000-01-01 00:00:00");
  EXPECT_EQ(format_time(make_time(-1234, 5, 6, 7, 8, 9)),
            "-1234-05-06 07:08:09");

  std::size_t checked = 0;
  const auto check = [&checked](TimePoint t) {
    std::string out = "prefix|";
    format_time_to(out, t);
    ASSERT_EQ(out, "prefix|" + snprintf_format_time(t)) << "t = " << t;
    ++checked;
  };
  // Dense windows around every boundary the digit writer has: the year
  // -1/0 and 9999/10000 fallback edges, the epoch (negative seconds of
  // day), a leap day, and a century year.
  for (const TimePoint anchor :
       {make_time(0, 1, 1), make_time(10000, 1, 1), TimePoint{0},
        make_time(2004, 2, 29), make_time(2000, 1, 1),
        make_time(1900, 3, 1)}) {
    for (TimePoint t = anchor - 2 * kDay; t <= anchor + 2 * kDay; t += 997) {
      check(t);
    }
  }
  // And a coarse sweep from before year 0 to past 10000 (stride is a
  // prime number of seconds so every time-of-day field varies).
  const TimePoint first = make_time(-40, 1, 1);
  const TimePoint last = make_time(10040, 1, 1);
  const TimePoint stride = (last - first) / 100003 + 1;
  for (TimePoint t = first; t <= last; t += stride) {
    check(t);
  }
  EXPECT_GT(checked, 100000u);
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(format_duration(0), "0s");
  EXPECT_EQ(format_duration(45), "45s");
  EXPECT_EQ(format_duration(5 * kMinute), "5m");
  EXPECT_EQ(format_duration(kHour + 30 * kMinute), "1h30m");
  EXPECT_EQ(format_duration(2 * kDay + 4 * kHour), "2d4h");
  EXPECT_EQ(format_duration(-90), "-1m30s");
}

TEST(TimeTest, TimeSpanBasics) {
  const TimeSpan span{100, 200};
  EXPECT_EQ(span.length(), 100);
  EXPECT_TRUE(span.contains(100));
  EXPECT_TRUE(span.contains(199));
  EXPECT_FALSE(span.contains(200));
  EXPECT_FALSE(span.contains(99));
  EXPECT_FALSE(span.empty());
  EXPECT_TRUE((TimeSpan{5, 5}).empty());
  EXPECT_TRUE((TimeSpan{7, 3}).empty());
}

}  // namespace
}  // namespace bglpred
