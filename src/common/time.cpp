#include "common/time.hpp"

#include <array>
#include <cstdio>

#include "common/error.hpp"

namespace bglpred {
namespace {

constexpr bool is_leap(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

constexpr std::array<int, 12> kDaysInMonth = {31, 28, 31, 30, 31, 30,
                                              31, 31, 30, 31, 30, 31};

int days_in_month(int year, int month) {
  int d = kDaysInMonth[static_cast<std::size_t>(month - 1)];
  if (month == 2 && is_leap(year)) {
    ++d;
  }
  return d;
}

// Days from 1970-01-01 to year-month-day using the civil-days algorithm
// (Howard Hinnant's chrono date algorithms).
std::int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

// Inverse of days_from_civil.
void civil_from_days(std::int64_t z, int& y, int& m, int& d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  y = static_cast<int>(yy + (m <= 2));
}

}  // namespace

TimePoint make_time(int year, int month, int day, int hour, int minute,
                    int second) {
  BGL_REQUIRE(month >= 1 && month <= 12, "month out of range");
  BGL_REQUIRE(day >= 1 && day <= days_in_month(year, month),
              "day out of range");
  BGL_REQUIRE(hour >= 0 && hour < 24, "hour out of range");
  BGL_REQUIRE(minute >= 0 && minute < 60, "minute out of range");
  BGL_REQUIRE(second >= 0 && second < 60, "second out of range");
  return days_from_civil(year, month, day) * kDay + hour * kHour +
         minute * kMinute + second;
}

std::string format_time(TimePoint t) {
  std::string out;
  format_time_to(out, t);
  return out;
}

void format_time_to(std::string& out, TimePoint t) {
  std::int64_t days = t / kDay;
  std::int64_t sod = t % kDay;
  if (sod < 0) {
    sod += kDay;
    --days;
  }
  int y = 0;
  int m = 0;
  int d = 0;
  civil_from_days(days, y, m, d);
  const int hh = static_cast<int>(sod / kHour);
  const int mi = static_cast<int>((sod % kHour) / kMinute);
  const int ss = static_cast<int>(sod % kMinute);
  if (y < 0 || y > 9999) {
    // A sign or a fifth year digit: let printf's %04d widen the field.
    char buf[40];
    const int len =
        std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", y,
                      m, d, hh, mi, ss);
    out.append(buf, static_cast<std::size_t>(len));
    return;
  }
  // Every field now fits its width exactly ("YYYY-MM-DD HH:MM:SS"), so
  // write the digits in place instead of paying for printf's parser on
  // every record of a multi-million-line log.
  char buf[19];
  const auto put2 = [&buf](std::size_t at, int v) {
    buf[at] = static_cast<char>('0' + v / 10);
    buf[at + 1] = static_cast<char>('0' + v % 10);
  };
  put2(0, y / 100);
  put2(2, y % 100);
  buf[4] = '-';
  put2(5, m);
  buf[7] = '-';
  put2(8, d);
  buf[10] = ' ';
  put2(11, hh);
  buf[13] = ':';
  put2(14, mi);
  buf[16] = ':';
  put2(17, ss);
  out.append(buf, sizeof(buf));
}

bool try_parse_time(std::string_view text, TimePoint& out) {
  // "YYYY-MM-DD HH:MM:SS": 19 bytes, digits and separators at fixed
  // offsets. Anything else is the caller's problem (fall back to
  // parse_time's sscanf grammar).
  if (text.size() != 19 || text[4] != '-' || text[7] != '-' ||
      text[10] != ' ' || text[13] != ':' || text[16] != ':') {
    return false;
  }
  const auto digit = [&](std::size_t i) { return text[i] - '0'; };
  for (const std::size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u, 14u,
                              15u, 17u, 18u}) {
    if (text[i] < '0' || text[i] > '9') {
      return false;
    }
  }
  const int y = ((digit(0) * 10 + digit(1)) * 10 + digit(2)) * 10 + digit(3);
  const int m = digit(5) * 10 + digit(6);
  const int d = digit(8) * 10 + digit(9);
  const int hh = digit(11) * 10 + digit(12);
  const int mm = digit(14) * 10 + digit(15);
  const int ss = digit(17) * 10 + digit(18);
  // Same range rules as make_time, minus the throw.
  if (m < 1 || m > 12 || d < 1 || d > days_in_month(y, m) || hh >= 24 ||
      mm >= 60 || ss >= 60) {
    return false;
  }
  out = days_from_civil(y, m, d) * kDay + hh * kHour + mm * kMinute + ss;
  return true;
}

TimePoint parse_time(const std::string& text) {
  int y = 0;
  int m = 0;
  int d = 0;
  int hh = 0;
  int mm = 0;
  int ss = 0;
  if (std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d", &y, &m, &d, &hh, &mm,
                  &ss) != 6) {
    throw ParseError("bad time literal: '" + text + "'");
  }
  try {
    return make_time(y, m, d, hh, mm, ss);
  } catch (const InvalidArgument& e) {
    throw ParseError("bad time literal: '" + text + "': " + e.what());
  }
}

std::string format_duration(Duration dur) {
  if (dur == 0) {
    return "0s";
  }
  std::string out;
  if (dur < 0) {
    out += '-';
    dur = -dur;
  }
  const Duration d = dur / kDay;
  const Duration h = (dur % kDay) / kHour;
  const Duration m = (dur % kHour) / kMinute;
  const Duration s = dur % kMinute;
  if (d != 0) {
    out += std::to_string(d) + "d";
  }
  if (h != 0) {
    out += std::to_string(h) + "h";
  }
  if (m != 0) {
    out += std::to_string(m) + "m";
  }
  if (s != 0) {
    out += std::to_string(s) + "s";
  }
  return out;
}

}  // namespace bglpred
