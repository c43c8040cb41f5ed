#include "common/chrono.h"

#include <cstdio>

#include "common/status.h"

namespace bih {

namespace {

// Days-from-civil / civil-from-days algorithms by Howard Hinnant
// (public domain), the standard proleptic Gregorian conversions.
int64_t DaysFromCivil(int y, unsigned m, unsigned d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097LL + static_cast<int>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* y, unsigned* m, unsigned* d) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  *d = doy - (153 * mp + 2) / 5 + 1;                                     // [1, 31]
  *m = mp + (mp < 10 ? 3 : -9);                                          // [1, 12]
  *y = static_cast<int>(yy + (*m <= 2));
}

}  // namespace

Date Date::FromYMD(int year, int month, int day) {
  BIH_CHECK(month >= 1 && month <= 12);
  BIH_CHECK(day >= 1 && day <= 31);
  return Date(static_cast<int32_t>(
      DaysFromCivil(year, static_cast<unsigned>(month), static_cast<unsigned>(day))));
}

void Date::ToYMD(int* year, int* month, int* day) const {
  unsigned m, d;
  CivilFromDays(days_, year, &m, &d);
  *month = static_cast<int>(m);
  *day = static_cast<int>(d);
}

std::string Date::ToString() const {
  int y, m, d;
  ToYMD(&y, &m, &d);
  // Three ints of up to 11 characters each, two dashes and the NUL.
  char buf[36];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

bool Date::Parse(const std::string& s, Date* out) {
  int y, m, d;
  if (std::sscanf(s.c_str(), "%d-%d-%d", &y, &m, &d) != 3) return false;
  if (m < 1 || m > 12 || d < 1 || d > 31) return false;
  *out = FromYMD(y, m, d);
  return true;
}

std::string Timestamp::ToString() const {
  int64_t days = micros_ / kMicrosPerDay;
  int64_t rem = micros_ % kMicrosPerDay;
  if (rem < 0) {
    rem += kMicrosPerDay;
    days -= 1;
  }
  Date d(static_cast<int32_t>(days));
  int64_t secs = rem / kMicrosPerSecond;
  int64_t us = rem % kMicrosPerSecond;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s %02d:%02d:%02d.%06d",
                d.ToString().c_str(), static_cast<int>(secs / 3600),
                static_cast<int>((secs / 60) % 60), static_cast<int>(secs % 60),
                static_cast<int>(us));
  return buf;
}

}  // namespace bih
