#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace bih {

int Value::Compare(const Value& other) const {
  const bool ln = is_null(), rn = other.is_null();
  if (ln || rn) {
    if (ln && rn) return 0;
    return ln ? -1 : 1;
  }
  if (is_string() || other.is_string()) {
    BIH_CHECK_MSG(is_string() && other.is_string(),
                  "comparing string with non-string");
    return AsString().compare(other.AsString()) < 0
               ? -1
               : (AsString() == other.AsString() ? 0 : 1);
  }
  if (is_int() && other.is_int()) {
    int64_t a = AsInt(), b = other.AsInt();
    return a < b ? -1 : (a == b ? 0 : 1);
  }
  double a = AsDouble(), b = other.AsDouble();
  return a < b ? -1 : (a == b ? 0 : 1);
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_int()) return std::hash<int64_t>{}(AsInt());
  if (is_double()) {
    // Compare() treats an int and a double numerically, so an integral
    // double must hash like the equal int: a key index or hash join probed
    // with 7.0 then finds the stored 7.
    double d = AsDouble();
    if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
      return std::hash<int64_t>{}(static_cast<int64_t>(d));
    }
    return std::hash<double>{}(d);
  }
  return std::hash<std::string>{}(AsString());
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", AsDouble());
    return buf;
  }
  return AsString();
}

}  // namespace bih
