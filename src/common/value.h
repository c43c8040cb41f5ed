#ifndef TPCBIH_COMMON_VALUE_H_
#define TPCBIH_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/chrono.h"
#include "common/status.h"

namespace bih {

// Runtime value of a column cell. Integers, dates (as day numbers) and
// timestamps (as microsecond numbers) share the int64 representation; the
// schema carries the logical type. This keeps the variant small and the
// comparison/hash paths branch-light, which matters because the executor is
// row-at-a-time.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  explicit Value(int64_t i) : v_(i) {}
  explicit Value(double d) : v_(d) {}
  explicit Value(std::string s) : v_(std::move(s)) {}
  explicit Value(const char* s) : v_(std::string(s)) {}
  explicit Value(Date d) : v_(int64_t{d.days()}) {}
  explicit Value(Timestamp t) : v_(t.micros()) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t AsInt() const {
    BIH_CHECK(is_int());
    return std::get<int64_t>(v_);
  }
  double AsDouble() const {
    if (is_int()) return static_cast<double>(std::get<int64_t>(v_));
    BIH_CHECK(is_double());
    return std::get<double>(v_);
  }
  const std::string& AsString() const {
    BIH_CHECK(is_string());
    return std::get<std::string>(v_);
  }
  Date AsDate() const { return Date(static_cast<int32_t>(AsInt())); }
  Timestamp AsTimestamp() const { return Timestamp(AsInt()); }

  // Three-way comparison following SQL semantics for same-typed operands;
  // numeric int/double comparisons are allowed. NULL sorts first (used only
  // for ordering, not predicate logic — predicates treat NULL separately).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  size_t Hash() const;

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

using Row = std::vector<Value>;

}  // namespace bih

#endif  // TPCBIH_COMMON_VALUE_H_
