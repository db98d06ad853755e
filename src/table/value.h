#ifndef MDE_TABLE_VALUE_H_
#define MDE_TABLE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

namespace mde::table {

/// Column data types supported by the engine.
enum class DataType {
  kNull,
  kBool,
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeName(DataType t);

/// A single cell. Null is represented by std::monostate. Numeric
/// comparisons coerce int64 <-> double so mixed-type predicates behave the
/// way SQL users expect.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  Value(bool b) : v_(b) {}                     // NOLINT(runtime/explicit)
  Value(int64_t i) : v_(i) {}                  // NOLINT
  Value(int i) : v_(static_cast<int64_t>(i)) {}  // NOLINT
  Value(double d) : v_(d) {}                   // NOLINT
  Value(std::string s) : v_(std::move(s)) {}   // NOLINT
  Value(const char* s) : v_(std::string(s)) {}  // NOLINT

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  /// Inline: Table checks it on every appended cell. Relies on v_ listing
  /// its alternatives in DataType order.
  DataType type() const { return static_cast<DataType>(v_.index()); }

  /// Typed accessors; abort if the cell holds a different type.
  bool AsBool() const;
  int64_t AsInt() const;
  /// Numeric accessor: returns the value as double for both int64 and
  /// double cells.
  double AsDouble() const;
  const std::string& AsString() const;

  /// SQL-style three-valued-ish equality: null equals nothing (including
  /// null) under Equals(); operator== is strict variant equality for use in
  /// hashing/containers.
  bool Equals(const Value& other) const;
  bool operator==(const Value& other) const { return v_ == other.v_; }

  /// Total order for sorting: null < bool < numeric < string; numerics
  /// compare by value across int/double.
  bool LessThan(const Value& other) const;

  std::string ToString() const;

  /// Hash compatible with Equals() on non-null values (numerics hash by
  /// double value).
  size_t Hash() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, std::string> v_;
};

}  // namespace mde::table

#endif  // MDE_TABLE_VALUE_H_
