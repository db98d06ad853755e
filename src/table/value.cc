#include "table/value.h"

#include <functional>

#include "util/check.h"

namespace mde::table {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return "BOOL";
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "?";
}

bool Value::AsBool() const {
  MDE_CHECK_MSG(std::holds_alternative<bool>(v_), "Value is not bool");
  return std::get<bool>(v_);
}

int64_t Value::AsInt() const {
  MDE_CHECK_MSG(std::holds_alternative<int64_t>(v_), "Value is not int64");
  return std::get<int64_t>(v_);
}

double Value::AsDouble() const {
  if (std::holds_alternative<int64_t>(v_)) {
    return static_cast<double>(std::get<int64_t>(v_));
  }
  MDE_CHECK_MSG(std::holds_alternative<double>(v_), "Value is not numeric");
  return std::get<double>(v_);
}

const std::string& Value::AsString() const {
  MDE_CHECK_MSG(std::holds_alternative<std::string>(v_),
                "Value is not string");
  return std::get<std::string>(v_);
}

namespace {

bool IsNumeric(const Value& v) {
  return v.type() == DataType::kInt64 || v.type() == DataType::kDouble;
}

// Rank used for the cross-type total order.
int TypeRank(DataType t) {
  switch (t) {
    case DataType::kNull:
      return 0;
    case DataType::kBool:
      return 1;
    case DataType::kInt64:
    case DataType::kDouble:
      return 2;
    case DataType::kString:
      return 3;
  }
  return 4;
}

}  // namespace

bool Value::Equals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  if (IsNumeric(*this) && IsNumeric(other)) {
    return AsDouble() == other.AsDouble();
  }
  return v_ == other.v_;
}

bool Value::LessThan(const Value& other) const {
  const int ra = TypeRank(type());
  const int rb = TypeRank(other.type());
  if (ra != rb) return ra < rb;
  switch (type()) {
    case DataType::kNull:
      return false;
    case DataType::kBool:
      return !AsBool() && other.AsBool();
    case DataType::kInt64:
    case DataType::kDouble:
      return AsDouble() < other.AsDouble();
    case DataType::kString:
      return AsString() < other.AsString();
  }
  return false;
}

std::string Value::ToString() const {
  switch (type()) {
    case DataType::kNull:
      return "NULL";
    case DataType::kBool:
      return AsBool() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(AsInt());
    case DataType::kDouble:
      return std::to_string(AsDouble());
    case DataType::kString:
      return AsString();
  }
  return "?";
}

size_t Value::Hash() const {
  switch (type()) {
    case DataType::kNull:
      return 0x9b1f;
    case DataType::kBool:
      return AsBool() ? 0x51u : 0x52u;
    case DataType::kInt64:
    case DataType::kDouble:
      return std::hash<double>()(AsDouble());
    case DataType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

}  // namespace mde::table
