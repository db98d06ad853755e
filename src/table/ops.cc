#include "table/ops.h"

namespace mde::table {

bool EvalCmp(const Value& v, CmpOp op, const Value& lit) {
  switch (op) {
    case CmpOp::kEq:
      return v.Equals(lit);
    case CmpOp::kNe:
      return !v.Equals(lit);
    case CmpOp::kLt:
      return v.LessThan(lit);
    case CmpOp::kLe:
      return v.LessThan(lit) || v.Equals(lit);
    case CmpOp::kGt:
      return lit.LessThan(v);
    case CmpOp::kGe:
      return lit.LessThan(v) || v.Equals(lit);
  }
  return false;
}

Result<PlanPredicate> ColumnCompare(const Schema& schema,
                                    const std::string& column, CmpOp op,
                                    Value literal) {
  MDE_RETURN_NOT_OK(schema.IndexOf(column).status());
  return PlanPredicate{column, op, std::move(literal)};
}

}  // namespace mde::table
