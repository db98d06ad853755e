#ifndef MDE_TABLE_OPS_H_
#define MDE_TABLE_OPS_H_

#include <string>

#include "table/table.h"
#include "util/status.h"

namespace mde::table {

/// Vocabulary shared by the query front ends (query.h, plan.h), the
/// vectorized executor (vec_ops.h) and mcdb::BundleTable::FilterDet:
/// comparison operators, column predicates and aggregate specs. The
/// relational operators themselves live in vec_ops.h only.

/// Comparison operators for column predicates.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// A structured (and therefore optimizable) predicate: column <op> literal.
/// Nulls never match; numerics compare as double across int64/double.
struct PlanPredicate {
  std::string column;
  CmpOp op = CmpOp::kEq;
  Value literal;
};

/// Evaluates `v <op> lit` with the Value comparison semantics the
/// vectorized kernels implement (numeric coercion through double,
/// cross-type ranking). Nulls are the caller's concern: a predicate over a
/// null value or literal is false before this is consulted.
bool EvalCmp(const Value& v, CmpOp op, const Value& lit);

/// The predicate `column <op> literal`, with `column` checked against
/// `schema`.
Result<PlanPredicate> ColumnCompare(const Schema& schema,
                                    const std::string& column, CmpOp op,
                                    Value literal);

/// Aggregate function kinds for Query::GroupByAgg / VecGroupBy.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

/// One aggregate: `kind` over `column` (column ignored for kCount), output
/// column named `as`.
struct AggSpec {
  AggKind kind;
  std::string column;
  std::string as;
};

}  // namespace mde::table

#endif  // MDE_TABLE_OPS_H_
