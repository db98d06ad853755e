#ifndef MDE_TESTS_REFERENCE_OPS_H_
#define MDE_TESTS_REFERENCE_OPS_H_

#include <functional>
#include <string>
#include <vector>

#include "table/ops.h"
#include "table/table.h"
#include "util/status.h"

namespace mde::table {

/// Row-at-a-time reference operators over boxed rows: the executable
/// specification the vectorized kernels (vec_ops.h) are differentially
/// tested against. Test-only; the library executes through vec_ops.h.

/// Every row of `t`, boxed.
std::vector<Row> Rows(const Table& t);

/// Row predicate bound to a schema at build time so evaluation is a plain
/// index lookup.
using RowPredicate = std::function<bool(const Row&)>;

/// The row form of ColumnCompare(schema, column, op, literal): nulls never
/// match, otherwise EvalCmp. The specification FilterDet and VecFilter are
/// tested against.
Result<RowPredicate> RowCompare(const Schema& schema,
                                const std::string& column, CmpOp op,
                                Value literal);

/// Conjunction / disjunction / negation combinators.
RowPredicate And(RowPredicate a, RowPredicate b);
RowPredicate Or(RowPredicate a, RowPredicate b);
RowPredicate Not(RowPredicate a);

/// sigma_p(t): rows of `t` satisfying `pred`.
Table Filter(const Table& t, const RowPredicate& pred);

/// pi_cols(t): named-column projection (errors on unknown columns).
Result<Table> Project(const Table& t, const std::vector<std::string>& columns);

/// Equi-join on left.column == right.column pairs using a hash table built
/// over the right input. Output schema is Concat(left, right, "r.").
Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys);

/// Hash group-by with the given key columns (may be empty: global
/// aggregate). Aggregate inputs must be numeric (except kCount).
Result<Table> GroupBy(const Table& t, const std::vector<std::string>& keys,
                      const std::vector<AggSpec>& aggs);

/// Sorts by the given columns ascending (descending when the matching
/// entry of `descending` is true; `descending` may be empty = all
/// ascending). Stable.
Result<Table> OrderBy(const Table& t, const std::vector<std::string>& columns,
                      std::vector<bool> descending = {});

/// Removes duplicate rows (strict variant equality).
Table Distinct(const Table& t);

/// First `n` rows.
Table Limit(const Table& t, size_t n);

}  // namespace mde::table

#endif  // MDE_TESTS_REFERENCE_OPS_H_
