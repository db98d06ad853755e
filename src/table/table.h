#ifndef MDE_TABLE_TABLE_H_
#define MDE_TABLE_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/value.h"
#include "util/status.h"

namespace mde::table {

class ColumnarTable;
struct TableStats;

/// A named, typed column slot.
struct ColumnSpec {
  std::string name;
  DataType type;
};

/// Ordered set of named, typed columns. Name lookup is O(1) via an index
/// built at construction (IndexOf used to be a linear scan, which showed up
/// in every per-row hot loop that resolved columns late).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns);

  size_t num_columns() const { return columns_.size(); }
  const ColumnSpec& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnSpec>& columns() const { return columns_; }

  /// Index of `name`, or error if absent.
  Result<size_t> IndexOf(const std::string& name) const;
  bool Has(const std::string& name) const;

  /// Concatenation for join outputs; duplicate names from the right side are
  /// prefixed with `right_prefix` (e.g. "r.").
  static Schema Concat(const Schema& left, const Schema& right,
                       const std::string& right_prefix);

  bool operator==(const Schema& other) const;

  std::string ToString() const;

 private:
  std::vector<ColumnSpec> columns_;
  std::unordered_map<std::string, size_t> index_;
};

using Row = std::vector<Value>;

/// Next value of the process-wide table content-version sequence. Every
/// Table starts at a fresh stamp and takes another on each mutation, so two
/// tables (or two mutation states of one table) never share a stamp unless
/// one was copied from the other unmutated.
uint64_t NextContentVersion();

/// In-memory relation. Rows are append-only through the public API;
/// operators produce new tables.
///
/// Typed: every non-null cell has exactly its column's declared type.
/// Append, Set and the row constructor abort on a mismatched cell (no
/// int64 -> double promotion); null is accepted in any column. Every table
/// therefore converts to columnar form, and the columnar executor
/// (vec_ops.h, driven by Query and ExecutePlan) is the only one.
///
/// Storage: a Table is either row-backed (vector of boxed rows, as built by
/// Append) or columnar-backed — produced by the vectorized operator
/// pipeline (columnar.h / vec_ops.h), in which case it carries a shared
/// reference to the typed column blocks and materializes the boxed row view
/// LAZILY on first row access. The row API is thus a view/materialization
/// layer: pipelines that stay columnar (Query, plan execution, chained
/// operators) never pay for boxing. Lazy materialization mutates a cache
/// under const accessors, so a Table must not be shared across threads
/// while unmaterialized; the concurrent substrate is ColumnarTable, which
/// is immutable.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}
  Table(Schema schema, std::vector<Row> rows);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const;
  const Row& row(size_t i) const;
  const std::vector<Row>& rows() const;

  /// Appends a row; aborts if arity mismatches the schema or a non-null
  /// cell's type differs from its column's. Detaches the columnar
  /// representation (the blocks are immutable).
  void Append(Row row);

  /// Pre-sizes the row storage (cardinality-estimate reserve in operators).
  void Reserve(size_t n);

  /// Value at (row, named column); error if the column is absent.
  Result<Value> At(size_t row, const std::string& column) const;

  /// In-place mutation used by the simulation layers that model agent state
  /// as rows (Indemics node updates, SimSQL versions mutate copies). Aborts
  /// on a non-null `v` whose type differs from the column's.
  void Set(size_t row, size_t col, Value v);

  /// The attached columnar representation, or nullptr for row-backed
  /// tables whose conversion is not cached yet.
  const std::shared_ptr<const ColumnarTable>& columnar() const {
    return columnar_;
  }

  /// Converts to a columnar representation and caches it on the table, so
  /// repeated scans of the same base table (plan execution, Query) convert
  /// once. O(1) when already attached. Never fails: the typed contract
  /// above guarantees every cell fits its column. Mutates the cache under
  /// const — same single-thread caveat as lazy row materialization.
  Result<std::shared_ptr<const ColumnarTable>> ToColumnar() const;

  /// Wraps a columnar table; the boxed row view is built on first access.
  static Table FromColumnar(std::shared_ptr<const ColumnarTable> cols);

  /// Memoized per-column statistics (catalog.h). Computed on first
  /// Catalog::StatsFor call and dropped by any mutation, the same
  /// discipline as the cached columnar conversion. Same single-thread
  /// caveat: the cache mutates under const.
  const std::shared_ptr<const TableStats>& stats_cache() const {
    return stats_;
  }
  void set_stats_cache(std::shared_ptr<const TableStats> s) const {
    stats_ = std::move(s);
  }

  /// Content-version stamp: process-unique for this table's current
  /// contents. Copies share the stamp (contents are equal at copy time);
  /// any mutation (Append / Set) takes a fresh stamp, and tables wrapped
  /// from the same ColumnarTable share its stamp. The plan-fingerprint
  /// feedback key (cost.h) salts scans with this, so execution actuals
  /// recorded against one contents state can never poison cardinality
  /// estimates after the table mutates — even when the row count happens
  /// to stay the same (a Set-heavy chain transition, say).
  uint64_t content_version() const { return content_version_; }

  /// Pretty-printed preview of up to `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  /// Materializes rows_ from columnar_ if not yet done.
  void EnsureRows() const;
  /// Aborts unless `row` has the schema's arity and every non-null cell
  /// has its column's declared type.
  void CheckRow(const Row& row) const;

  Schema schema_;
  mutable std::vector<Row> rows_;
  /// Non-null while columnar-backed; rows_ empty until materialized (or the
  /// table has zero rows). Reset by any mutation; also a cache for
  /// ToColumnar on row-backed tables, hence mutable.
  mutable std::shared_ptr<const ColumnarTable> columnar_;
  /// Memoized statistics; reset together with columnar_ on mutation.
  mutable std::shared_ptr<const TableStats> stats_;
  /// See content_version().
  uint64_t content_version_ = NextContentVersion();
};

}  // namespace mde::table

#endif  // MDE_TABLE_TABLE_H_
