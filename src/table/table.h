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

/// Row i of a table, read through its column blocks: operator[] boxes one
/// cell. Valid while the table is alive and not appended to.
class RowView {
 public:
  RowView(const ColumnarTable* table, size_t row)
      : table_(table), row_(row) {}

  size_t size() const;
  Value operator[](size_t col) const;
  Row ToRow() const;
  /// ToRow into `out`, reusing its storage (one scratch Row per loop).
  void CopyTo(Row* out) const;

 private:
  const ColumnarTable* table_;
  size_t row_;
};

/// In-memory relation. Rows are append-only through the public API;
/// operators produce new tables.
///
/// Typed: every non-null cell has exactly its column's declared type.
/// Append and the row constructor abort on a mismatched cell (no int64 ->
/// double promotion); null is accepted in any column.
///
/// Storage is columnar only: the contents are the typed column blocks of
/// one ColumnarTable (columnar.h), which the vectorized executor (vec_ops.h)
/// reads directly; row(i) and At box cells on demand. Copies share the
/// blocks. Append writes typed cells in place while this table holds the
/// only reference to a block, and copies a block that another Table or a
/// published ColumnarTable still shares. No const member writes the
/// contents, so any number of threads may read one Table at once.
class Table {
 public:
  Table() : Table(Schema()) {}
  explicit Table(Schema schema);
  Table(Schema schema, const std::vector<Row>& rows);

  const Schema& schema() const;
  size_t num_rows() const;
  /// Row i (checked), as a view over the column blocks.
  RowView row(size_t i) const;

  /// Appends a row; aborts if arity mismatches the schema or a non-null
  /// cell's type differs from its column's. Amortised O(1) per row.
  void Append(const Row& row);

  /// Value at (row, named column); error if the column is absent.
  Result<Value> At(size_t row, const std::string& column) const;

  /// The contents: never null. Valid until the next Append.
  const std::shared_ptr<const ColumnarTable>& columnar() const {
    return columnar_;
  }

  /// columnar() as a Result; never fails.
  Result<std::shared_ptr<const ColumnarTable>> ToColumnar() const {
    return columnar_;
  }

  /// Wraps a columnar table, sharing its blocks.
  static Table FromColumnar(std::shared_ptr<const ColumnarTable> cols);

  /// Memoized per-column statistics (catalog.h). Computed on first
  /// Catalog::StatsFor call and dropped by Append. Not contents: the cache
  /// mutates under const, so a Table whose statistics are computed
  /// concurrently must not be shared across threads.
  const std::shared_ptr<const TableStats>& stats_cache() const {
    return stats_;
  }
  void set_stats_cache(std::shared_ptr<const TableStats> s) const {
    stats_ = std::move(s);
  }

  /// Content-version stamp of the ColumnarTable: process-unique for these
  /// contents. Copies and wraps of one ColumnarTable share it; each Append
  /// takes a fresh one. The plan-fingerprint feedback key (cost.h) salts
  /// scans with it, so actuals recorded against one contents state never
  /// poison cardinality estimates for another.
  uint64_t content_version() const;

  /// Pretty-printed preview of up to `max_rows` rows.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Table(std::shared_ptr<const ColumnarTable> cols, bool own)
      : columnar_(std::move(cols)), own_columnar_(own) {}

  /// columnar_, copied first unless this table allocated it and holds the
  /// only reference.
  ColumnarTable& MutableColumnar();

  std::shared_ptr<const ColumnarTable> columnar_;
  /// True when columnar_ was allocated here (non-const); a wrapped
  /// ColumnarTable is copied before its first append.
  bool own_columnar_;
  /// Memoized statistics; reset on Append.
  mutable std::shared_ptr<const TableStats> stats_;
};

}  // namespace mde::table

#endif  // MDE_TABLE_TABLE_H_
