#include "table/table.h"

#include <atomic>
#include <sstream>

#include "obs/context.h"
#include "obs/metrics.h"
#include "table/columnar.h"
#include "util/check.h"

namespace mde::table {

uint64_t NextContentVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Schema::Schema(std::vector<ColumnSpec> columns) : columns_(std::move(columns)) {
  index_.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const bool inserted = index_.emplace(columns_[i].name, i).second;
    MDE_CHECK_MSG(inserted, "duplicate column name in schema");
  }
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return Status::NotFound("column not found: " + name);
  return it->second;
}

bool Schema::Has(const std::string& name) const {
  return index_.count(name) > 0;
}

Schema Schema::Concat(const Schema& left, const Schema& right,
                      const std::string& right_prefix) {
  std::vector<ColumnSpec> cols = left.columns_;
  for (const auto& c : right.columns_) {
    std::string name = c.name;
    if (left.Has(name)) name = right_prefix + name;
    cols.push_back({std::move(name), c.type});
  }
  return Schema(std::move(cols));
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) os << ", ";
    os << columns_[i].name << " " << DataTypeName(columns_[i].type);
  }
  os << ")";
  return os.str();
}

Table::Table(Schema schema, std::vector<Row> rows)
    : schema_(std::move(schema)), rows_(std::move(rows)) {
  for (const Row& r : rows_) CheckRow(r);
}

namespace {

bool CellFits(const Value& v, const ColumnSpec& col) {
  return v.is_null() || v.type() == col.type;
}

}  // namespace

void Table::CheckRow(const Row& row) const {
  MDE_CHECK_EQ(row.size(), schema_.num_columns());
  for (size_t c = 0; c < row.size(); ++c) {
    MDE_CHECK_MSG(CellFits(row[c], schema_.column(c)),
                  "cell type differs from declared column type");
  }
}

size_t Table::num_rows() const {
  return columnar_ != nullptr ? columnar_->num_rows() : rows_.size();
}

void Table::EnsureRows() const {
  if (columnar_ == nullptr || rows_.size() == columnar_->num_rows()) return;
  const size_t n = columnar_->num_rows();
  rows_.clear();
  rows_.reserve(n);
  for (size_t i = 0; i < n; ++i) rows_.push_back(columnar_->MaterializeRow(i));
}

const Row& Table::row(size_t i) const {
  EnsureRows();
  return rows_[i];
}

const std::vector<Row>& Table::rows() const {
  EnsureRows();
  return rows_;
}

void Table::Append(Row row) {
  CheckRow(row);
  EnsureRows();
  columnar_.reset();
  stats_.reset();
  content_version_ = NextContentVersion();
  rows_.push_back(std::move(row));
}

void Table::Reserve(size_t n) {
  EnsureRows();
  rows_.reserve(n);
}

Result<Value> Table::At(size_t row, const std::string& column) const {
  MDE_CHECK_LT(row, num_rows());
  MDE_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(column));
  if (columnar_ != nullptr && rows_.empty()) {
    return columnar_->col(idx).ValueAt(row);
  }
  EnsureRows();
  return rows_[row][idx];
}

void Table::Set(size_t row, size_t col, Value v) {
  MDE_CHECK_LT(row, num_rows());
  MDE_CHECK_LT(col, schema_.num_columns());
  MDE_CHECK_MSG(CellFits(v, schema_.column(col)),
                "cell type differs from declared column type");
  EnsureRows();
  columnar_.reset();
  stats_.reset();
  content_version_ = NextContentVersion();
  rows_[row][col] = std::move(v);
}

Result<std::shared_ptr<const ColumnarTable>> Table::ToColumnar() const {
  if (columnar_ != nullptr) {
    // A reused cached conversion is work the active query did NOT pay for;
    // the attribution row records how often each query rode the cache.
    MDE_OBS_COUNT("table.columnar_cache_hits", 1);
    MDE_OBS_ATTR_ADD(cache_hits, 1);
    return columnar_;
  }
  std::vector<ColumnBuilder> builders;
  builders.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    builders.emplace_back(schema_.column(c).type);
    builders.back().Reserve(rows_.size());
  }
  for (const Row& r : rows_) {
    for (size_t c = 0; c < builders.size(); ++c) {
      // Cannot fail: Append/Set/the constructor admit only fitting cells.
      MDE_CHECK(builders[c].AppendValue(r[c]));
    }
  }
  std::vector<std::shared_ptr<const Column>> cols;
  cols.reserve(builders.size());
  for (auto& b : builders) cols.push_back(b.Finish());
  columnar_ = std::make_shared<const ColumnarTable>(schema_, std::move(cols),
                                                    rows_.size());
  return columnar_;
}

Table Table::FromColumnar(std::shared_ptr<const ColumnarTable> cols) {
  MDE_CHECK(cols != nullptr);
  Table t(cols->schema());
  // Tables wrapped from the same immutable blocks share one stamp, so
  // re-wrapping (SimSQL copies deterministic tables into every version)
  // keeps plan feedback applicable across the wraps.
  t.content_version_ = cols->content_version();
  t.columnar_ = std::move(cols);
  return t;
}

std::string Table::ToString(size_t max_rows) const {
  EnsureRows();
  std::ostringstream os;
  os << schema_.ToString() << " [" << rows_.size() << " rows]\n";
  const size_t n = std::min(max_rows, rows_.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < rows_[i].size(); ++j) {
      if (j > 0) os << " | ";
      os << rows_[i][j].ToString();
    }
    os << "\n";
  }
  if (n < rows_.size()) os << "... (" << rows_.size() - n << " more)\n";
  return os.str();
}

}  // namespace mde::table
