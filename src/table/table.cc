#include "table/table.h"

#include <algorithm>
#include <atomic>
#include <sstream>

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

size_t RowView::size() const { return table_->num_columns(); }

Value RowView::operator[](size_t col) const {
  return table_->col(col).ValueAt(row_);
}

Row RowView::ToRow() const {
  Row r;
  CopyTo(&r);
  return r;
}

void RowView::CopyTo(Row* out) const {
  out->resize(size());
  for (size_t c = 0; c < out->size(); ++c) (*out)[c] = (*this)[c];
}

namespace {

/// Rows the blocks of a new table hold before their first reallocation:
/// a table built by Append (a chain step's few rows, say) would otherwise
/// reallocate every block at 1, 2, 4, ... rows.
constexpr size_t kFirstRows = 64;

std::shared_ptr<const ColumnarTable> EmptyColumnar(Schema schema) {
  std::vector<std::shared_ptr<const Column>> cols;
  cols.reserve(schema.num_columns());
  for (const ColumnSpec& c : schema.columns()) {
    ColumnBuilder b(c.type);
    b.Reserve(kFirstRows);
    cols.push_back(b.Finish());
  }
  return std::make_shared<ColumnarTable>(std::move(schema), std::move(cols),
                                         0);
}

}  // namespace

Table::Table(Schema schema) : Table(EmptyColumnar(std::move(schema)), true) {}

Table::Table(Schema schema, const std::vector<Row>& rows)
    : Table(std::move(schema)) {
  for (const Row& r : rows) Append(r);
}

const Schema& Table::schema() const { return columnar_->schema(); }

size_t Table::num_rows() const { return columnar_->num_rows(); }

uint64_t Table::content_version() const {
  return columnar_->content_version();
}

RowView Table::row(size_t i) const {
  MDE_CHECK_LT(i, num_rows());
  return RowView(columnar_.get(), i);
}

ColumnarTable& Table::MutableColumnar() {
  if (!own_columnar_ || columnar_.use_count() != 1) {
    columnar_ = std::make_shared<ColumnarTable>(*columnar_);
    own_columnar_ = true;
  }
  // Allocated non-const just above or by a constructor, and unshared.
  return const_cast<ColumnarTable&>(*columnar_);
}

void Table::Append(const Row& row) {
  stats_.reset();
  MutableColumnar().AppendRow(row);
}

Result<Value> Table::At(size_t row, const std::string& column) const {
  MDE_CHECK_LT(row, num_rows());
  MDE_ASSIGN_OR_RETURN(size_t idx, schema().IndexOf(column));
  return columnar_->col(idx).ValueAt(row);
}

Table Table::FromColumnar(std::shared_ptr<const ColumnarTable> cols) {
  MDE_CHECK(cols != nullptr);
  // Tables wrapped from the same immutable blocks share one stamp, so
  // re-wrapping (SimSQL copies deterministic tables into every version)
  // keeps plan feedback applicable across the wraps.
  return Table(std::move(cols), false);
}

std::string Table::ToString(size_t max_rows) const {
  std::ostringstream os;
  const size_t total = num_rows();
  os << schema().ToString() << " [" << total << " rows]\n";
  const size_t n = std::min(max_rows, total);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < schema().num_columns(); ++j) {
      if (j > 0) os << " | ";
      os << columnar_->col(j).ValueAt(i).ToString();
    }
    os << "\n";
  }
  if (n < total) os << "... (" << total - n << " more)\n";
  return os.str();
}

}  // namespace mde::table
