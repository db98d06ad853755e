#include "table/columnar.h"

#include <algorithm>
#include <cassert>

#include "obs/mem.h"
#include "util/check.h"

namespace mde::table {

namespace {

/// Sets bit i of a packed bitmap sized for `n` bits.
void SetBit(AlignedVector<uint64_t>* bits, size_t i) {
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

/// Debug-only check that a finished block's storage honours the 64-byte
/// alignment contract the SIMD kernels assume for cache-line-aligned
/// chunk starts. Compiled out under NDEBUG.
void AssertColumnAligned(const Column& c) {
#ifndef NDEBUG
  assert(c.i64.empty() || IsAligned(c.i64.data(), 64));
  assert(c.f64.empty() || IsAligned(c.f64.data(), 64));
  assert(c.b8.empty() || IsAligned(c.b8.data(), 64));
  assert(c.codes.empty() || IsAligned(c.codes.data(), 64));
  assert(c.valid.empty() || IsAligned(c.valid.data(), 64));
#else
  (void)c;
#endif
}

}  // namespace

Value Column::ValueAt(size_t i) const {
  if (!IsValid(i)) return Value();
  switch (type) {
    case DataType::kInt64:
      return Value(i64[i]);
    case DataType::kDouble:
      return Value(f64[i]);
    case DataType::kBool:
      return Value(b8[i] != 0);
    case DataType::kString:
      return Value((*dict)[codes[i]]);
    case DataType::kNull:
      return Value();
  }
  return Value();
}

ColumnBuilder::ColumnBuilder(DataType type) {
  col_.type = type;
  if (type == DataType::kString) {
    col_.dict = std::make_shared<std::vector<std::string>>();
  }
}

void ColumnBuilder::Reserve(size_t n) {
  switch (col_.type) {
    case DataType::kInt64:
      col_.i64.reserve(n);
      break;
    case DataType::kDouble:
      col_.f64.reserve(n);
      break;
    case DataType::kBool:
      col_.b8.reserve(n);
      break;
    case DataType::kString:
      col_.codes.reserve(n);
      break;
    case DataType::kNull:
      break;
  }
}

namespace {

// The append code proper, over a column its caller holds exclusively:
// ColumnBuilder's own, or an unshared block of a Table (through
// ColumnarTable::AppendRow).

/// Counts row col->size as valid. The bitmap exists only once the column
/// has held a null (empty = every row valid).
void MarkValid(Column* col) {
  if (!col->valid.empty()) {
    if ((col->size >> 6) >= col->valid.size()) col->valid.push_back(0);
    SetBit(&col->valid, col->size);
  }
  ++col->size;
}

void AppendNullTo(Column* col) {
  switch (col->type) {
    case DataType::kInt64:
      col->i64.push_back(0);
      break;
    case DataType::kDouble:
      col->f64.push_back(0.0);
      break;
    case DataType::kBool:
      col->b8.push_back(0);
      break;
    case DataType::kString:
      col->codes.push_back(0);
      break;
    case DataType::kNull:
      break;
  }
  if (col->valid.empty()) {
    // First null: backfill the bitmap with "valid" for every prior row.
    col->valid.assign((std::max<size_t>(col->size + 1, 64) + 63) / 64, 0);
    for (size_t i = 0; i < col->size; ++i) SetBit(&col->valid, i);
  } else if ((col->size >> 6) >= col->valid.size()) {
    col->valid.push_back(0);
  }
  ++col->size;
}

template <typename T>
void AppendTo(Column* col, DataType type, AlignedVector<T>* block, T v) {
  MDE_CHECK(col->type == type);
  block->push_back(v);
  MarkValid(col);
}

/// `interned` indexes a prefix of the column's dictionary (dictionaries
/// only grow and are deduplicated) and catches up here; a dictionary
/// still shared with another column is copied before it grows.
void AppendStringTo(Column* col, InternIndex* interned, const std::string& v) {
  MDE_CHECK(col->type == DataType::kString);
  if (col->dict == nullptr) {
    col->dict = std::make_shared<std::vector<std::string>>();
  }
  const std::vector<std::string>& dict = *col->dict;
  if (interned->size() > dict.size()) interned->clear();
  for (size_t k = interned->size(); k < dict.size(); ++k) {
    interned->emplace(dict[k], static_cast<uint32_t>(k));
  }
  auto it = interned->find(v);
  uint32_t code;
  if (it != interned->end()) {
    code = it->second;
  } else {
    if (col->dict.use_count() != 1) {
      col->dict = std::make_shared<std::vector<std::string>>(dict);
    }
    // Every dictionary is allocated non-const (here and in ColumnBuilder),
    // and this column holds the only reference to it.
    auto& grow = const_cast<std::vector<std::string>&>(*col->dict);
    code = static_cast<uint32_t>(grow.size());
    grow.push_back(v);
    interned->emplace(v, code);
  }
  AppendTo(col, DataType::kString, &col->codes, code);
}

/// False (and nothing appended) on a non-null cell of another type.
bool AppendValueTo(Column* col, InternIndex* interned, const Value& v) {
  if (v.is_null()) {
    AppendNullTo(col);
    return true;
  }
  if (v.type() != col->type) return false;
  switch (col->type) {
    case DataType::kInt64:
      AppendTo(col, DataType::kInt64, &col->i64, v.AsInt());
      return true;
    case DataType::kDouble:
      AppendTo(col, DataType::kDouble, &col->f64, v.AsDouble());
      return true;
    case DataType::kBool:
      AppendTo<uint8_t>(col, DataType::kBool, &col->b8, v.AsBool());
      return true;
    case DataType::kString:
      AppendStringTo(col, interned, v.AsString());
      return true;
    case DataType::kNull:
      return false;
  }
  return false;
}

}  // namespace

void ColumnBuilder::AppendNull() { AppendNullTo(&col_); }

void ColumnBuilder::AppendInt64(int64_t v) {
  AppendTo(&col_, DataType::kInt64, &col_.i64, v);
}

void ColumnBuilder::AppendDouble(double v) {
  AppendTo(&col_, DataType::kDouble, &col_.f64, v);
}

void ColumnBuilder::AppendBool(bool v) {
  AppendTo<uint8_t>(&col_, DataType::kBool, &col_.b8, v);
}

void ColumnBuilder::AppendString(const std::string& v) {
  AppendStringTo(&col_, &interned_, v);
}

bool ColumnBuilder::AppendValue(const Value& v) {
  return AppendValueTo(&col_, &interned_, v);
}

namespace {

/// Directly-owned footprint of one column block. The string dictionary is
/// excluded: it is shared across columns/tables by shared_ptr, so charging
/// it to every holder would overstate the pool.
uint64_t ApproxColumnBytes(const Column& c) {
  uint64_t b = sizeof(Column);
  b += c.i64.capacity() * sizeof(int64_t);
  b += c.f64.capacity() * sizeof(double);
  b += c.b8.capacity() * sizeof(uint8_t);
  b += c.codes.capacity() * sizeof(uint32_t);
  b += c.valid.capacity() * sizeof(uint64_t);
  return b;
}

obs::MemPool& ColumnarPool() {
  // Resolved once; each event is a relaxed fetch_add.
  static obs::MemPool pool("table.columnar");
  return pool;
}

/// Deleter of an accounted block: frees what the block was charged, which
/// Table's append path raises as the block grows.
struct BlockCharge {
  std::shared_ptr<Column> col;
  uint64_t bytes;
  void operator()(const Column*) {
    ColumnarPool().RecordFree(bytes);
    col.reset();
  }
};

}  // namespace

std::shared_ptr<const Column> AccountColumnBlock(
    std::shared_ptr<Column> col) {
  // Account the block to the table.columnar pool for exactly as long as any
  // owner keeps it alive: alloc here, free in the shared_ptr deleter.
  const uint64_t bytes = ApproxColumnBytes(*col);
  ColumnarPool().RecordAlloc(bytes);
  const Column* raw = col.get();
  return std::shared_ptr<const Column>(raw, BlockCharge{std::move(col), bytes});
}

std::shared_ptr<const Column> ColumnBuilder::Finish() {
  AssertColumnAligned(col_);
  return AccountColumnBlock(std::make_shared<Column>(std::move(col_)));
}

ColumnarTable::ColumnarTable(Schema schema,
                             std::vector<std::shared_ptr<const Column>> cols,
                             size_t num_rows)
    : schema_(std::move(schema)), cols_(std::move(cols)), num_rows_(num_rows) {
  MDE_CHECK_EQ(cols_.size(), schema_.num_columns());
  for (const auto& c : cols_) {
    MDE_CHECK(c != nullptr);
    MDE_CHECK_EQ(c->size, num_rows_);
  }
}

void ColumnarTable::AppendRow(const Row& row) {
  MDE_CHECK_EQ(row.size(), cols_.size());
  interned_.resize(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) {
    if (cols_[c].use_count() != 1) {
      cols_[c] = AccountColumnBlock(std::make_shared<Column>(*cols_[c]));
    }
    // Blocks are allocated non-const (make_shared<Column>), and this table
    // holds the only reference to this one.
    Column& col = const_cast<Column&>(*cols_[c]);
    const uint64_t before = ApproxColumnBytes(col);
    MDE_CHECK_MSG(AppendValueTo(&col, &interned_[c], row[c]),
                  "cell type differs from declared column type");
    // Growth is charged to the pool and to the block's deleter, so the free
    // matches; a block built outside AccountColumnBlock stays uncharged.
    const uint64_t grown = ApproxColumnBytes(col) - before;
    if (grown == 0) continue;
    if (BlockCharge* charge = std::get_deleter<BlockCharge>(cols_[c])) {
      ColumnarPool().RecordAlloc(grown);
      charge->bytes += grown;
    }
  }
  ++num_rows_;
  content_version_ = NextContentVersion();
}

ColumnarTableBuilder::ColumnarTableBuilder(Schema schema)
    : schema_(std::move(schema)) {
  builders_.reserve(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    builders_.emplace_back(schema_.column(c).type);
  }
  prebuilt_.resize(schema_.num_columns());
}

void ColumnarTableBuilder::Reserve(size_t rows) {
  for (auto& b : builders_) b.Reserve(rows);
}

void ColumnarTableBuilder::SetColumn(size_t i,
                                     std::shared_ptr<const Column> col) {
  MDE_CHECK_LT(i, prebuilt_.size());
  MDE_CHECK(col != nullptr && col->type == schema_.column(i).type);
  prebuilt_[i] = std::move(col);
}

Result<std::shared_ptr<const ColumnarTable>> ColumnarTableBuilder::Finish() {
  std::vector<std::shared_ptr<const Column>> cols(builders_.size());
  size_t rows = 0;
  for (size_t c = 0; c < builders_.size(); ++c) {
    cols[c] = prebuilt_[c] != nullptr ? prebuilt_[c] : builders_[c].Finish();
    if (c == 0) {
      rows = cols[c]->size;
    } else if (cols[c]->size != rows) {
      return Status::InvalidArgument(
          "ColumnarTableBuilder: columns have unequal lengths");
    }
  }
  return std::make_shared<const ColumnarTable>(schema_, std::move(cols), rows);
}

}  // namespace mde::table
