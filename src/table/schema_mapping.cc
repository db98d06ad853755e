#include "table/schema_mapping.h"

namespace mde::table {

Result<SchemaMapping> SchemaMapping::Compile(
    const Schema& source_schema, const Schema& target_schema,
    std::vector<ColumnMapping> mappings) {
  std::vector<CompiledColumn> compiled(target_schema.num_columns());
  std::vector<bool> mapped(target_schema.num_columns(), false);
  for (ColumnMapping& m : mappings) {
    MDE_ASSIGN_OR_RETURN(size_t t_idx, target_schema.IndexOf(m.target));
    if (mapped[t_idx]) {
      return Status::InvalidArgument("target column mapped twice: " +
                                     m.target);
    }
    mapped[t_idx] = true;
    CompiledColumn& c = compiled[t_idx];
    c.kind = m.kind;
    c.target_type = target_schema.column(t_idx).type;
    switch (m.kind) {
      case ColumnMapping::Kind::kCopy: {
        MDE_ASSIGN_OR_RETURN(c.source_index,
                             source_schema.IndexOf(m.source));
        if (source_schema.column(c.source_index).type != c.target_type) {
          return Status::InvalidArgument(
              "copy type mismatch for target column " + m.target +
              " (use kCast for numeric conversions)");
        }
        break;
      }
      case ColumnMapping::Kind::kCast: {
        MDE_ASSIGN_OR_RETURN(c.source_index,
                             source_schema.IndexOf(m.source));
        const DataType src = source_schema.column(c.source_index).type;
        const bool numeric_pair =
            (src == DataType::kInt64 || src == DataType::kDouble) &&
            (c.target_type == DataType::kInt64 ||
             c.target_type == DataType::kDouble);
        if (!numeric_pair) {
          return Status::InvalidArgument(
              "kCast supports numeric columns only: " + m.target);
        }
        break;
      }
      case ColumnMapping::Kind::kConstant: {
        if (m.constant.type() != c.target_type && !m.constant.is_null()) {
          return Status::InvalidArgument("constant type mismatch: " +
                                         m.target);
        }
        c.constant = std::move(m.constant);
        break;
      }
      case ColumnMapping::Kind::kComputed: {
        if (!m.compute) {
          return Status::InvalidArgument("kComputed requires an expression");
        }
        c.compute = std::move(m.compute);
        break;
      }
    }
  }
  for (size_t t = 0; t < target_schema.num_columns(); ++t) {
    if (!mapped[t]) {
      return Status::InvalidArgument("target column unmapped: " +
                                     target_schema.column(t).name);
    }
  }
  return SchemaMapping(source_schema, target_schema, std::move(compiled));
}

Result<Table> SchemaMapping::Apply(const Table& source) const {
  if (!(source.schema() == source_)) {
    return Status::InvalidArgument(
        "source table does not match the compiled source schema");
  }
  Table out(target_);
  Row row;  // scratch: each source row is boxed once
  for (size_t r = 0; r < source.num_rows(); ++r) {
    source.row(r).CopyTo(&row);
    Row target_row;
    target_row.reserve(columns_.size());
    for (const CompiledColumn& c : columns_) {
      switch (c.kind) {
        case ColumnMapping::Kind::kCopy:
          target_row.push_back(row[c.source_index]);
          break;
        case ColumnMapping::Kind::kCast: {
          const Value& v = row[c.source_index];
          if (v.is_null()) {
            target_row.emplace_back();
          } else if (c.target_type == DataType::kDouble) {
            target_row.emplace_back(v.AsDouble());
          } else {
            // Truncates toward zero; defined only on [-2^63, 2^63), and a
            // NaN fails both bounds.
            const double d = v.AsDouble();
            if (!(d >= -0x1p63 && d < 0x1p63)) {
              return Status::InvalidArgument(
                  "cast to int64 out of range: " + v.ToString());
            }
            target_row.emplace_back(static_cast<int64_t>(d));
          }
          break;
        }
        case ColumnMapping::Kind::kConstant:
          target_row.push_back(c.constant);
          break;
        case ColumnMapping::Kind::kComputed: {
          Value v = c.compute(row);
          if (!v.is_null() && v.type() != c.target_type) {
            return Status::InvalidArgument(
                "computed expression produced the wrong type");
          }
          target_row.push_back(std::move(v));
          break;
        }
      }
    }
    out.Append(std::move(target_row));
  }
  return out;
}

}  // namespace mde::table
