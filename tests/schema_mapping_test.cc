#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "table/schema_mapping.h"

namespace mde::table {
namespace {

Schema SourceSchema() {
  return Schema({{"id", DataType::kInt64},
                 {"temp_f", DataType::kDouble},
                 {"city", DataType::kString}});
}

Table SourceTable() {
  Table t{SourceSchema()};
  t.Append({Value(int64_t{1}), Value(212.0), Value("sj")});
  t.Append({Value(int64_t{2}), Value(32.0), Value("ny")});
  return t;
}

TEST(SchemaMappingTest, CopyCastConstantComputed) {
  Schema target({{"pid", DataType::kInt64},
                 {"temp_c", DataType::kDouble},
                 {"source_model", DataType::kString},
                 {"id_as_double", DataType::kDouble}});
  using CM = SchemaMapping::ColumnMapping;
  std::vector<CM> mappings;
  mappings.push_back({"pid", CM::Kind::kCopy, "id", {}, nullptr});
  mappings.push_back({"temp_c", CM::Kind::kComputed, "", {},
                      [](const Row& r) {
                        return Value((r[1].AsDouble() - 32.0) * 5.0 / 9.0);
                      }});
  mappings.push_back(
      {"source_model", CM::Kind::kConstant, "", Value("weather-v2"),
       nullptr});
  mappings.push_back({"id_as_double", CM::Kind::kCast, "id", {}, nullptr});

  auto mapping = SchemaMapping::Compile(SourceSchema(), target, mappings);
  ASSERT_TRUE(mapping.ok());
  auto out = mapping.value().Apply(SourceTable());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().num_rows(), 2u);
  EXPECT_EQ(out.value().row(0)[0].AsInt(), 1);
  EXPECT_NEAR(out.value().row(0)[1].AsDouble(), 100.0, 1e-12);
  EXPECT_NEAR(out.value().row(1)[1].AsDouble(), 0.0, 1e-12);
  EXPECT_EQ(out.value().row(0)[2].AsString(), "weather-v2");
  EXPECT_DOUBLE_EQ(out.value().row(1)[3].AsDouble(), 2.0);
}

TEST(SchemaMappingTest, RejectsUnmappedTarget) {
  Schema target({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  using CM = SchemaMapping::ColumnMapping;
  auto m = SchemaMapping::Compile(
      SourceSchema(), target, {{"a", CM::Kind::kCopy, "id", {}, nullptr}});
  EXPECT_FALSE(m.ok());
}

TEST(SchemaMappingTest, RejectsDoubleMapping) {
  Schema target({{"a", DataType::kInt64}});
  using CM = SchemaMapping::ColumnMapping;
  auto m = SchemaMapping::Compile(
      SourceSchema(), target,
      {{"a", CM::Kind::kCopy, "id", {}, nullptr},
       {"a", CM::Kind::kConstant, "", Value(int64_t{5}), nullptr}});
  EXPECT_FALSE(m.ok());
}

TEST(SchemaMappingTest, RejectsTypeMismatches) {
  using CM = SchemaMapping::ColumnMapping;
  // Copy string into int.
  Schema t1({{"a", DataType::kInt64}});
  EXPECT_FALSE(SchemaMapping::Compile(
                   SourceSchema(), t1,
                   {{"a", CM::Kind::kCopy, "city", {}, nullptr}})
                   .ok());
  // Cast string.
  EXPECT_FALSE(SchemaMapping::Compile(
                   SourceSchema(), t1,
                   {{"a", CM::Kind::kCast, "city", {}, nullptr}})
                   .ok());
  // Constant of wrong type.
  EXPECT_FALSE(SchemaMapping::Compile(
                   SourceSchema(), t1,
                   {{"a", CM::Kind::kConstant, "", Value(1.5), nullptr}})
                   .ok());
}

TEST(SchemaMappingTest, ComputedTypeCheckedAtApply) {
  Schema target({{"a", DataType::kInt64}});
  using CM = SchemaMapping::ColumnMapping;
  auto m = SchemaMapping::Compile(
      SourceSchema(), target,
      {{"a", CM::Kind::kComputed, "", {},
        [](const Row&) { return Value("wrong type"); }}});
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m.value().Apply(SourceTable()).ok());
}

TEST(SchemaMappingTest, RejectsForeignSourceTable) {
  Schema target({{"a", DataType::kInt64}});
  using CM = SchemaMapping::ColumnMapping;
  auto m = SchemaMapping::Compile(
      SourceSchema(), target, {{"a", CM::Kind::kCopy, "id", {}, nullptr}});
  ASSERT_TRUE(m.ok());
  Table other{Schema({{"x", DataType::kInt64}})};
  EXPECT_FALSE(m.value().Apply(other).ok());
}

TEST(SchemaMappingTest, CastRoundTripTruncates) {
  Schema target({{"i", DataType::kInt64}});
  using CM = SchemaMapping::ColumnMapping;
  auto m = SchemaMapping::Compile(
      SourceSchema(), target,
      {{"i", CM::Kind::kCast, "temp_f", {}, nullptr}});
  ASSERT_TRUE(m.ok());
  auto out = m.value().Apply(SourceTable());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().row(0)[0].AsInt(), 212);
}

TEST(SchemaMappingTest, CastToInt64RejectsOutOfRange) {
  // A double outside [-2^63, 2^63), or NaN, has no int64 value; the cast
  // reports it instead of invoking undefined behaviour.
  const Schema source({{"x", DataType::kDouble}});
  const Schema target({{"i", DataType::kInt64}});
  using CM = SchemaMapping::ColumnMapping;
  auto m = SchemaMapping::Compile(source, target,
                                  {{"i", CM::Kind::kCast, "x", {}, nullptr}});
  ASSERT_TRUE(m.ok());
  auto cast = [&](double x) {
    Table t{source};
    t.Append({Value(x)});
    return m.value().Apply(t);
  };
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), 1e300, -1e300,
                     9.3e18, 0x1p63}) {
    auto out = cast(bad);
    ASSERT_FALSE(out.ok()) << bad;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(cast(-0x1p63).value().row(0)[0].AsInt(),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(cast(9.2e18).value().row(0)[0].AsInt(),
            int64_t{9200000000000000000});
  EXPECT_EQ(cast(-2.7).value().row(0)[0].AsInt(), -2);
}

}  // namespace
}  // namespace mde::table
