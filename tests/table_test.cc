#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "reference_ops.h"
#include "table/columnar.h"
#include "table/ops.h"
#include "table/query.h"
#include "table/table.h"
#include "table/value.h"

namespace mde::table {
namespace {

Table MakePeople() {
  Table t{Schema({{"pid", DataType::kInt64},
                  {"age", DataType::kInt64},
                  {"city", DataType::kString},
                  {"income", DataType::kDouble}})};
  t.Append({Value(int64_t{1}), Value(int64_t{3}), Value("NYC"), Value(0.0)});
  t.Append({Value(int64_t{2}), Value(int64_t{25}), Value("NYC"),
            Value(55000.0)});
  t.Append({Value(int64_t{3}), Value(int64_t{40}), Value("SF"),
            Value(90000.0)});
  t.Append({Value(int64_t{4}), Value(int64_t{4}), Value("SF"), Value(0.0)});
  t.Append({Value(int64_t{5}), Value(int64_t{67}), Value("NYC"),
            Value(30000.0)});
  return t;
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).type(), DataType::kInt64);
  EXPECT_EQ(Value(2.5).type(), DataType::kDouble);
  EXPECT_EQ(Value("x").type(), DataType::kString);
  EXPECT_EQ(Value(true).type(), DataType::kBool);
  EXPECT_DOUBLE_EQ(Value(int64_t{5}).AsDouble(), 5.0);  // numeric coercion
}

TEST(ValueTest, NullNeverEquals) {
  EXPECT_FALSE(Value().Equals(Value()));
  EXPECT_FALSE(Value().Equals(Value(1)));
}

TEST(ValueTest, CrossNumericEquality) {
  EXPECT_TRUE(Value(int64_t{3}).Equals(Value(3.0)));
  EXPECT_FALSE(Value(int64_t{3}).Equals(Value(3.5)));
}

TEST(ValueTest, OrderingAcrossTypes) {
  EXPECT_TRUE(Value(int64_t{1}).LessThan(Value(2.5)));
  EXPECT_TRUE(Value(false).LessThan(Value(true)));
  EXPECT_TRUE(Value("a").LessThan(Value("b")));
  EXPECT_TRUE(Value(int64_t{99}).LessThan(Value("a")));  // numeric < string
}

TEST(SchemaTest, LookupAndDuplicates) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(s.IndexOf("b").value(), 1u);
  EXPECT_FALSE(s.IndexOf("c").ok());
  EXPECT_TRUE(s.Has("a"));
}

TEST(SchemaTest, ConcatPrefixesDuplicates) {
  Schema a({{"id", DataType::kInt64}, {"x", DataType::kDouble}});
  Schema b({{"id", DataType::kInt64}, {"y", DataType::kDouble}});
  Schema c = Schema::Concat(a, b, "r.");
  EXPECT_EQ(c.num_columns(), 4u);
  EXPECT_TRUE(c.Has("r.id"));
  EXPECT_TRUE(c.Has("y"));
}

TEST(FilterTest, ColumnCompare) {
  Table t = MakePeople();
  auto pred = RowCompare(t.schema(), "age", CmpOp::kLe, int64_t{4});
  ASSERT_TRUE(pred.ok());
  Table kids = Filter(t, pred.value());
  EXPECT_EQ(kids.num_rows(), 2u);
}

TEST(FilterTest, Combinators) {
  Table t = MakePeople();
  auto young = RowCompare(t.schema(), "age", CmpOp::kLt, int64_t{30});
  auto nyc = RowCompare(t.schema(), "city", CmpOp::kEq, "NYC");
  ASSERT_TRUE(young.ok() && nyc.ok());
  EXPECT_EQ(Filter(t, And(young.value(), nyc.value())).num_rows(), 2u);
  EXPECT_EQ(Filter(t, Or(young.value(), nyc.value())).num_rows(), 4u);
  EXPECT_EQ(Filter(t, Not(nyc.value())).num_rows(), 2u);
}

TEST(ProjectTest, SelectsAndErrors) {
  Table t = MakePeople();
  auto proj = Project(t, {"pid", "city"});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj.value().schema().num_columns(), 2u);
  EXPECT_EQ(proj.value().num_rows(), 5u);
  EXPECT_FALSE(Project(t, {"nope"}).ok());
}

TEST(HashJoinTest, MatchesPairs) {
  Table people = MakePeople();
  Table infected{Schema({{"pid", DataType::kInt64}})};
  infected.Append({Value(int64_t{1})});
  infected.Append({Value(int64_t{3})});
  infected.Append({Value(int64_t{99})});  // no match
  auto joined = HashJoin(people, infected, {"pid"}, {"pid"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().num_rows(), 2u);
}

TEST(HashJoinTest, DuplicateKeysProduceCross) {
  Table a{Schema({{"k", DataType::kInt64}})};
  a.Append({Value(int64_t{1})});
  a.Append({Value(int64_t{1})});
  Table b = a;
  auto joined = HashJoin(a, b, {"k"}, {"k"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().num_rows(), 4u);
}

TEST(HashJoinTest, NullKeysNeverJoin) {
  Table a{Schema({{"k", DataType::kInt64}})};
  a.Append({Value()});
  Table b = a;
  auto joined = HashJoin(a, b, {"k"}, {"k"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().num_rows(), 0u);
}

TEST(GroupByTest, AggregatesPerGroup) {
  Table t = MakePeople();
  auto g = GroupBy(t, {"city"},
                   {{AggKind::kCount, "", "n"},
                    {AggKind::kAvg, "income", "avg_inc"},
                    {AggKind::kMax, "age", "max_age"}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_rows(), 2u);
  // NYC group: 3 people, incomes 0, 55000, 30000.
  auto sorted = OrderBy(g.value(), {"city"});
  ASSERT_TRUE(sorted.ok());
  const RowView nyc = sorted.value().row(0);
  EXPECT_EQ(nyc[0].AsString(), "NYC");
  EXPECT_EQ(nyc[1].AsInt(), 3);
  EXPECT_NEAR(nyc[2].AsDouble(), 85000.0 / 3.0, 1e-9);
}

TEST(GroupByTest, GlobalAggregate) {
  Table t = MakePeople();
  auto g = GroupBy(t, {}, {{AggKind::kSum, "income", "total"}});
  ASSERT_TRUE(g.ok());
  ASSERT_EQ(g.value().num_rows(), 1u);
  EXPECT_DOUBLE_EQ(g.value().row(0)[0].AsDouble(), 175000.0);
}

TEST(GroupByTest, RejectsNonNumericAggregate) {
  Table t = MakePeople();
  EXPECT_FALSE(GroupBy(t, {}, {{AggKind::kSum, "city", "x"}}).ok());
}

TEST(OrderByTest, MultiKeyAndDescending) {
  Table t = MakePeople();
  auto sorted = OrderBy(t, {"city", "age"}, {false, true});
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted.value().row(0)[2].AsString(), "NYC");
  EXPECT_EQ(sorted.value().row(0)[1].AsInt(), 67);  // oldest NYC first
}

TEST(UnionDistinctLimitTest, Basics) {
  Table t = MakePeople();
  Table u = t;
  for (const Row& r : Rows(t)) u.Append(r);
  EXPECT_EQ(u.num_rows(), 10u);
  EXPECT_EQ(Distinct(u).num_rows(), 5u);
  EXPECT_EQ(Limit(t, 2).num_rows(), 2u);
}

/// Reads every cell of `t` through row views, At, ToString and the
/// column blocks, folding them into one checksum.
uint64_t ReadEverything(const Table& t) {
  uint64_t h = t.columnar()->num_rows();
  for (size_t i = 0; i < t.num_rows(); ++i) {
    const RowView r = t.row(i);
    h = h * 31 + static_cast<uint64_t>(r[0].AsInt());
    h = h * 31 + (r[1].is_null() ? 7 : r[1].AsString().size());
    auto w = t.At(i, "w");
    h = h * 31 + (w.value().is_null()
                      ? 11
                      : static_cast<uint64_t>(w.value().AsDouble() * 4));
  }
  return h * 31 + t.ToString(5).size();
}

TEST(TableConcurrencyTest, FreshTablesReadFromManyThreads) {
  // Nothing reads either table before the threads start, so a cache that
  // a const member filled on first access would race here (run under TSan).
  const Schema schema({{"id", DataType::kInt64},
                       {"name", DataType::kString},
                       {"w", DataType::kDouble}});
  Table appended{schema};
  ColumnarTableBuilder b{schema};
  for (int64_t i = 0; i < 700; ++i) {
    const Row row = {
        Value(i), i % 11 == 4 ? Value() : Value(i % 3 ? "a" : "bb"),
        i % 7 == 0 ? Value() : Value(0.25 * static_cast<double>(i))};
    appended.Append(row);
    for (size_t c = 0; c < row.size(); ++c) {
      ASSERT_TRUE(b.column(c).AppendValue(row[c]));
    }
  }
  auto cols = b.Finish();
  ASSERT_TRUE(cols.ok());
  const Table wrapped = Table::FromColumnar(std::move(cols).value());

  constexpr size_t kThreads = 8;
  std::vector<uint64_t> got(2 * kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[2 * t] = ReadEverything(appended);
      got[2 * t + 1] = ReadEverything(wrapped);
    });
  }
  for (auto& th : threads) th.join();
  const uint64_t want = ReadEverything(appended);
  EXPECT_EQ(ReadEverything(wrapped), want);
  for (uint64_t h : got) EXPECT_EQ(h, want);
}

TEST(QueryTest, ChainedPipeline) {
  Table t = MakePeople();
  auto result = Query(t)
                    .Where("age", CmpOp::kGe, int64_t{18})
                    .Where("city", CmpOp::kEq, "NYC")
                    .Select({"pid", "income"})
                    .OrderByDesc({"income"})
                    .Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 2u);
  EXPECT_DOUBLE_EQ(result.value().row(0)[1].AsDouble(), 55000.0);
}

TEST(QueryTest, ErrorPoisonsChain) {
  Table t = MakePeople();
  auto result = Query(t).Where("nope", CmpOp::kEq, 1).Select({"pid"}).Execute();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(QueryTest, CountStarScalar) {
  Table t = MakePeople();
  auto n = Query(t).Where("age", CmpOp::kLe, int64_t{4}).CountStar("n")
               .ExecuteScalar();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().AsInt(), 2);
}

TEST(ScalarHelpersTest, SumAvg) {
  Table t = MakePeople();
  auto scalar = [](const Table& in, AggKind kind) {
    return Query(in).GroupByAgg({}, {{kind, "income", "x"}}).ExecuteScalar();
  };
  EXPECT_DOUBLE_EQ(scalar(t, AggKind::kSum).value().AsDouble(), 175000.0);
  EXPECT_DOUBLE_EQ(scalar(t, AggKind::kAvg).value().AsDouble(), 35000.0);
  // A global aggregate over no rows has no groups, so no scalar.
  EXPECT_FALSE(scalar(Table{t.schema()}, AggKind::kAvg).ok());
}

}  // namespace
}  // namespace mde::table
