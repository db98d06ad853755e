/// End-to-end reproduction of the MCDB-R threshold query from Section 2.1:
/// "Which regions will see more than a 2% decline in sales with at least
/// 50% probability?" — regions with stochastic per-store sales, evaluated
/// with the tuple-bundle executor and the grouped threshold estimator.

#include <cmath>

#include <gtest/gtest.h>

#include "mcdb/bundle.h"
#include "mcdb/estimators.h"
#include "mcdb/mcdb.h"
#include "mcdb/vg_function.h"

namespace mde::mcdb {
namespace {

using table::DataType;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

/// Stores table: region + per-store baseline sales + a drift parameter.
/// Sales next quarter ~ Normal(baseline * (1 + drift), noise). The WEST
/// region is given a strongly negative drift, EAST a flat one.
MonteCarloDb MakeSalesDb(size_t stores_per_region) {
  MonteCarloDb db;
  Table stores{Schema({{"sid", DataType::kInt64},
                       {"region", DataType::kString},
                       {"baseline", DataType::kDouble},
                       {"drift", DataType::kDouble}})};
  Rng rng(3);
  int64_t sid = 0;
  for (const char* region : {"EAST", "WEST", "NORTH"}) {
    const double drift = region[0] == 'W' ? -0.05
                         : region[0] == 'N' ? -0.021
                                            : 0.0;
    for (size_t s = 0; s < stores_per_region; ++s) {
      stores.Append({Value(sid++), Value(region),
                     Value(100.0 + 10.0 * rng.NextDouble()),
                     Value(drift)});
    }
  }
  EXPECT_TRUE(db.AddTable("STORES", std::move(stores)).ok());

  StochasticTableSpec sales;
  sales.name = "NEXT_SALES";
  sales.outer_table = "STORES";
  sales.vg = std::make_shared<NormalVg>();
  sales.param_binder = [](const Row& store, const DatabaseInstance&)
      -> Result<Row> {
    const double mean = store[2].AsDouble() * (1.0 + store[3].AsDouble());
    return Row{Value(mean), Value(1.5)};
  };
  sales.output_schema = Schema({{"sid", DataType::kInt64},
                                {"region", DataType::kString},
                                {"sales", DataType::kDouble}});
  sales.projector = [](const Row& store, const Row& vg) {
    return Row{store[0], store[1], vg[0]};
  };
  EXPECT_TRUE(db.AddStochasticTable(std::move(sales)).ok());
  return db;
}

TEST(ThresholdQueryTest, RegionsDecliningWithHighProbability) {
  MonteCarloDb db = MakeSalesDb(40);
  const size_t reps = 300;
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "sales", reps, 11)
          .value();
  // Grouped per-repetition totals.
  auto grouped = bundles.GroupSum("region", "sales");
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped.value().size(), 3u);

  // Baselines per region (deterministic).
  const table::Table* stores = db.FindTable("STORES");
  std::map<std::string, double> baseline_total;
  for (size_t i = 0; i < stores->num_rows(); ++i) {
    const table::RowView r = stores->row(i);
    baseline_total[r[1].AsString()] += r[2].AsDouble();
  }

  // Convert to per-repetition decline fractions; ask which regions decline
  // > 2% with >= 50% probability.
  std::vector<GroupSamples> declines;
  for (const auto& g : grouped.value()) {
    GroupSamples d;
    d.group = g.group;
    const double base = baseline_total.at(g.group);
    for (double total : g.sums) {
      d.samples.push_back((base - total) / base);  // decline fraction
    }
    declines.push_back(std::move(d));
  }
  auto hits = GroupsExceedingThreshold(declines, 0.02, 0.5);
  ASSERT_TRUE(hits.ok());
  // WEST (-5% drift) certainly; NORTH (-2.1%) sits just past the line;
  // EAST (flat) must not appear.
  ASSERT_FALSE(hits.value().empty());
  for (const auto& region : hits.value()) {
    EXPECT_NE(region, "EAST");
  }
  EXPECT_NE(std::find(hits.value().begin(), hits.value().end(), "WEST"),
            hits.value().end());
}

TEST(ThresholdQueryTest, GroupSumMatchesUngroupedTotal) {
  MonteCarloDb db = MakeSalesDb(10);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "sales", 50, 13)
          .value();
  auto grouped = bundles.GroupSum("region", "sales").value();
  auto total = bundles.AggregateSum("sales").value();
  for (size_t rep = 0; rep < 50; ++rep) {
    double sum = 0.0;
    for (const auto& g : grouped) sum += g.sums[rep];
    EXPECT_NEAR(sum, total[rep], 1e-9);
  }
}

TEST(ThresholdQueryTest, GroupSumUnknownColumnsError) {
  MonteCarloDb db = MakeSalesDb(5);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "sales", 10, 17)
          .value();
  EXPECT_FALSE(bundles.GroupSum("nope", "sales").ok());
  EXPECT_FALSE(bundles.GroupSum("region", "nope").ok());
}

}  // namespace
}  // namespace mde::mcdb
