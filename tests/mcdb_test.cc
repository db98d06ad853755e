#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mcdb/bundle.h"
#include "mcdb/estimators.h"
#include "mcdb/mcdb.h"
#include "mcdb/pregen.h"
#include "mcdb/vg_function.h"
#include "reference_ops.h"
#include "table/query.h"
#include "util/distributions.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace mde::mcdb {
namespace {

using table::CmpOp;
using table::DataType;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

/// Builds the paper's SBP example: PATIENTS plus a single-row SBP_PARAM
/// table holding (mean, std), and the stochastic SBP_DATA spec.
MonteCarloDb MakeSbpDb(double mean, double std, size_t patients) {
  MonteCarloDb db;
  Table p{Schema({{"PID", DataType::kInt64}, {"GENDER", DataType::kString}})};
  for (size_t i = 0; i < patients; ++i) {
    p.Append({Value(static_cast<int64_t>(i)), Value(i % 2 ? "M" : "F")});
  }
  EXPECT_TRUE(db.AddTable("PATIENTS", std::move(p)).ok());
  Table param{Schema({{"MEAN", DataType::kDouble},
                      {"STD", DataType::kDouble}})};
  param.Append({Value(mean), Value(std)});
  EXPECT_TRUE(db.AddTable("SBP_PARAM", std::move(param)).ok());

  StochasticTableSpec spec;
  spec.name = "SBP_DATA";
  spec.outer_table = "PATIENTS";
  spec.vg = std::make_shared<NormalVg>();
  spec.param_binder = [](const Row&, const DatabaseInstance& det)
      -> Result<Row> {
    // WITH SBP AS Normal((SELECT s.MEAN, s.STD FROM SBP_PARAM s)).
    const Table& param = det.at("SBP_PARAM");
    return Row{param.row(0)[0], param.row(0)[1]};
  };
  spec.output_schema = Schema({{"PID", DataType::kInt64},
                               {"GENDER", DataType::kString},
                               {"SBP", DataType::kDouble}});
  spec.projector = [](const Row& outer, const Row& vg) {
    return Row{outer[0], outer[1], vg[0]};
  };
  EXPECT_TRUE(db.AddStochasticTable(std::move(spec)).ok());
  return db;
}

TEST(VgFunctionTest, NormalShape) {
  NormalVg vg;
  Rng rng(1);
  std::vector<Row> out;
  ASSERT_TRUE(vg.Generate({Value(10.0), Value(0.0)}, rng, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][0].AsDouble(), 10.0);  // zero std
  EXPECT_FALSE(vg.Generate({Value(1.0)}, rng, &out).ok());  // arity
}

TEST(VgFunctionTest, PoissonNonNegative) {
  PoissonVg vg;
  Rng rng(2);
  std::vector<Row> out;
  for (int i = 0; i < 100; ++i) {
    out.clear();
    ASSERT_TRUE(vg.Generate({Value(3.0)}, rng, &out).ok());
    EXPECT_GE(out[0][0].AsInt(), 0);
  }
}

TEST(VgFunctionTest, BackwardWalkProducesSteps) {
  BackwardRandomWalkVg vg;
  Rng rng(3);
  std::vector<Row> out;
  ASSERT_TRUE(vg.Generate({Value(100.0), Value(0.001), Value(0.02),
                           Value(int64_t{5})},
                          rng, &out)
                  .ok());
  EXPECT_EQ(out.size(), 5u);
  for (const Row& r : out) EXPECT_GT(r[1].AsDouble(), 0.0);
  EXPECT_EQ(out[0][0].AsInt(), -1);
  EXPECT_EQ(out[4][0].AsInt(), -5);
}

TEST(VgFunctionTest, BayesianDemandRespondsToPrice) {
  BayesianDemandVg vg;
  Rng rng(4);
  // High price should produce lower average demand than low price.
  auto mean_demand = [&](double price) {
    double total = 0;
    std::vector<Row> out;
    for (int i = 0; i < 3000; ++i) {
      out.clear();
      EXPECT_TRUE(vg.Generate({Value(2.0), Value(1.0), Value(20.0),
                               Value(10.0), Value(price), Value(10.0),
                               Value(1.5)},
                              rng, &out)
                      .ok());
      total += static_cast<double>(out[0][0].AsInt());
    }
    return total / 3000;
  };
  EXPECT_GT(mean_demand(5.0), mean_demand(20.0) * 1.5);
}

TEST(McdbTest, InstantiateRealizesStochasticTable) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 50);
  auto inst = db.Instantiate(7, 0);
  ASSERT_TRUE(inst.ok());
  const Table& sbp = inst.value().at("SBP_DATA");
  EXPECT_EQ(sbp.num_rows(), 50u);
  // Values look like draws around 120.
  double mean = table::Query(sbp)
                    .GroupByAgg({}, {{table::AggKind::kAvg, "SBP", "mean"}})
                    .ExecuteScalar()
                    .value()
                    .AsDouble();
  EXPECT_NEAR(mean, 120.0, 10.0);
}

TEST(McdbTest, DifferentRepsDiffer) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 10);
  auto a = db.Instantiate(7, 0);
  auto b = db.Instantiate(7, 1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().at("SBP_DATA").row(0)[2].AsDouble(),
            b.value().at("SBP_DATA").row(0)[2].AsDouble());
}

TEST(McdbTest, SameRepReproducible) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 10);
  auto a = db.Instantiate(7, 3);
  auto b = db.Instantiate(7, 3);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a.value().at("SBP_DATA").row(5)[2].AsDouble(),
                   b.value().at("SBP_DATA").row(5)[2].AsDouble());
}

TEST(McdbTest, DuplicateNamesRejected) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 5);
  Table t{Schema({{"x", DataType::kInt64}})};
  EXPECT_FALSE(db.AddTable("PATIENTS", t).ok());
}

TEST(McdbTest, NaiveMonteCarloEstimatesQueryDistribution) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 200);
  // Query: average SBP over all patients.
  auto query = [](const DatabaseInstance& inst) -> Result<double> {
    MDE_ASSIGN_OR_RETURN(
        table::Value mean,
        table::Query(inst.at("SBP_DATA"))
            .GroupByAgg({}, {{table::AggKind::kAvg, "SBP", "mean"}})
            .ExecuteScalar());
    return mean.AsDouble();
  };
  auto samples = db.RunNaive(query, 50, 11);
  ASSERT_TRUE(samples.ok());
  auto summary = Summarize(samples.value());
  ASSERT_TRUE(summary.ok());
  EXPECT_NEAR(summary.value().mean, 120.0, 1.0);
  // Std error of a 200-patient average with sd 15 is ~1.06.
  EXPECT_NEAR(std::sqrt(summary.value().variance), 15.0 / std::sqrt(200.0),
              0.5);
}

TEST(BundleTest, GenerationShape) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 30);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 64, 13);
  ASSERT_TRUE(bundles.ok());
  EXPECT_EQ(bundles.value().num_rows(), 30u);
  EXPECT_EQ(bundles.value().num_reps(), 64u);
}

TEST(BundleTest, AggregateMatchesNaiveDistribution) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 100);
  const size_t reps = 200;
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 17);
  ASSERT_TRUE(bundles.ok());
  auto sums = bundles.value().AggregateAvg("SBP");
  ASSERT_TRUE(sums.ok());
  EXPECT_EQ(sums.value().size(), reps);
  EXPECT_NEAR(Mean(sums.value()), 120.0, 1.0);
  EXPECT_NEAR(StdDev(sums.value()), 15.0 / std::sqrt(100.0), 0.4);
}

/// Bundles over deterministic columns of every comparison class: PID
/// (int64), W (double, every fifth null) and NAME (string, some null), with
/// one stochastic attribute and a few inactive repetitions.
BundleTable MixedDetBundles(size_t rows, size_t reps) {
  BundleTable t(Schema({{"PID", DataType::kInt64},
                        {"W", DataType::kDouble},
                        {"NAME", DataType::kString}}),
                {"X"}, reps);
  const char* names[] = {"ann", "bob", "cy", "dee"};
  Rng rng(5);
  for (size_t i = 0; i < rows; ++i) {
    BundleTable::BundleRow r;
    r.det = {Value(static_cast<int64_t>(i)),
             i % 5 == 0 ? Value() : Value(0.5 * static_cast<double>(i)),
             i % 7 == 3 ? Value() : Value(names[i % 4])};
    r.stoch.assign(1, std::vector<double>(reps));
    for (double& x : r.stoch[0]) x = rng.NextDouble();
    r.active.assign(reps, 1);
    if (i % 3 == 0) r.active[i % reps] = 0;
    t.Append(std::move(r));
  }
  return t;
}

TEST(BundleTest, FilterDetAppliesOnce) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 40);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 16, 19);
  ASSERT_TRUE(bundles.ok());
  auto pred = table::ColumnCompare(bundles.value().det_schema(), "GENDER",
                                   CmpOp::kEq, "F");
  ASSERT_TRUE(pred.ok());
  BundleTable females = bundles.value().FilterDet(pred.value());
  EXPECT_EQ(females.num_rows(), 20u);

  // Parity with the row semantics of reference_ops' RowCompare, serially
  // and on pools of 1, 2 and 8 threads: nulls never
  // match (not even under kNe), an int64 column compares with a double
  // literal as double, strings compare lexicographically.
  const BundleTable mixed = MixedDetBundles(600, 5);
  const std::vector<table::PlanPredicate> cases = {
      {"W", CmpOp::kGt, Value(100.0)},
      {"W", CmpOp::kNe, Value(50.0)},
      {"PID", CmpOp::kLe, Value(299.5)},
      {"PID", CmpOp::kEq, Value(42.0)},
      {"NAME", CmpOp::kNe, Value("bob")},
      {"NAME", CmpOp::kLt, Value("cy")}};
  for (const table::PlanPredicate& c : cases) {
    const std::string what = c.column + " " + c.literal.ToString();
    auto plan_pred =
        table::ColumnCompare(mixed.det_schema(), c.column, c.op, c.literal);
    auto row_pred =
        table::RowCompare(mixed.det_schema(), c.column, c.op, c.literal);
    ASSERT_TRUE(plan_pred.ok() && row_pred.ok()) << what;
    std::vector<size_t> keep;
    for (size_t i = 0; i < mixed.num_rows(); ++i) {
      if (row_pred.value()(mixed.det_row(i).ToRow())) keep.push_back(i);
    }
    ASSERT_GT(keep.size(), 0u) << what;
    ASSERT_LT(keep.size(), mixed.num_rows()) << what;
    for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{8}}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      BundleTable in = mixed;
      in.set_pool(pool.get());
      const BundleTable out = in.FilterDet(plan_pred.value());
      ASSERT_EQ(out.num_rows(), keep.size()) << what;
      for (size_t j = 0; j < keep.size(); ++j) {
        const BundleTable::BundleRow got = out.row(j);
        const BundleTable::BundleRow want = mixed.row(keep[j]);
        ASSERT_TRUE(got.det == want.det) << what << " row " << j;
        ASSERT_EQ(got.stoch, want.stoch) << what << " row " << j;
        ASSERT_EQ(got.active, want.active) << what << " row " << j;
      }
    }
  }
}

TEST(BundleTest, FilterStochIsPerRepetition) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 50);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 32, 23);
  ASSERT_TRUE(bundles.ok());
  auto high = bundles.value().FilterStoch("SBP", CmpOp::kGt, 120.0);
  ASSERT_TRUE(high.ok());
  auto counts = high.value().AggregateCount();
  // About half the patients exceed the mean in each repetition.
  EXPECT_NEAR(Mean(counts), 25.0, 5.0);
  // Counts vary across repetitions (the per-rep masks differ).
  EXPECT_GT(StdDev(counts), 0.5);
}

/// The determinism contract of the columnar kernels: generation and the
/// whole filter/aggregate pipeline must be BIT-identical for the serial
/// path and for pools of any size. Chunk boundaries (BundleTable::kRowGrain)
/// and the partial-sum combine order are pure functions of the row count,
/// and every row owns its RNG substream, so thread count must not leak into
/// a single bit of the result.
TEST(BundleTest, ParallelExecutionIsBitIdentical) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 700);  // > 2 chunks of 256 rows
  const size_t reps = 100;
  const uint64_t seed = 31;

  auto run = [&](ThreadPool* pool) {
    auto bundles = GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps,
                                   seed, pool);
    EXPECT_TRUE(bundles.ok());
    auto sums = bundles.value().AggregateSum("SBP");
    EXPECT_TRUE(sums.ok());
    auto high = bundles.value().FilterStoch("SBP", CmpOp::kGt, 120.0);
    EXPECT_TRUE(high.ok());
    auto avg = high.value().AggregateAvg("SBP");
    EXPECT_TRUE(avg.ok());
    std::vector<double> out = sums.value();
    out.insert(out.end(), avg.value().begin(), avg.value().end());
    return out;
  };

  const std::vector<double> serial = run(nullptr);
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const std::vector<double> parallel = run(&pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      // EXPECT_EQ, not EXPECT_NEAR: the contract is bitwise.
      EXPECT_EQ(parallel[i], serial[i])
          << "thread count " << threads << " diverged at sample " << i;
    }
  }
}

/// Byte-level copy of a bundle table's storage: every value block, the
/// packed mask words and the deterministic rows.
struct BundleBytes {
  std::vector<std::vector<double>> blocks;
  std::vector<uint64_t> active;
  std::vector<Row> det;
};

BundleBytes Snapshot(const BundleTable& t, size_t num_stoch) {
  BundleBytes s;
  for (size_t k = 0; k < num_stoch; ++k) {
    s.blocks.emplace_back(t.stoch_block(k).begin(), t.stoch_block(k).end());
  }
  s.active.assign(t.active_words().begin(), t.active_words().end());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    s.det.push_back(t.det_row(i).ToRow());
  }
  return s;
}

bool SameBytes(const void* a, const void* b, size_t bytes) {
  return bytes == 0 || std::memcmp(a, b, bytes) == 0;
}

void ExpectSameBytes(const BundleBytes& want, const BundleBytes& got,
                     const std::string& where) {
  ASSERT_EQ(got.blocks.size(), want.blocks.size()) << where;
  for (size_t k = 0; k < want.blocks.size(); ++k) {
    ASSERT_EQ(got.blocks[k].size(), want.blocks[k].size()) << where;
    EXPECT_TRUE(SameBytes(got.blocks[k].data(), want.blocks[k].data(),
                          want.blocks[k].size() * sizeof(double)))
        << where << ": stochastic block " << k;
  }
  ASSERT_EQ(got.active.size(), want.active.size()) << where;
  EXPECT_TRUE(SameBytes(got.active.data(), want.active.data(),
                        want.active.size() * sizeof(uint64_t)))
      << where << ": mask words";
  EXPECT_EQ(got.det, want.det) << where << ": deterministic rows";
}

/// The gathers themselves (not just aggregates over them) are pure copies:
/// a FilterDet keeping about half the rows, a FilterStoch that drops whole
/// rows and a MapStoch produce byte-identical blocks, mask words and
/// deterministic rows serially and on pools of any size. 700 rows is not a
/// multiple of kRowGrain, so every stage ends on a short chunk.
TEST(BundleTest, ParallelGatherIsBitIdentical) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 700);
  // Few repetitions and a high threshold: a row survives FilterStoch only
  // if one of its 3 draws exceeds mean + 2/3 sd, so whole rows drop.
  const size_t reps = 3;
  const uint64_t seed = 43;

  auto run = [&](ThreadPool* pool) {
    std::vector<BundleBytes> stages;
    auto gen = GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps,
                               seed, pool);
    EXPECT_TRUE(gen.ok());
    stages.push_back(Snapshot(gen.value(), 1));
    // GENDER alternates, so the kept rows are scattered.
    auto female = table::ColumnCompare(gen.value().det_schema(), "GENDER",
                                       CmpOp::kEq, "F");
    EXPECT_TRUE(female.ok());
    const BundleTable det = gen.value().FilterDet(female.value());
    EXPECT_GT(det.num_rows(), 250u);
    EXPECT_LT(det.num_rows(), 450u);
    stages.push_back(Snapshot(det, 1));
    auto high = det.FilterStoch("SBP", CmpOp::kGt, 130.0);
    EXPECT_TRUE(high.ok());
    EXPECT_GT(high.value().num_rows(), 0u);
    EXPECT_LT(high.value().num_rows(), det.num_rows());
    stages.push_back(Snapshot(high.value(), 1));
    auto mapped = high.value().MapStoch(
        "SBP_PID", [](const Row& d, const std::vector<double>& s) {
          return s[0] * 0.5 + static_cast<double>(d[0].AsInt());
        });
    EXPECT_TRUE(mapped.ok());
    stages.push_back(Snapshot(mapped.value(), 2));
    return stages;
  };

  const std::vector<BundleBytes> serial = run(nullptr);
  const char* names[] = {"GenerateBundles", "FilterDet", "FilterStoch",
                         "MapStoch"};
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const std::vector<BundleBytes> parallel = run(&pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t s = 0; s < serial.size(); ++s) {
      ExpectSameBytes(serial[s], parallel[s],
                      std::string(names[s]) + " at " +
                          std::to_string(threads) + " threads");
    }
  }
}

/// A parameter binding that fails in a later chunk fails the whole
/// generation: the half-written, uninitialised block is never handed out.
TEST(BundleTest, GenerateReturnsBinderErrorFromLaterChunk) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 700);
  StochasticTableSpec spec = db.stochastic_specs()[0];
  const auto bind = spec.param_binder;
  spec.param_binder = [bind](const Row& outer,
                             const DatabaseInstance& det) -> Result<Row> {
    if (outer[0].AsInt() == 600) {  // chunk 2 of 256-row chunks
      return Status::InvalidArgument("no parameters for PID 600");
    }
    return bind(outer, det);
  };
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    auto bundles = GenerateBundles(db, spec, "SBP", 64, 7, pool.get());
    ASSERT_FALSE(bundles.ok()) << threads << " threads";
    EXPECT_EQ(bundles.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(bundles.status().message(), "no parameters for PID 600");
  }
}

/// Each generated row binds its parameters exactly once: generation reads
/// the registered deterministic tables and realizes no stochastic table
/// beside the bundles, with or without a pre-generation filter.
TEST(BundleTest, ParamBinderRunsOncePerGeneratedRow) {
  const MonteCarloDb base = MakeSbpDb(120.0, 15.0, 700);
  auto binds = std::make_shared<std::atomic<size_t>>(0);
  MonteCarloDb db;
  ASSERT_TRUE(db.AddTable("PATIENTS", *base.FindTable("PATIENTS")).ok());
  ASSERT_TRUE(db.AddTable("SBP_PARAM", *base.FindTable("SBP_PARAM")).ok());
  StochasticTableSpec counted = base.stochastic_specs()[0];
  counted.param_binder = [binds, bind = counted.param_binder](
                             const Row& outer, const DatabaseInstance& det) {
    binds->fetch_add(1, std::memory_order_relaxed);
    return bind(outer, det);
  };
  ASSERT_TRUE(db.AddStochasticTable(std::move(counted)).ok());
  const StochasticTableSpec& spec = db.stochastic_specs()[0];
  for (size_t threads : {0u, 1u, 2u, 8u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    binds->store(0);
    ASSERT_TRUE(GenerateBundles(db, spec, "SBP", 16, 7, pool.get()).ok());
    EXPECT_EQ(binds->load(), 700u) << threads << " threads";

    binds->store(0);
    PregenReport report;
    ASSERT_TRUE(GenerateBundlesWhere(db, spec, "SBP", 16, 7,
                                     {{"GENDER", CmpOp::kEq, Value("F")}},
                                     pool.get(), &report)
                    .ok());
    EXPECT_EQ(report.kept_rows, 350u);
    EXPECT_EQ(binds->load(), 350u) << threads << " threads, pushed down";
  }
}

/// Row materialization round-trips the packed columnar storage.
TEST(BundleTest, RowMaterializesPackedMasks) {
  MonteCarloDb db = MakeSbpDb(120.0, 15.0, 10);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 70, 5);
  ASSERT_TRUE(bundles.ok());
  auto high = bundles.value().FilterStoch("SBP", CmpOp::kGt, 120.0).value();
  ASSERT_GT(high.num_rows(), 0u);
  const auto r0 = high.row(0);
  ASSERT_EQ(r0.active.size(), 70u);
  ASSERT_EQ(r0.stoch.size(), 1u);
  size_t active_count = 0;
  for (size_t rep = 0; rep < 70; ++rep) {
    EXPECT_EQ(r0.active[rep] != 0, high.is_active(0, rep));
    if (r0.active[rep]) {
      ++active_count;
      EXPECT_GT(r0.stoch[0][rep], 120.0);
      EXPECT_EQ(r0.stoch[0][rep], high.stoch_block(0)[rep]);
    }
  }
  EXPECT_GT(active_count, 0u);
  EXPECT_LT(active_count, 70u);
}

TEST(BundleTest, MapStochComputesDerivedAttribute) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 10);
  auto bundles =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", 8, 29);
  ASSERT_TRUE(bundles.ok());
  auto mapped = bundles.value().MapStoch(
      "SBP_SHIFT", [](const Row&, const std::vector<double>& s) {
        return s[0] - 100.0;
      });
  ASSERT_TRUE(mapped.ok());
  auto a = mapped.value().AggregateSum("SBP").value();
  auto b = mapped.value().AggregateSum("SBP_SHIFT").value();
  for (size_t rep = 0; rep < a.size(); ++rep) {
    EXPECT_NEAR(a[rep] - b[rep], 1000.0, 1e-9);  // 10 rows * 100
  }
}

TEST(EstimatorsTest, SummaryFields) {
  std::vector<double> s = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sum = Summarize(s);
  ASSERT_TRUE(sum.ok());
  EXPECT_DOUBLE_EQ(sum.value().mean, 5.5);
  EXPECT_DOUBLE_EQ(sum.value().min, 1);
  EXPECT_DOUBLE_EQ(sum.value().max, 10);
  EXPECT_DOUBLE_EQ(sum.value().median, 5.5);
  EXPECT_FALSE(Summarize({}).ok());
}

TEST(EstimatorsTest, ThresholdProbability) {
  std::vector<double> s;
  for (int i = 1; i <= 100; ++i) s.push_back(i);
  auto est = ThresholdProbability(s, 75.0, 0.95);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est.value().probability, 0.25);
  EXPECT_GT(est.value().half_width, 0.0);
}

TEST(EstimatorsTest, ExtremeQuantileBrackets) {
  Rng rng(31);
  std::vector<double> s;
  for (int i = 0; i < 20000; ++i) s.push_back(SampleNormal(rng, 0, 1));
  auto est = ExtremeQuantile(s, 0.99, 0.95);
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est.value().value, 2.326, 0.1);
  EXPECT_LE(est.value().ci_low, est.value().value);
  EXPECT_GE(est.value().ci_high, est.value().value);
}

TEST(EstimatorsTest, GroupThreshold) {
  std::vector<GroupSamples> groups = {
      {"declines", {0.03, 0.04, 0.05, 0.01, 0.06}},
      {"stable", {0.0, 0.01, 0.0, 0.01, 0.0}},
  };
  // Which groups decline by > 2% with >= 50% probability?
  auto hits = GroupsExceedingThreshold(groups, 0.02, 0.5);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits.value().size(), 1u);
  EXPECT_EQ(hits.value()[0], "declines");
}

// ---------------------------------------------------------------------------
// Pre-generation pushdown (pregen.h): deterministic predicates hoisted
// below VG generation must reproduce generate-then-FilterDet bit for bit —
// same deterministic rows, same sampled doubles, same mask words — for any
// thread count.
// ---------------------------------------------------------------------------

void ExpectBundlesBitIdentical(const BundleTable& a, const BundleTable& b,
                               const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_reps(), b.num_reps()) << what;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    const table::RowView ra = a.det_row(i);
    const table::RowView rb = b.det_row(i);
    ASSERT_EQ(ra.size(), rb.size()) << what;
    for (size_t c = 0; c < ra.size(); ++c) {
      ASSERT_TRUE(ra[c] == rb[c]) << what << ": det row " << i;
    }
  }
  const auto& sa = a.stoch_block(0);
  const auto& sb = b.stoch_block(0);
  ASSERT_EQ(sa.size(), sb.size()) << what;
  if (!sa.empty()) {
    EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(double)),
              0)
        << what << ": stochastic blocks differ";
  }
  const auto& wa = a.active_words();
  const auto& wb = b.active_words();
  ASSERT_EQ(wa.size(), wb.size()) << what;
  for (size_t i = 0; i < wa.size(); ++i) {
    ASSERT_EQ(wa[i], wb[i]) << what << ": mask word " << i;
  }
}

TEST(PregenTest, PushdownMatchesGenerateThenFilterBitIdentically) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 500);
  const size_t reps = 70;  // not a multiple of 64: tail mask bits in play
  auto full = GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 31);
  ASSERT_TRUE(full.ok());
  auto pred = table::ColumnCompare(full.value().det_schema(), "GENDER",
                                   CmpOp::kEq, Value("F"));
  ASSERT_TRUE(pred.ok());
  BundleTable expect = full.value().FilterDet(pred.value());
  ASSERT_GT(expect.num_rows(), 0u);
  ASSERT_LT(expect.num_rows(), 500u);

  PregenReport report;
  auto pushed = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP",
                                     reps, 31,
                                     {{"GENDER", CmpOp::kEq, Value("F")}},
                                     nullptr, &report);
  ASSERT_TRUE(pushed.ok());
  ExpectBundlesBitIdentical(expect, pushed.value(), "pushdown vs filter");
  EXPECT_EQ(report.outer_rows, 500u);
  EXPECT_EQ(report.kept_rows, expect.num_rows());
  EXPECT_EQ(report.rows_pruned, 500u - expect.num_rows());
  EXPECT_EQ(report.draws_saved, (500u - expect.num_rows()) * reps);
}

TEST(PregenTest, BitIdenticalAcrossThreadCounts) {
  MonteCarloDb db = MakeSbpDb(100.0, 5.0, 999);
  const size_t reps = 33;
  std::vector<table::PlanPredicate> preds = {
      {"GENDER", CmpOp::kEq, Value("M")},
      {"PID", CmpOp::kLt, Value(int64_t{700})}};
  auto serial = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP",
                                     reps, 77, preds);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    auto parallel = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP",
                                         reps, 77, preds, &pool);
    ASSERT_TRUE(parallel.ok());
    ExpectBundlesBitIdentical(serial.value(), parallel.value(),
                              "threads=" + std::to_string(threads));
  }
  // The two-predicate conjunction equals generate-then-filter too.
  auto full =
      GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 77);
  ASSERT_TRUE(full.ok());
  auto p1 = table::ColumnCompare(full.value().det_schema(), "GENDER",
                                 CmpOp::kEq, Value("M"));
  auto p2 = table::ColumnCompare(full.value().det_schema(), "PID", CmpOp::kLt,
                                 Value(int64_t{700}));
  ASSERT_TRUE(p1.ok() && p2.ok());
  BundleTable expect =
      full.value().FilterDet(p1.value()).FilterDet(p2.value());
  ExpectBundlesBitIdentical(expect, serial.value(), "conjunction");
}

TEST(PregenTest, NoPredicatesEqualsGenerateBundles) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 128);
  auto a = GenerateBundles(db, db.stochastic_specs()[0], "SBP", 16, 9);
  PregenReport report;
  auto b = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP", 16, 9,
                                {}, nullptr, &report);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectBundlesBitIdentical(a.value(), b.value(), "no predicates");
  EXPECT_EQ(report.kept_rows, 128u);
  EXPECT_EQ(report.draws_saved, 0u);
}

TEST(PregenTest, EmptySurvivorSetAndBadPredicates) {
  MonteCarloDb db = MakeSbpDb(120.0, 10.0, 64);
  // Nothing survives: a well-formed, zero-row bundle (no draws made).
  PregenReport report;
  auto none = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP", 8, 3,
                                   {{"PID", CmpOp::kLt, Value(int64_t{0})}},
                                   nullptr, &report);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value().num_rows(), 0u);
  EXPECT_EQ(report.draws_saved, 64u * 8u);
  auto sums = none.value().AggregateSum("SBP");
  ASSERT_TRUE(sums.ok());
  for (double s : sums.value()) EXPECT_EQ(s, 0.0);
  // Unknown predicate column: an error, same as FilterDet's ColumnCompare.
  auto bad = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP", 8, 3,
                                  {{"NOPE", CmpOp::kEq, Value(int64_t{1})}});
  EXPECT_FALSE(bad.ok());
}

TEST(PregenTest, AggregatesMatchBetweenPushdownAndFilter) {
  MonteCarloDb db = MakeSbpDb(150.0, 20.0, 400);
  const size_t reps = 64;
  auto full = GenerateBundles(db, db.stochastic_specs()[0], "SBP", reps, 55);
  ASSERT_TRUE(full.ok());
  auto pred = table::ColumnCompare(full.value().det_schema(), "GENDER",
                                   CmpOp::kEq, Value("F"));
  ASSERT_TRUE(pred.ok());
  auto ref = full.value().FilterDet(pred.value()).AggregateSum("SBP");
  auto pushed = GenerateBundlesWhere(db, db.stochastic_specs()[0], "SBP",
                                     reps, 55,
                                     {{"GENDER", CmpOp::kEq, Value("F")}});
  ASSERT_TRUE(pushed.ok());
  auto got = pushed.value().AggregateSum("SBP");
  ASSERT_TRUE(ref.ok() && got.ok());
  ASSERT_EQ(ref.value().size(), got.value().size());
  for (size_t r = 0; r < ref.value().size(); ++r) {
    uint64_t ba, bb;
    std::memcpy(&ba, &ref.value()[r], sizeof(ba));
    std::memcpy(&bb, &got.value()[r], sizeof(bb));
    EXPECT_EQ(ba, bb) << "rep " << r;
  }
}

}  // namespace
}  // namespace mde::mcdb
