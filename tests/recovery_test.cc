// End-to-end crash-safety: for every checkpointable engine, checkpoint at
// an interior step, destroy the engine, restore into a fresh one, finish —
// and require the final state to be BIT-IDENTICAL to an uninterrupted run,
// at every pool width. Final snapshots serialize the complete working state
// (doubles as IEEE-754 bits), so byte equality of Save() outputs is exactly
// that guarantee.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/fault.h"
#include "ckpt/recovery.h"
#include "dsgd/dsgd.h"
#include "dsgd/matrix_completion.h"
#include "mcdb/vg_function.h"
#include "simd/simd.h"
#include "simsql/simsql.h"
#include "smc/particle_filter.h"
#include "table/table.h"
#include "util/distributions.h"
#include "util/thread_pool.h"
#include "wildfire/assimilate.h"
#include "wildfire/fire.h"

namespace mde {
namespace {

using Factory = std::function<std::unique_ptr<ckpt::Checkpointable>()>;

/// Reference run vs kill-at-step-k + restore + finish: final snapshots must
/// match byte for byte.
void ExpectBitIdenticalRecovery(const Factory& make, size_t kill_at) {
  ckpt::FaultInjector::Global().Configure({});  // quiesce
  auto reference = make();
  while (!reference->Done()) ASSERT_TRUE(reference->StepOnce().ok());
  auto ref_snap = reference->Save();
  ASSERT_TRUE(ref_snap.ok()) << ref_snap.status().message();

  std::string mid;
  {
    auto victim = make();
    for (size_t s = 0; s < kill_at && !victim->Done(); ++s) {
      ASSERT_TRUE(victim->StepOnce().ok());
    }
    auto m = victim->Save();
    ASSERT_TRUE(m.ok()) << m.status().message();
    mid = m.value();
  }  // destroyed: the "kill"

  auto recovered = make();
  ASSERT_TRUE(recovered->Restore(mid).ok());
  while (!recovered->Done()) ASSERT_TRUE(recovered->StepOnce().ok());
  auto rec_snap = recovered->Save();
  ASSERT_TRUE(rec_snap.ok());
  EXPECT_EQ(rec_snap.value(), ref_snap.value());
}

/// Same guarantee through the production recovery loop with an injected
/// fault at the engine's fault point.
void ExpectBitIdenticalInjectedRecovery(const Factory& make,
                                        const std::string& fault_point,
                                        uint64_t fire_at_hit) {
  ckpt::FaultInjector::Global().Configure({});
  auto reference = make();
  while (!reference->Done()) ASSERT_TRUE(reference->StepOnce().ok());
  auto ref_snap = reference->Save();
  ASSERT_TRUE(ref_snap.ok());

  ckpt::FaultInjector::Config c;
  c.enabled = true;
  c.point = fault_point;
  c.fire_at_hit = fire_at_hit;
  ckpt::FaultInjector::Global().Configure(c);
  auto faulty = make();
  ckpt::RecoveryOptions opts;
  opts.checkpoint_every = 1;
  opts.retry.sleep = false;
  auto stats = ckpt::RunWithRecovery(*faulty, opts);
  ckpt::FaultInjector::Global().Configure({});
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats.value().faults, 1u);
  EXPECT_EQ(stats.value().restores, 1u);
  auto rec_snap = faulty->Save();
  ASSERT_TRUE(rec_snap.ok());
  EXPECT_EQ(rec_snap.value(), ref_snap.value());
}

const size_t kThreadCounts[] = {1, 2, 8};

// ---------------------------------------------------------------------------
// DSGD.
// ---------------------------------------------------------------------------

struct DsgdProblem {
  DsgdProblem() {
    const size_t n = 48;
    linalg::Tridiagonal a;
    a.lower.assign(n - 1, 1.0);
    a.diag.assign(n, 4.0);
    a.upper.assign(n - 1, 1.0);
    linalg::Vector b(n, 1.0);
    rows = dsgd::RowsFromTridiagonal(a, b);
    strata = dsgd::TridiagonalStrata(rows.size());
    options.rounds = 24;
    options.sgd.trace_every = 4;  // exercises the ConvergenceMonitor state
  }
  std::vector<dsgd::SparseRow> rows;
  std::vector<std::vector<size_t>> strata;
  dsgd::DsgdOptions options;
};

TEST(RecoveryTest, DsgdKillAndRestoreIsBitIdentical) {
  DsgdProblem p;
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const Factory make = [&]() {
      return std::make_unique<dsgd::DsgdRun>(p.rows, p.rows.size(), p.strata,
                                             pool, p.options);
    };
    ExpectBitIdenticalRecovery(make, /*kill_at=*/11);
  }
}

TEST(RecoveryTest, DsgdInjectedFaultRecovery) {
  DsgdProblem p;
  ThreadPool pool(2);
  const Factory make = [&]() {
    return std::make_unique<dsgd::DsgdRun>(p.rows, p.rows.size(), p.strata,
                                           pool, p.options);
  };
  ExpectBitIdenticalInjectedRecovery(make, "dsgd.round", /*fire_at_hit=*/13);
}

// ---------------------------------------------------------------------------
// Matrix completion.
// ---------------------------------------------------------------------------

struct McProblem {
  McProblem() {
    ratings = dsgd::SyntheticRatings(30, 24, 3, 0.35, 0.1, 5);
    options.rank = 4;
    options.epochs = 5;
    options.blocks = 3;
  }
  dsgd::RatingsDataset ratings;
  dsgd::CompletionOptions options;
};

TEST(RecoveryTest, MatrixCompletionKillAndRestoreIsBitIdentical) {
  McProblem p;
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    const Factory make = [&]() {
      auto run = std::make_unique<dsgd::MatrixCompletionRun>(
          p.ratings.train, p.ratings.rows, p.ratings.cols, pool, p.options);
      EXPECT_TRUE(run->status().ok());
      return run;
    };
    // Kill mid-epoch (stratum 2 of epoch 2): the (epoch, sub-epoch) block
    // cursor and the per-epoch permutation must both survive.
    ExpectBitIdenticalRecovery(make, /*kill_at=*/7);
  }
}

TEST(RecoveryTest, MatrixCompletionInjectedFaultRecovery) {
  McProblem p;
  ThreadPool pool(2);
  const Factory make = [&]() {
    return std::make_unique<dsgd::MatrixCompletionRun>(
        p.ratings.train, p.ratings.rows, p.ratings.cols, pool, p.options);
  };
  ExpectBitIdenticalInjectedRecovery(make, "mc.sub_epoch", /*fire_at_hit=*/8);
}

// ---------------------------------------------------------------------------
// SimSQL chain.
// ---------------------------------------------------------------------------

simsql::ChainTableSpec WalkerSpec(size_t walkers) {
  simsql::ChainTableSpec spec;
  spec.name = "WALKERS";
  spec.init = [walkers](const simsql::DatabaseState&,
                        Rng&) -> Result<table::Table> {
    table::Table t{table::Schema({{"id", table::DataType::kInt64},
                                  {"pos", table::DataType::kDouble}})};
    for (size_t i = 0; i < walkers; ++i) {
      t.Append({table::Value(static_cast<int64_t>(i)), table::Value(0.0)});
    }
    return t;
  };
  spec.transition = [](const simsql::DatabaseState& prev,
                       const simsql::DatabaseState&,
                       Rng& rng) -> Result<table::Table> {
    const table::Table& old = prev.at("WALKERS");
    table::Table t(old.schema());
    for (size_t i = 0; i < old.num_rows(); ++i) {
      const table::RowView r = old.row(i);
      t.Append({r[0],
                table::Value(r[1].AsDouble() + SampleStandardNormal(rng))});
    }
    return t;
  };
  return spec;
}

TEST(RecoveryTest, SimsqlChainKillAndRestoreIsBitIdentical) {
  simsql::MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(WalkerSpec(6)).ok());
  db.set_history_limit(3);  // retained history is part of the snapshot
  const Factory make = [&]() {
    return std::make_unique<simsql::ChainRunner>(db, /*steps=*/12,
                                                 /*seed=*/42, /*rep=*/1);
  };
  ExpectBitIdenticalRecovery(make, /*kill_at=*/6);
}

TEST(RecoveryTest, SimsqlChainInjectedFaultRecovery) {
  simsql::MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(WalkerSpec(6)).ok());
  const Factory make = [&]() {
    return std::make_unique<simsql::ChainRunner>(db, /*steps=*/10,
                                                 /*seed=*/7, /*rep=*/0);
  };
  ExpectBitIdenticalInjectedRecovery(make, "simsql.version",
                                     /*fire_at_hit=*/5);
}

TEST(RecoveryTest, SimsqlCrossTierCheckpointRestoreIsBitIdentical) {
  // Checkpoints carry no SIMD-tier state and every dispatched kernel is
  // bitwise tier-identical, so a snapshot written while running on the
  // scalar tier must restore and finish bit-identically on the best
  // (e.g. AVX2) tier. The chain transition draws through the batched
  // vectorized sampler so the run genuinely exercises the kernels.
  simsql::ChainTableSpec spec;
  spec.name = "WALKERS";
  spec.init = [](const simsql::DatabaseState&,
                 Rng&) -> Result<table::Table> {
    table::Table t{table::Schema({{"id", table::DataType::kInt64},
                                  {"pos", table::DataType::kDouble}})};
    for (int64_t i = 0; i < 6; ++i) t.Append({i, 0.0});
    return t;
  };
  const auto vg = std::make_shared<mcdb::NormalVg>();
  spec.transition = [vg](const simsql::DatabaseState& prev,
                         const simsql::DatabaseState&,
                         Rng& rng) -> Result<table::Table> {
    const table::Table& old = prev.at("WALKERS");
    std::vector<double> steps(old.num_rows());
    const table::Row params{table::Value(0.0), table::Value(1.0)};
    if (!vg->GenerateScalarN(params, rng, steps.size(), steps.data())) {
      return Status::Internal("normal batch draw failed");
    }
    table::Table t(old.schema());
    for (size_t i = 0; i < old.num_rows(); ++i) {
      t.Append({old.row(i)[0],
                table::Value(old.row(i)[1].AsDouble() + steps[i])});
    }
    return t;
  };
  simsql::MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(std::move(spec)).ok());
  const Factory make = [&]() {
    return std::make_unique<simsql::ChainRunner>(db, /*steps=*/12,
                                                 /*seed=*/63, /*rep=*/0);
  };

  const simd::Tier best = simd::BestSupportedTier();
  // Reference: uninterrupted run on the best tier.
  simd::SetTier(best);
  auto reference = make();
  while (!reference->Done()) ASSERT_TRUE(reference->StepOnce().ok());
  auto ref_snap = reference->Save();
  ASSERT_TRUE(ref_snap.ok());

  // Checkpoint half-way under the scalar tier, then "kill".
  simd::SetTier(simd::Tier::kScalar);
  std::string mid;
  {
    auto victim = make();
    for (size_t s = 0; s < 6; ++s) ASSERT_TRUE(victim->StepOnce().ok());
    auto m = victim->Save();
    ASSERT_TRUE(m.ok());
    mid = m.value();
  }

  // Restore and finish on the best tier.
  simd::SetTier(best);
  auto recovered = make();
  ASSERT_TRUE(recovered->Restore(mid).ok());
  while (!recovered->Done()) ASSERT_TRUE(recovered->StepOnce().ok());
  auto rec_snap = recovered->Save();
  ASSERT_TRUE(rec_snap.ok());
  EXPECT_EQ(rec_snap.value(), ref_snap.value());
}

TEST(RecoveryTest, SimsqlRunnerMatchesMarkovChainDbRun) {
  // The resumable runner is the implementation of Run(): same seed/rep must
  // produce the same final state, cell for cell.
  simsql::MarkovChainDb db;
  ASSERT_TRUE(db.AddChainTable(WalkerSpec(5)).ok());
  auto direct = db.Run(8, 21, 2);
  ASSERT_TRUE(direct.ok());
  simsql::ChainRunner runner(db, 8, 21, 2);
  while (!runner.Done()) ASSERT_TRUE(runner.StepOnce().ok());
  auto finished = runner.Finish();
  ASSERT_TRUE(finished.ok());
  const table::Table& a = direct.value().at("WALKERS");
  const table::Table& b = finished.value().at("WALKERS");
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t i = 0; i < a.num_rows(); ++i) {
    EXPECT_EQ(a.row(i)[1].AsDouble(), b.row(i)[1].AsDouble());
  }
}

// ---------------------------------------------------------------------------
// Particle filter.
// ---------------------------------------------------------------------------

/// Linear-Gaussian model: x_n = 0.9 x_{n-1} + N(0, 0.5); y = x + N(0, 0.4).
class ArModel : public smc::StateSpaceModel {
 public:
  smc::State SampleInitial(const smc::Observation&, Rng& rng) const override {
    return {SampleNormal(rng, 0.0, 1.0)};
  }
  smc::State SampleProposal(const smc::Observation&,
                            const smc::State& x_prev, Rng& rng) const override {
    return {0.9 * x_prev[0] + SampleNormal(rng, 0.0, 0.5)};
  }
  double LogObservation(const smc::Observation& y,
                        const smc::State& x) const override {
    return NormalLogPdf(y[0], x[0], 0.4);
  }
};

std::vector<smc::Observation> ArObservations(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<smc::Observation> obs;
  double x = 0.0;
  for (size_t t = 0; t < n; ++t) {
    x = 0.9 * x + SampleNormal(rng, 0.0, 0.5);
    obs.push_back({x + SampleNormal(rng, 0.0, 0.4)});
  }
  return obs;
}

TEST(RecoveryTest, ParticleFilterKillAndRestoreIsBitIdentical) {
  ArModel model;
  const auto observations = ArObservations(10, 31);
  for (size_t threads : kThreadCounts) {
    ThreadPool pool(threads);
    smc::ParticleFilterOptions options;
    options.num_particles = 150;
    options.seed = 77;
    options.pool = &pool;
    const Factory make = [&]() {
      return std::make_unique<smc::FilterRun>(model, observations, options);
    };
    ExpectBitIdenticalRecovery(make, /*kill_at=*/5);
  }
}

TEST(RecoveryTest, ParticleFilterInjectedFaultRecovery) {
  ArModel model;
  const auto observations = ArObservations(8, 19);
  smc::ParticleFilterOptions options;
  options.num_particles = 100;
  options.seed = 3;
  const Factory make = [&]() {
    return std::make_unique<smc::FilterRun>(model, observations, options);
  };
  ExpectBitIdenticalInjectedRecovery(make, "smc.step", /*fire_at_hit=*/4);
}

TEST(RecoveryTest, ParticleFilterStandaloneSnapshotRoundTrips) {
  // SaveSnapshot/RestoreSnapshot on the bare filter (no run adapter).
  ArModel model;
  const auto observations = ArObservations(6, 77);
  smc::ParticleFilterOptions options;
  options.num_particles = 80;
  smc::ParticleFilter a(model, options);
  ASSERT_TRUE(a.Initialize(observations[0]).ok());
  ASSERT_TRUE(a.Step(observations[1]).ok());
  auto snap = a.SaveSnapshot();
  ASSERT_TRUE(snap.ok());

  smc::ParticleFilter b(model, options);
  ASSERT_TRUE(b.RestoreSnapshot(snap.value()).ok());
  for (size_t t = 2; t < observations.size(); ++t) {
    ASSERT_TRUE(a.Step(observations[t]).ok());
    ASSERT_TRUE(b.Step(observations[t]).ok());
  }
  EXPECT_EQ(a.TotalLogLikelihood(), b.TotalLogLikelihood());  // bit-exact
  EXPECT_EQ(a.MeanState()[0], b.MeanState()[0]);
  EXPECT_EQ(a.weights(), b.weights());
}

// ---------------------------------------------------------------------------
// Wildfire assimilation.
// ---------------------------------------------------------------------------

struct WildfireProblem {
  WildfireProblem()
      : terrain(wildfire::GenerateTerrain(16, 16, 0.4, 0.1, 13)),
        sim(terrain, wildfire::FireSim::Config{}),
        sensors(terrain, wildfire::SensorModel::Config{}) {
    config.num_particles = 30;
  }
  wildfire::Terrain terrain;
  wildfire::FireSim sim;
  wildfire::SensorModel sensors;
  wildfire::AssimilationConfig config;
};

TEST(RecoveryTest, WildfireKillAndRestoreIsBitIdentical) {
  WildfireProblem p;
  const Factory make = [&]() {
    return std::make_unique<wildfire::AssimilationDriver>(
        p.sim, p.sensors, /*steps=*/8, p.config, /*truth_seed=*/11);
  };
  ExpectBitIdenticalRecovery(make, /*kill_at=*/4);
}

TEST(RecoveryTest, WildfireSensorAwareKillAndRestoreIsBitIdentical) {
  WildfireProblem p;
  p.config.proposal = wildfire::ProposalKind::kSensorAware;
  p.config.kde_samples = 4;
  const Factory make = [&]() {
    return std::make_unique<wildfire::AssimilationDriver>(
        p.sim, p.sensors, /*steps=*/6, p.config, /*truth_seed=*/23);
  };
  ExpectBitIdenticalRecovery(make, /*kill_at=*/3);
}

TEST(RecoveryTest, WildfireInjectedFaultRecovery) {
  WildfireProblem p;
  const Factory make = [&]() {
    return std::make_unique<wildfire::AssimilationDriver>(
        p.sim, p.sensors, /*steps=*/6, p.config, /*truth_seed=*/11);
  };
  ExpectBitIdenticalInjectedRecovery(make, "wildfire.step",
                                     /*fire_at_hit=*/3);
}

// ---------------------------------------------------------------------------
// Cross-engine safety.
// ---------------------------------------------------------------------------

TEST(RecoveryTest, RejectsSnapshotFromDifferentEngine) {
  DsgdProblem dp;
  ThreadPool pool(1);
  dsgd::DsgdRun run(dp.rows, dp.rows.size(), dp.strata, pool, dp.options);
  ASSERT_TRUE(run.StepOnce().ok());
  auto snap = run.Save();
  ASSERT_TRUE(snap.ok());

  McProblem mp;
  dsgd::MatrixCompletionRun mc(mp.ratings.train, mp.ratings.rows,
                               mp.ratings.cols, pool, mp.options);
  const Status st = mc.Restore(snap.value());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, RejectsSnapshotForDifferentProblemShape) {
  WildfireProblem p;
  wildfire::AssimilationDriver a(p.sim, p.sensors, 6, p.config, 11);
  ASSERT_TRUE(a.StepOnce().ok());
  auto snap = a.Save();
  ASSERT_TRUE(snap.ok());
  // Different run length: refuse rather than finish the wrong experiment.
  wildfire::AssimilationDriver b(p.sim, p.sensors, 9, p.config, 11);
  EXPECT_EQ(b.Restore(snap.value()).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mde
