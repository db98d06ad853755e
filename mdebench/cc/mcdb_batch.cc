/// mcdb_batch: the 10k-tuple x 1k-rep MCDB query, one calling thread plus a
/// ThreadPool of min(4, nproc) workers. Each operation runs two forms of the
/// same query back to back, each with its own seed:
///   (a) GenerateBundles -> FilterDet -> FilterStoch -> AggregateAvg
///   (b) GenerateBundlesWhere (deterministic filter pushed below the VG
///       draws) -> AggregateAvg
/// Each stochastic block is 10k x 1k doubles = 80 MB, well above the
/// last-level cache.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "mcdb/bundle.h"
#include "mcdb/mcdb.h"
#include "mcdb/pregen.h"
#include "mcdb/vg_function.h"
#include "obs/context.h"
#include "table/ops.h"
#include "table/plan.h"
#include "util/thread_pool.h"

namespace mdebench {
namespace {

using mde::ThreadPool;
using mde::mcdb::BundleTable;
using mde::mcdb::MonteCarloDb;
using mde::mcdb::StochasticTableSpec;
using mde::table::CmpOp;
using mde::table::DataType;
using mde::table::Row;
using mde::table::Schema;
using mde::table::Table;
using mde::table::Value;

constexpr size_t kPatients = 10000;
constexpr size_t kReps = 1000;
constexpr double kSbpThreshold = 120.0;
/// Two seeds' estimates must agree in distribution; a false alarm at this
/// level is practically impossible, a broken generator is not.
constexpr double kKsAlpha = 1e-6;

MonteCarloDb MakeDb() {
  MonteCarloDb db;
  Table p{Schema({{"PID", DataType::kInt64}, {"GENDER", DataType::kString}})};
  for (size_t i = 0; i < kPatients; ++i) {
    p.Append({Value(static_cast<int64_t>(i)), Value(i % 2 ? "M" : "F")});
  }
  (void)db.AddTable("PATIENTS", std::move(p));
  Table param{
      Schema({{"MEAN", DataType::kDouble}, {"STD", DataType::kDouble}})};
  param.Append({Value(120.0), Value(15.0)});
  (void)db.AddTable("SBP_PARAM", std::move(param));
  StochasticTableSpec spec;
  spec.name = "SBP_DATA";
  spec.outer_table = "PATIENTS";
  spec.vg = std::make_shared<mde::mcdb::NormalVg>();
  spec.param_binder = [](const Row&, const mde::mcdb::DatabaseInstance& det)
      -> mde::Result<Row> {
    const Table& prm = det.at("SBP_PARAM");
    return Row{prm.row(0)[0], prm.row(0)[1]};
  };
  spec.output_schema = Schema({{"PID", DataType::kInt64},
                               {"GENDER", DataType::kString},
                               {"SBP", DataType::kDouble}});
  spec.projector = [](const Row& outer, const Row& vg) {
    return Row{outer[0], outer[1], vg[0]};
  };
  (void)db.AddStochasticTable(std::move(spec));
  return db;
}

struct Batch {
  MonteCarloDb db;
  std::unique_ptr<ThreadPool> pool;
};

uint64_t OpSeed(uint64_t seed, uint64_t op) {
  return mde::obs::FingerprintMix(seed, op);
}

mde::Result<BundleTable> GenerateFiltered(const MonteCarloDb& db,
                                          uint64_t seed, ThreadPool* pool) {
  const StochasticTableSpec& spec = db.stochastic_specs()[0];
  auto gen = mde::mcdb::GenerateBundles(db, spec, "SBP", kReps, seed, pool);
  if (!gen.ok()) return gen.status();
  auto female = mde::table::ColumnCompare(gen.value().det_schema(), "GENDER",
                                          CmpOp::kEq, "F");
  if (!female.ok()) return female.status();
  return gen.value().FilterDet(female.value());
}

/// Form (a). Every layer call sits in its own span; releasing the 80 MB
/// blocks is mcdb work too and gets one.
mde::Result<std::vector<double>> RunFull(const MonteCarloDb& db, uint64_t seed,
                                         ThreadPool* pool) {
  const StochasticTableSpec& spec = db.stochastic_specs()[0];
  std::optional<BundleTable> gen, det, stoch;
  mde::Result<std::vector<double>> out = mde::Status::Internal("not run");
  {
    trace::Span s("mcdb.generate");
    auto r = mde::mcdb::GenerateBundles(db, spec, "SBP", kReps, seed, pool);
    if (!r.ok()) return r.status();
    gen.emplace(std::move(r).value());
  }
  auto female = mde::table::ColumnCompare(gen->det_schema(), "GENDER",
                                          CmpOp::kEq, "F");
  if (!female.ok()) return female.status();
  {
    trace::Span s("mcdb.filter_det");
    det.emplace(gen->FilterDet(female.value()));
  }
  {
    trace::Span s("mcdb.filter_stoch");
    auto r = det->FilterStoch("SBP", CmpOp::kGt, kSbpThreshold);
    if (!r.ok()) return r.status();
    stoch.emplace(std::move(r).value());
  }
  {
    trace::Span s("mcdb.aggregate");
    out = stoch->AggregateAvg("SBP");
  }
  {
    trace::Span s("mcdb.release");
    gen.reset();
    det.reset();
    stoch.reset();
  }
  return out;
}

/// Form (b).
mde::Result<std::vector<double>> RunPushdown(
    const MonteCarloDb& db, uint64_t seed, ThreadPool* pool,
    mde::mcdb::PregenReport* report) {
  const StochasticTableSpec& spec = db.stochastic_specs()[0];
  std::optional<BundleTable> kept;
  mde::Result<std::vector<double>> out = mde::Status::Internal("not run");
  {
    trace::Span s("mcdb.pregen");
    auto r = mde::mcdb::GenerateBundlesWhere(
        db, spec, "SBP", kReps, seed,
        {{"GENDER", CmpOp::kEq, Value("F")}}, pool, report);
    if (!r.ok()) return r.status();
    kept.emplace(std::move(r).value());
  }
  {
    trace::Span s("mcdb.aggregate");
    out = kept->AggregateAvg("SBP");
  }
  {
    trace::Span s("mcdb.release");
    kept.reset();
  }
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Per-op sanity: one finite estimate per repetition, near the VG mean
/// (form (a) keeps only SBP > 120, so its estimates sit above it).
bool Plausible(const std::vector<double>& est, bool full) {
  if (est.size() != kReps) return false;
  for (double v : est) {
    if (!std::isfinite(v) || v < 100.0 || v > 150.0) return false;
    if (full && v <= kSbpThreshold) return false;
  }
  return true;
}

double P50Ms(const trace::NameStats& ns) {
  return ns.dur.PercentileUs(0.5) * 1e-3;
}

}  // namespace

void RunMcdbBatch(const Config& cfg, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Batch> batch;
  for (int i = 0; i < kSetupReps; ++i) {
    batch.reset();
    const uint64_t t0 = NowNs();
    batch = std::make_unique<Batch>(Batch{MakeDb(), nullptr});
    batch->pool = std::make_unique<ThreadPool>(cfg.threads);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  report->Metric("setup_s", Percentile(&setup_s, 0.5), "s");
  const MonteCarloDb& db = batch->db;
  ThreadPool* pool = batch->pool.get();

  std::vector<double> full_us, push_us;
  std::vector<std::vector<double>> first_outputs;  // seeds 0..3, for checks
  uint64_t ops = 0;
  uint64_t failed = 0;
  mde::mcdb::PregenReport pregen;
  const std::vector<uint64_t> pool_before = PoolTotals(*pool);
  const uint64_t start_ns = NowNs();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(cfg.seconds * 1e9);
  WindowedOps windows(start_ns, cfg.seconds);
  StealSampler sampler(start_ns, deadline_ns);
  // Operation k runs (a) with seed 2k and (b) with seed 2k + 1. Timing the
  // pair keeps the latency distribution unimodal (form (a) takes about
  // twice as long as (b)); each form's time is reported too.
  while (NowNs() < deadline_ns) {
    const uint64_t t0 = NowNs();
    bool ok = true;
    double form_us[2] = {0.0, 0.0};
    {
      trace::OpSpan op("mcdb.op");
      for (int form = 0; form < 2; ++form) {
        const bool full = form == 0;
        const uint64_t seed = OpSeed(cfg.seed, 2 * ops + form);
        const uint64_t f0 = NowNs();
        auto est = full ? RunFull(db, seed, pool)
                        : RunPushdown(db, seed, pool, &pregen);
        form_us[form] = static_cast<double>(NowNs() - f0) * 1e-3;
        ok = ok && est.ok() && Plausible(est.value(), full);
        if (ok && first_outputs.size() < 4) {
          first_outputs.push_back(est.value());
        }
      }
    }
    windows.Add(t0, NowNs());
    ++ops;
    if (!ok) {
      ++failed;
      continue;
    }
    full_us.push_back(form_us[0]);
    push_us.push_back(form_us[1]);
  }
  const double peak_rss = PeakRssMb();
  const std::vector<uint64_t> pool_after = PoolTotals(*pool);
  const bool traced = trace::Enabled();
  trace::Enable(false);
  report->Ops(ops, failed);

  ReportWindows({&windows}, sampler.Finish(), cfg.cpus, report);
  report->Metric("peak_rss_mb", peak_rss, "MB");
  report->Metric("full_p50_ms", Percentile(&full_us, 0.5) * 1e-3, "ms");
  report->Metric("pushdown_p50_ms", Percentile(&push_us, 0.5) * 1e-3, "ms");
  ReportPoolDeltas(pool_before, pool_after, ops, report);
  report->Metric("mcdb.pregen.draws_saved",
                 static_cast<double>(pregen.draws_saved), "count");
  // Computed, not measured: bytes of one stochastic block.
  report->Metric("mcdb.bytes_per_op",
                 static_cast<double>(kPatients * kReps * sizeof(double)), "B");

  if (traced) {
    const trace::Summary sum = trace::Collect(cfg.spans_path);
    const double gen_ms = P50Ms(sum.Get("mcdb.generate"));
    // Pool-less generation for the speedup, timed outside any span.
    std::vector<double> one_thread_ms;
    for (int i = 0; i < 3; ++i) {
      const uint64_t t0 = NowNs();
      auto r = mde::mcdb::GenerateBundles(db, db.stochastic_specs()[0], "SBP",
                                          kReps, OpSeed(cfg.seed, i), nullptr);
      one_thread_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      report->Ops(1, r.ok() ? 0 : 1);
    }
    const double gen_1t_ms = Percentile(&one_thread_ms, 0.5);
    report->Metric("mcdb.generate_ms", gen_ms, "ms");
    report->Metric("mcdb.generate_1t_ms", gen_1t_ms, "ms");
    report->Metric("mcdb.generate_speedup", gen_1t_ms / gen_ms, "ratio");
    report->Metric("mcdb.pregen_ms", P50Ms(sum.Get("mcdb.pregen")), "ms");
    report->Metric("mcdb.filter_det_ms", P50Ms(sum.Get("mcdb.filter_det")),
                   "ms");
    report->Metric("mcdb.filter_stoch_ms", P50Ms(sum.Get("mcdb.filter_stoch")),
                   "ms");
    report->Metric("mcdb.aggregate_ms", P50Ms(sum.Get("mcdb.aggregate")), "ms");
    report->Metric("mcdb.release_ms", P50Ms(sum.Get("mcdb.release")), "ms");
    // Computed: VG draws of one generate call over its median time.
    report->Metric("mcdb.vg_draws_per_s",
                   static_cast<double>(kPatients * kReps) / (gen_ms * 1e-3),
                   "draws/s");
    report->Metric("trace.coverage", sum.Coverage(), "ratio");
    trace::PrintSelfTimes(sum, report);
  }

  // --- correctness checks (untimed) ---
  if (first_outputs.size() < 4) {
    report->Check("mcdb.enough_ops", false,
                  std::to_string(first_outputs.size()) + " ops completed");
    return;
  }
  // Pushdown vs generate-then-filter, same seed: identical bundles.
  {
    const uint64_t seed = OpSeed(cfg.seed, 1);
    auto a = GenerateFiltered(db, seed, pool);
    mde::mcdb::PregenReport rep;
    auto b = mde::mcdb::GenerateBundlesWhere(
        db, db.stochastic_specs()[0], "SBP", kReps, seed,
        {{"GENDER", CmpOp::kEq, Value("F")}}, pool, &rep);
    bool same = a.ok() && b.ok() &&
                a.value().num_rows() == b.value().num_rows();
    if (same) {
      const auto& ab = a.value().stoch_block(0);
      const auto& bb = b.value().stoch_block(0);
      const auto& aw = a.value().active_words();
      const auto& bw = b.value().active_words();
      same = ab.size() == bb.size() && aw.size() == bw.size() &&
             std::memcmp(ab.data(), bb.data(), ab.size() * sizeof(double)) ==
                 0 &&
             std::memcmp(aw.data(), bw.data(), aw.size() * sizeof(uint64_t)) ==
                 0;
    }
    report->Check("mcdb.pushdown_bit_identical", same,
                  "GenerateBundlesWhere vs GenerateBundles+FilterDet");
  }
  // EFECT: a fixed seed reproduces exactly with no pool.
  {
    auto a = RunFull(db, OpSeed(cfg.seed, 0), nullptr);
    auto b = RunPushdown(db, OpSeed(cfg.seed, 1), nullptr, nullptr);
    const bool same = a.ok() && b.ok() &&
                      SameBits(a.value(), first_outputs[0]) &&
                      SameBits(b.value(), first_outputs[1]);
    report->Check("efect.mcdb_pool_vs_serial", same,
                  "seeds 0 and 1 rerun without a pool");
  }
  // EFECT: different seeds agree in distribution (two form-(b) ops).
  {
    const KsResult ks = KsTwoSample(first_outputs[1], first_outputs[3]);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "D=%.4f p=%.4g n=%zu", ks.d, ks.p, kReps);
    report->Check("efect.mcdb_seed_ks", ks.p > kKsAlpha, buf);
    report->Metric("efect.mcdb_ks_p", ks.p, "p");
  }
}

}  // namespace mdebench
