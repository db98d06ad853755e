/// chain_query: a SimSQL chain table queried as a database, one calling
/// thread plus table::SetVecPool with min(4, nproc) workers. Each operation
/// realizes the next chain version (orders' amounts take one step of a
/// mean-reverting walk) through simsql's runner and observer, then runs
/// OptimizePlan + ExecutePlan of the as-written filter-above-join plan over
/// the new version: fresh catalog statistics, the optimizer, and the
/// vectorized join and filter. No cache, no bundles.

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "simsql/simsql.h"
#include "table/columnar.h"
#include "table/plan.h"
#include "table/table.h"
#include "table/vec_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mdebench {
namespace {

using mde::Rng;
using mde::ThreadPool;
using mde::simsql::DatabaseState;
using mde::table::CmpOp;
using mde::table::Column;
using mde::table::ColumnarTable;
using mde::table::DataType;
using mde::table::PlanNode;
using mde::table::PlanPtr;
using mde::table::Schema;
using mde::table::Table;
using mde::table::Value;

constexpr size_t kOrders = 200000;
constexpr size_t kCustomers = 5000;
constexpr double kAmountFloor = 20.0;
/// Each step pulls an amount this far back toward its order's base value,
/// so the walk is stationary and "amount > 20" keeps its selectivity over a
/// run of any length.
constexpr double kPull = 0.9;
constexpr size_t kReferenceSteps = 12;
constexpr double kKsAlpha = 1e-6;

double BaseAmount(size_t order) {
  return 10.0 + static_cast<double>(order % 13);
}

Schema OrdersSchema() {
  return Schema({{"oid", DataType::kInt64},
                 {"cid", DataType::kInt64},
                 {"amount", DataType::kDouble}});
}

std::shared_ptr<const Column> DoubleColumn(std::vector<double> v) {
  auto col = std::make_shared<Column>();
  col->type = DataType::kDouble;
  col->size = v.size();
  col->f64.assign(v.begin(), v.end());
  return col;
}

mde::Result<Table> OrdersFrom(std::shared_ptr<const Column> oid,
                              std::shared_ptr<const Column> cid,
                              std::shared_ptr<const Column> amount) {
  mde::table::ColumnarTableBuilder b(OrdersSchema());
  b.SetColumn(0, std::move(oid));
  b.SetColumn(1, std::move(cid));
  b.SetColumn(2, std::move(amount));
  auto cols = b.Finish();
  if (!cols.ok()) return cols.status();
  return Table::FromColumnar(std::move(cols).value());
}

std::unique_ptr<mde::simsql::MarkovChainDb> MakeChainDb(uint64_t inject_ns) {
  auto db = std::make_unique<mde::simsql::MarkovChainDb>();
  Table customers{
      Schema({{"cid", DataType::kInt64}, {"region", DataType::kString}})};
  for (size_t c = 0; c < kCustomers; ++c) {
    customers.Append({Value(static_cast<int64_t>(c)),
                      Value(c % 5 == 0 ? "EAST" : "WEST")});
  }
  (void)db->AddDeterministic("customers", std::move(customers));

  mde::simsql::ChainTableSpec spec;
  spec.name = "orders";
  spec.init = [](const DatabaseState&, Rng& rng) -> mde::Result<Table> {
    auto oid = std::make_shared<Column>();
    auto cid = std::make_shared<Column>();
    oid->type = cid->type = DataType::kInt64;
    oid->size = cid->size = kOrders;
    oid->i64.resize(kOrders);
    cid->i64.resize(kOrders);
    std::vector<double> amount(kOrders);
    for (size_t o = 0; o < kOrders; ++o) {
      oid->i64[o] = static_cast<int64_t>(o);
      cid->i64[o] = static_cast<int64_t>(o % kCustomers);
      amount[o] = BaseAmount(o) + rng.NextDouble();
    }
    return OrdersFrom(oid, cid, DoubleColumn(std::move(amount)));
  };
  spec.transition = [inject_ns](const DatabaseState& prev, const DatabaseState&,
                                Rng& rng) -> mde::Result<Table> {
    trace::Span span("simsql.transition");
    if (inject_ns > 0) SpinFor(inject_ns);
    auto cols = prev.at("orders").ToColumnar();
    if (!cols.ok()) return cols.status();
    const ColumnarTable& p = *cols.value();
    std::vector<double> amount(kOrders);
    mde::BatchRng batch(rng);
    batch.FillUniform(amount.data(), kOrders);
    for (size_t o = 0; o < kOrders; ++o) {
      const double base = BaseAmount(o);
      amount[o] =
          base + kPull * (p.col(2).f64[o] - base) + (amount[o] - 0.5) * 2.0;
    }
    return OrdersFrom(p.col_ptr(0), p.col_ptr(1),
                      DoubleColumn(std::move(amount)));
  };
  (void)db->AddChainTable(std::move(spec));
  return db;
}

/// The as-written plan: both predicates above the join.
PlanPtr AsWrittenPlan(const DatabaseState& state) {
  return PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan(&state.at("orders"), "orders"),
                     PlanNode::Scan(&state.at("customers"), "customers"),
                     {"cid"}, {"cid"}),
      {{"region", CmpOp::kEq, Value("EAST")},
       {"amount", CmpOp::kGt, Value(kAmountFloor)}});
}

/// Order-insensitive checksum of a result: the sum of per-row hashes over
/// every column's bits (a join reorder may permute rows, never change the
/// multiset), plus the row count.
uint64_t Checksum(const Table& t) {
  auto cols = t.ToColumnar();
  if (!cols.ok()) return 0;
  const ColumnarTable& c = *cols.value();
  uint64_t sum = c.num_rows();
  for (size_t r = 0; r < c.num_rows(); ++r) {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (size_t k = 0; k < c.num_columns(); ++k) {
      const Column& col = c.col(k);
      uint64_t bits = 0;
      if (!col.IsValid(r)) {
        bits = 0x6e756c6cULL;
      } else if (col.type == DataType::kInt64) {
        bits = static_cast<uint64_t>(col.i64[r]);
      } else if (col.type == DataType::kDouble) {
        std::memcpy(&bits, &col.f64[r], sizeof(bits));
      } else if (col.type == DataType::kString) {
        bits = std::hash<std::string>()(col.StringAt(r));
      } else if (col.type == DataType::kBool) {
        bits = col.b8[r];
      }
      h = (h ^ bits) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    sum += h;
  }
  return sum;
}

/// One chain: its db and a runner positioned at the latest version.
struct Chain {
  std::unique_ptr<mde::simsql::MarkovChainDb> db;
  std::unique_ptr<mde::simsql::ChainRunner> runner;
  const DatabaseState* latest = nullptr;  // owned by runner, set by observer
};

std::unique_ptr<Chain> StartChain(uint64_t seed, uint64_t inject_ns) {
  auto c = std::make_unique<Chain>();
  c->db = MakeChainDb(inject_ns);
  Chain* raw = c.get();
  c->runner = std::make_unique<mde::simsql::ChainRunner>(
      *c->db, std::numeric_limits<size_t>::max() - 1, seed, /*rep=*/0,
      [raw](size_t, const DatabaseState& state) {
        raw->latest = &state;
        return mde::Status::OK();
      });
  if (!c->runner->StepOnce().ok()) return nullptr;  // version 0
  return c;
}

/// One operation: next version, then optimize + execute over it.
mde::Result<Table> StepAndQuery(Chain* chain) {
  {
    trace::Span s("simsql.step");
    mde::Status st = chain->runner->StepOnce();
    if (!st.ok()) return st;
  }
  const PlanPtr plan = AsWrittenPlan(*chain->latest);
  mde::Result<PlanPtr> opt = mde::Status::Internal("not run");
  {
    trace::Span s("table.optimize");
    opt = mde::table::OptimizePlan(plan);
  }
  if (!opt.ok()) return opt.status();
  trace::Span s("table.execute");
  return mde::table::ExecutePlan(opt.value(), nullptr);
}

double P50Us(const trace::NameStats& ns, bool self) {
  return (self ? ns.self : ns.dur).PercentileUs(0.5);
}

/// Amounts' deviation from their base after one step, for the EFECT
/// seed-distribution check.
std::vector<double> FirstStepDeviations(uint64_t seed) {
  std::unique_ptr<Chain> c = StartChain(seed, 0);
  if (c == nullptr || !c->runner->StepOnce().ok()) return {};
  auto cols = c->latest->at("orders").ToColumnar();
  if (!cols.ok()) return {};
  std::vector<double> dev(kOrders);
  for (size_t o = 0; o < kOrders; ++o) {
    dev[o] = cols.value()->col(2).f64[o] - BaseAmount(o);
  }
  return dev;
}

}  // namespace

void RunChainQuery(const Config& cfg, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<Chain> chain;
  for (int i = 0; i < kSetupReps; ++i) {
    mde::table::SetVecPool(nullptr);
    chain.reset();
    pool.reset();
    const uint64_t t0 = NowNs();
    pool = std::make_unique<ThreadPool>(cfg.threads);
    mde::table::SetVecPool(pool.get());
    chain = StartChain(cfg.seed, cfg.inject_ns);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (chain == nullptr) {
      report->Check("chain.setup", false, "version 0 failed");
      mde::table::SetVecPool(nullptr);
      return;
    }
  }
  report->Metric("setup_s", Percentile(&setup_s, 0.5), "s");

  std::vector<uint64_t> checksums;
  uint64_t ops = 0;
  uint64_t failed = 0;
  const std::vector<uint64_t> pool_before = PoolTotals(*pool);
  const uint64_t start_ns = NowNs();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(cfg.seconds * 1e9);
  WindowedOps windows(start_ns, cfg.seconds);
  StealSampler sampler(start_ns, deadline_ns);
  while (NowNs() < deadline_ns) {
    const uint64_t t0 = NowNs();
    std::optional<mde::Result<Table>> result;
    {
      trace::OpSpan op("chain.op");
      result.emplace(StepAndQuery(chain.get()));
    }
    windows.Add(t0, NowNs());
    ++ops;
    if (!result->ok() || result->value().num_rows() == 0) {
      ++failed;
      continue;
    }
    if (failed == 0 && checksums.size() < kReferenceSteps) {
      checksums.push_back(Checksum(result->value()));
    }
  }
  const double peak_rss = PeakRssMb();
  const std::vector<uint64_t> pool_after = PoolTotals(*pool);
  const bool traced = trace::Enabled();
  trace::Enable(false);
  report->Ops(ops, failed);

  ReportWindows({&windows}, sampler.Finish(), cfg.cpus, report);
  report->Metric("peak_rss_mb", peak_rss, "MB");
  ReportPoolDeltas(pool_before, pool_after, ops, report);
  {
    // One profiled execution over the latest version (counts only).
    mde::table::ExecutionStats stats;
    auto opt = mde::table::OptimizePlan(AsWrittenPlan(*chain->latest));
    const bool ok =
        opt.ok() && mde::table::ExecutePlan(opt.value(), &stats).ok();
    report->Ops(1, ok ? 0 : 1);
    report->Metric("table.intermediate_rows",
                   static_cast<double>(stats.intermediate_rows), "count");
    report->Metric("table.rows_scanned",
                   static_cast<double>(stats.rows_scanned), "count");
  }

  if (traced) {
    const trace::Summary sum = trace::Collect(cfg.spans_path);
    report->Metric("simsql.transition_us",
                   sum.Get("simsql.transition").MeanSelfUs(), "us");
    report->Metric("simsql.step_ms",
                   P50Us(sum.Get("simsql.step"), false) * 1e-3, "ms");
    report->Metric("simsql.step_overhead_ms",
                   P50Us(sum.Get("simsql.step"), true) * 1e-3, "ms");
    report->Metric("table.optimize_us", P50Us(sum.Get("table.optimize"), false),
                   "us");
    report->Metric("table.execute_us", P50Us(sum.Get("table.execute"), false),
                   "us");
    report->Metric("trace.coverage", sum.Coverage(), "ratio");
    trace::PrintSelfTimes(sum, report);
  }

  // --- correctness checks (untimed) ---
  // EFECT / reference: replaying the first steps of the same seed without a
  // pool gives the same result multisets.
  mde::table::SetVecPool(nullptr);
  {
    std::unique_ptr<Chain> ref = StartChain(cfg.seed, 0);
    size_t matched = 0;
    for (size_t i = 0; ref != nullptr && i < checksums.size(); ++i) {
      auto r = StepAndQuery(ref.get());
      if (r.ok() && Checksum(r.value()) == checksums[i]) ++matched;
    }
    report->Check("efect.chain_pool_vs_serial",
                  !checksums.empty() && matched == checksums.size(),
                  std::to_string(matched) + " of " +
                      std::to_string(checksums.size()) +
                      " step checksums match");
  }
  {
    const KsResult ks = KsTwoSample(FirstStepDeviations(cfg.seed),
                                    FirstStepDeviations(cfg.seed + 1));
    char buf[96];
    std::snprintf(buf, sizeof(buf), "D=%.5f p=%.4g n=%zu", ks.d, ks.p, kOrders);
    report->Check("efect.chain_seed_ks", ks.p > kKsAlpha, buf);
    report->Metric("efect.chain_ks_p", ks.p, "p");
  }
  chain.reset();
  pool.reset();
}

}  // namespace mdebench
