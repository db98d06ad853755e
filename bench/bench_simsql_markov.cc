/// E2 — Section 2.1: SimSQL database-valued Markov chains and the
/// ABS-step-as-self-join observation of Wang et al. Prints the chain's
/// marginal statistics, then benchmarks (a) chain stepping throughput and
/// (b) the spatial-grid-partitioned agent self-join across thread counts —
/// the parallelizable "agents interact only with nearby agents" join.

#include <cmath>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "util/check.h"

#include "abs/spatial.h"
#include "simsql/simsql.h"
#include "table/columnar.h"
#include "table/ops.h"
#include "util/distributions.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace {

using namespace mde;          // NOLINT
using namespace mde::simsql;  // NOLINT
using table::DataType;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

/// Chain tables are built columnar: the transition reads the previous
/// version's typed position block, writes a fresh position block, and
/// SHARES the id column across every version — versions differ only in the
/// one column that actually changed.
ChainTableSpec WalkerSpec(size_t walkers) {
  ChainTableSpec spec;
  spec.name = "W";
  spec.init = [walkers](const DatabaseState&, Rng&) -> Result<Table> {
    table::ColumnarTableBuilder b{
        Schema({{"id", DataType::kInt64}, {"pos", DataType::kDouble}})};
    b.Reserve(walkers);
    for (size_t i = 0; i < walkers; ++i) {
      b.column(0).AppendInt64(static_cast<int64_t>(i));
      b.column(1).AppendDouble(0.0);
    }
    MDE_ASSIGN_OR_RETURN(auto cols, b.Finish());
    return Table::FromColumnar(std::move(cols));
  };
  spec.transition = [](const DatabaseState& prev, const DatabaseState&,
                       Rng& rng) -> Result<Table> {
    const Table& old = prev.at("W");
    const auto& old_cols = old.columnar();
    const table::Column& pos = old_cols->col(1);
    table::ColumnarTableBuilder b{old.schema()};
    b.SetColumn(0, old_cols->col_ptr(0));  // ids are immutable: share them
    b.column(1).Reserve(pos.size);
    for (size_t i = 0; i < pos.size; ++i) {
      b.column(1).AppendDouble(pos.f64[i] + SampleStandardNormal(rng));
    }
    MDE_ASSIGN_OR_RETURN(auto cols, b.Finish());
    return Table::FromColumnar(std::move(cols));
  };
  return spec;
}

void PrintChainDemo() {
  std::printf("=== E2: database-valued Markov chains (SimSQL) ===\n");
  MarkovChainDb db;
  MDE_CHECK(db.AddChainTable(WalkerSpec(2000)).ok());
  std::printf("%6s %14s (theory: Var = t)\n", "step", "Var(pos)");
  for (size_t steps : {4u, 16u, 64u}) {
    auto state = db.Run(steps, 5, 0).value();
    std::vector<double> pos;
    const table::Column& col = state.at("W").columnar()->col(1);
    pos.assign(col.f64.begin(), col.f64.end());
    std::printf("%6zu %14.2f\n", steps, Variance(pos));
  }
  std::printf("\n");
}

void BM_ChainStep(benchmark::State& state) {
  const size_t walkers = static_cast<size_t>(state.range(0));
  MarkovChainDb db;
  MDE_CHECK(db.AddChainTable(WalkerSpec(walkers)).ok());
  uint64_t rep = 0;
  for (auto _ : state) {
    auto final_state = db.Run(10, 1, rep++);
    benchmark::DoNotOptimize(final_state);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(walkers) * 10);
}
BENCHMARK(BM_ChainStep)->Arg(1000)->Arg(10000);

/// The ABS self-join: neighbor lists for all agents within a radius,
/// partitioned by grid cell and parallelized.
void BM_AbsSelfJoin(benchmark::State& state) {
  const size_t agents = 50000;
  const size_t threads = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<abs::Point> pts;
  pts.reserve(agents);
  for (size_t i = 0; i < agents; ++i) {
    pts.push_back({rng.NextDouble() * 1000.0, rng.NextDouble() * 1000.0});
  }
  abs::SpatialGrid grid(pts, 5.0);
  ThreadPool pool(threads);
  for (auto _ : state) {
    auto lists = grid.NeighborLists(5.0, &pool);
    benchmark::DoNotOptimize(lists);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(agents));
}
BENCHMARK(BM_AbsSelfJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Baseline: the unpartitioned quadratic self-join on a small agent set
/// (what the grid partitioning avoids).
void BM_NaiveSelfJoin(benchmark::State& state) {
  const size_t agents = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<abs::Point> pts;
  for (size_t i = 0; i < agents; ++i) {
    pts.push_back({rng.NextDouble() * 1000.0, rng.NextDouble() * 1000.0});
  }
  for (auto _ : state) {
    size_t pairs = 0;
    for (size_t i = 0; i < agents; ++i) {
      for (size_t j = 0; j < agents; ++j) {
        if (i != j && abs::Distance(pts[i], pts[j]) <= 5.0) ++pairs;
      }
    }
    benchmark::DoNotOptimize(pairs);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(agents));
}
BENCHMARK(BM_NaiveSelfJoin)->Arg(2000)->Arg(8000);

}  // namespace

MDE_BENCHMARK_MAIN(PrintChainDemo)
