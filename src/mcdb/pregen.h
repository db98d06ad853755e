#ifndef MDE_MCDB_PREGEN_H_
#define MDE_MCDB_PREGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mcdb/bundle.h"
#include "mcdb/mcdb.h"
#include "table/plan.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mde::mcdb {

/// What the pre-generation planner did for one GenerateBundlesWhere call.
struct PregenReport {
  size_t outer_rows = 0;   // rows in the FOR EACH table
  size_t kept_rows = 0;    // rows surviving the deterministic predicates
  size_t rows_pruned = 0;  // outer_rows - kept_rows
  size_t draws_saved = 0;  // rows_pruned * num_reps VG draws never made
};

/// Pre-generation pushdown (the stochastic half of the cost-based
/// optimizer): the deterministic predicates of
///
///   GenerateBundles(...).FilterDet(p1 AND p2 AND ...)
///
/// are hoisted BELOW the VG-function generation — the planner evaluates
/// them against the outer table first (table::VecFilterAll over its
/// column blocks, ordered most-selective-first by the statistics catalog)
/// and only the surviving rows ever bind parameters or draw Monte Carlo
/// repetitions.
///
/// Bit-identical to the generate-then-filter form for every thread count:
/// each row's RNG substream is keyed by its original outer index, and the
/// predicate semantics are exactly FilterDet's (both filter through
/// VecFilterAll). Predicate evaluation order cannot change the
/// surviving set — ordering is purely a cost decision.
Result<BundleTable> GenerateBundlesWhere(
    const MonteCarloDb& db, const StochasticTableSpec& spec,
    const std::string& attr_name, size_t num_reps, uint64_t seed,
    std::vector<table::PlanPredicate> det_preds, ThreadPool* pool = nullptr,
    PregenReport* report = nullptr);

}  // namespace mde::mcdb

#endif  // MDE_MCDB_PREGEN_H_
