#include "mcdb/variance_reduction.h"

#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mde::mcdb {

McEstimate PlainMonteCarlo(const std::function<double(double)>& f, size_t n,
                           uint64_t seed) {
  MDE_CHECK_GT(n, 0u);
  Rng rng(seed);
  RunningStat stat;
  for (size_t i = 0; i < n; ++i) stat.Add(f(rng.NextDouble()));
  McEstimate e;
  e.mean = stat.mean();
  e.variance = stat.variance();
  e.std_error = stat.std_error();
  e.samples = n;
  return e;
}

McEstimate AntitheticMonteCarlo(const std::function<double(double)>& f,
                                size_t pairs, uint64_t seed) {
  MDE_CHECK_GT(pairs, 0u);
  Rng rng(seed);
  RunningStat stat;
  for (size_t i = 0; i < pairs; ++i) {
    const double u = rng.NextDouble();
    stat.Add(0.5 * (f(u) + f(1.0 - u)));
  }
  McEstimate e;
  e.mean = stat.mean();
  e.variance = stat.variance();
  e.std_error = stat.std_error();
  e.samples = 2 * pairs;
  return e;
}

Result<CrnComparison> CompareWithCrn(
    const std::function<double(int, Rng&)>& run, size_t reps,
    uint64_t seed) {
  if (reps < 3) return Status::InvalidArgument("need >= 3 replications");
  RunningStat diff_crn;
  RunningCovariance paired;
  RunningStat a_ind, b_ind;
  // Substream r of `seed`, and substream 2r of the independent seed, at
  // iteration r.
  Rng crn(seed);
  Rng ind(seed + 0x9e3779b9);
  for (size_t r = 0; r < reps; ++r) {
    // CRN: both configurations replay substream r.
    Rng rng_a = crn;
    Rng rng_b = crn;
    const double ya = run(0, rng_a);
    const double yb = run(1, rng_b);
    diff_crn.Add(ya - yb);
    paired.Add(ya, yb);
    crn.Jump();
    // Independent baseline: disjoint substreams 2r and 2r + 1.
    Rng rng_ai = ind;
    ind.Jump();
    Rng rng_bi = ind;
    ind.Jump();
    a_ind.Add(run(0, rng_ai));
    b_ind.Add(run(1, rng_bi));
  }
  CrnComparison out;
  out.mean_difference = diff_crn.mean();
  out.crn_std_error = diff_crn.std_error();
  const double ind_var =
      (a_ind.variance() + b_ind.variance()) / static_cast<double>(reps);
  out.independent_std_error = std::sqrt(ind_var);
  const double crn_var = diff_crn.variance() / static_cast<double>(reps);
  out.variance_reduction_factor =
      crn_var > 0.0 ? ind_var / crn_var : 1.0;
  return out;
}

Result<ControlVariateEstimate> ControlVariate(const std::vector<double>& y,
                                              const std::vector<double>& x,
                                              double x_mean) {
  if (y.size() != x.size() || y.size() < 3) {
    return Status::InvalidArgument("need >= 3 paired samples");
  }
  const double var_x = Variance(x);
  if (var_x <= 0.0) {
    return Status::FailedPrecondition("control variate is constant");
  }
  ControlVariateEstimate est;
  est.beta = Covariance(y, x) / var_x;
  const double ybar = Mean(y);
  const double xbar = Mean(x);
  est.mean = ybar - est.beta * (xbar - x_mean);
  const double rho = Correlation(y, x);
  const double var_y = Variance(y);
  const double adj_var = var_y * (1.0 - rho * rho);
  est.std_error = std::sqrt(adj_var / static_cast<double>(y.size()));
  est.variance_reduction_factor =
      adj_var > 0.0 ? var_y / adj_var : 1.0;
  return est;
}

}  // namespace mde::mcdb
