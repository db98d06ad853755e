/// Section 2.1 claims SimSQL is "well suited to scalable Bayesian machine
/// learning": a Gibbs sampler is exactly a database-valued Markov chain in
/// which each stochastic table holds one block of parameters and is
/// regenerated conditioned on the other tables' current version. This test
/// implements the conjugate Normal-Gamma Gibbs sampler that way and checks
/// the chain's posterior against closed forms.

#include <cmath>

#include <gtest/gtest.h>

#include "simsql/simsql.h"
#include "util/distributions.h"
#include "util/stats.h"

namespace mde::simsql {
namespace {

using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

struct NormalGammaPrior {
  double mu0 = 0.0;
  double k0 = 1.0;
  double a0 = 2.0;
  double b0 = 2.0;
};

Table ScalarTable(const char* col, double v) {
  Table t{Schema({{col, DataType::kDouble}})};
  t.Append({Value(v)});
  return t;
}

TEST(BayesianGibbsTest, NormalGammaPosteriorViaChainTables) {
  // Data: x_i ~ N(3, sd 2).
  Rng data_rng(42);
  const size_t n = 200;
  std::vector<double> data;
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    data.push_back(SampleNormal(data_rng, 3.0, 2.0));
    sum += data.back();
  }
  const double xbar = sum / static_cast<double>(n);
  NormalGammaPrior prior;

  // Chain table MU: regenerated from the current TAU (same version —
  // SimSQL's recursive cross-table parametrization); chain table TAU:
  // regenerated from the previous MU.
  MarkovChainDb db;
  {
    Table dt{Schema({{"x", DataType::kDouble}})};
    for (double x : data) dt.Append({Value(x)});
    ASSERT_TRUE(db.AddDeterministic("DATA", std::move(dt)).ok());
  }
  ChainTableSpec tau_spec;
  tau_spec.name = "TAU";
  tau_spec.init = [](const DatabaseState&, Rng&) -> Result<Table> {
    return ScalarTable("tau", 1.0);
  };
  tau_spec.transition = [prior, n](const DatabaseState& prev,
                                   const DatabaseState& cur,
                                   Rng& rng) -> Result<Table> {
    const double mu = prev.at("MU").row(0)[0].AsDouble();
    double ss = 0.0;
    const Table& data = cur.at("DATA");
    for (size_t i = 0; i < data.num_rows(); ++i) {
      const double d = data.row(i)[0].AsDouble() - mu;
      ss += d * d;
    }
    const double a = prior.a0 + (static_cast<double>(n) + 1.0) / 2.0;
    const double b = prior.b0 + 0.5 * ss +
                     0.5 * prior.k0 * (mu - prior.mu0) * (mu - prior.mu0);
    return ScalarTable("tau", SampleGamma(rng, a, 1.0 / b));
  };
  ChainTableSpec mu_spec;
  mu_spec.name = "MU";
  mu_spec.init = [](const DatabaseState&, Rng&) -> Result<Table> {
    return ScalarTable("mu", 0.0);
  };
  mu_spec.transition = [prior, n, xbar](const DatabaseState&,
                                        const DatabaseState& cur,
                                        Rng& rng) -> Result<Table> {
    // Uses the SAME-version TAU, generated just before MU this step.
    const double tau = cur.at("TAU").row(0)[0].AsDouble();
    const double kn = prior.k0 + static_cast<double>(n);
    const double mean =
        (prior.k0 * prior.mu0 + static_cast<double>(n) * xbar) / kn;
    return ScalarTable("mu", SampleNormal(rng, mean,
                                          1.0 / std::sqrt(kn * tau)));
  };
  ASSERT_TRUE(db.AddChainTable(std::move(tau_spec)).ok());
  ASSERT_TRUE(db.AddChainTable(std::move(mu_spec)).ok());

  // Collect posterior samples after burn-in via the observer.
  RunningStat mu_samples, tau_samples;
  const size_t steps = 3000;
  const size_t burn_in = 200;
  auto obs = [&](size_t i, const DatabaseState& s) -> Status {
    if (i > burn_in) {
      mu_samples.Add(s.at("MU").row(0)[0].AsDouble());
      tau_samples.Add(s.at("TAU").row(0)[0].AsDouble());
    }
    return Status::OK();
  };
  ASSERT_TRUE(db.Run(steps, 7, 0, obs).ok());

  // Closed-form Normal-Gamma posterior.
  const double kn = prior.k0 + static_cast<double>(n);
  const double post_mu =
      (prior.k0 * prior.mu0 + static_cast<double>(n) * xbar) / kn;
  double ss = 0.0;
  for (double x : data) ss += (x - xbar) * (x - xbar);
  const double an = prior.a0 + static_cast<double>(n) / 2.0;
  const double bn = prior.b0 + 0.5 * ss +
                    prior.k0 * static_cast<double>(n) * (xbar - prior.mu0) *
                        (xbar - prior.mu0) / (2.0 * kn);

  EXPECT_NEAR(mu_samples.mean(), post_mu, 0.03);
  EXPECT_NEAR(tau_samples.mean(), an / bn, 0.02);
  // Posterior sd of mu: sqrt(bn / (an * kn)) under the marginal t; rough
  // normal check within 20%.
  const double post_sd = std::sqrt(bn / (an * kn));
  EXPECT_NEAR(mu_samples.stddev(), post_sd, 0.2 * post_sd);
}

TEST(BayesianGibbsTest, ChainMixes) {
  // The mu-chain's lag-1 autocorrelation should be far from 1 (this Gibbs
  // sampler mixes essentially immediately because the conditional of mu
  // barely depends on tau).
  Rng data_rng(5);
  MarkovChainDb db;
  ChainTableSpec spec;
  spec.name = "MU";
  spec.init = [](const DatabaseState&, Rng&) -> Result<Table> {
    return ScalarTable("mu", 0.0);
  };
  spec.transition = [](const DatabaseState&, const DatabaseState&,
                       Rng& rng) -> Result<Table> {
    return ScalarTable("mu", SampleNormal(rng, 1.0, 0.5));
  };
  ASSERT_TRUE(db.AddChainTable(std::move(spec)).ok());
  std::vector<double> trace;
  auto obs = [&](size_t, const DatabaseState& s) -> Status {
    trace.push_back(s.at("MU").row(0)[0].AsDouble());
    return Status::OK();
  };
  ASSERT_TRUE(db.Run(2000, 9, 0, obs).ok());
  EXPECT_LT(std::fabs(Autocorrelation(trace, 1)), 0.1);
}

}  // namespace
}  // namespace mde::simsql
