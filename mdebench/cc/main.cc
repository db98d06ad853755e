/// mdebench: runs one benchmark workload against mde's public API and
/// prints its metrics, correctness checks and machine fingerprint in the
/// line protocol of harness.h. mdebench/run.py builds and runs it.
///
/// Usage:
///   mdebench --workload=serve_mixed|mcdb_batch|chain_query [--seed=N]
///            [--seconds=S] [--trace=0|1] [--inject_us=U]
///
/// Run from the checkout root: a traced run writes its spans under
/// .bench_build/records/.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.h"
#include "simd/simd.h"

namespace {

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mdebench::Config cfg;
  cfg.cpus = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = std::min(4u, cfg.cpus);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "workload", &v)) {
      cfg.workload = v;
    } else if (ParseFlag(arg, "seed", &v)) {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &v)) {
      cfg.seconds = std::atof(v.c_str());
    } else if (ParseFlag(arg, "trace", &v)) {
      cfg.trace = v == "1";
    } else if (ParseFlag(arg, "inject_us", &v)) {
      cfg.inject_ns = static_cast<uint64_t>(std::atof(v.c_str()) * 1e3);
    } else {
      std::fprintf(stderr, "mdebench: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  const char* tier = mde::simd::TierName(mde::simd::ActiveTier());
  cfg.spans_path = ".bench_build/records/" + cfg.workload + "-seed" +
                   std::to_string(cfg.seed) + "-" + tier + "-spans.tsv";

  mdebench::Report report;
  report.Info("workload", cfg.workload);
  report.Info("seed", std::to_string(cfg.seed));
  report.Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Info("threads", std::to_string(cfg.threads));
  report.Info("simd_tier", tier);
  report.Info("compiler", MDEBENCH_COMPILER);
  report.Info("build_type", MDEBENCH_BUILD_TYPE);
  mdebench::trace::Enable(cfg.trace);
  const uint64_t steal0 = mdebench::StealTicks();
  const uint64_t t0 = mdebench::NowNs();

  if (cfg.workload == "serve_mixed") {
    mdebench::RunServeMixed(cfg, &report);
  } else if (cfg.workload == "mcdb_batch") {
    mdebench::RunMcdbBatch(cfg, &report);
  } else if (cfg.workload == "chain_query") {
    mdebench::RunChainQuery(cfg, &report);
  } else {
    std::fprintf(stderr, "mdebench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }
  char share[32];
  std::snprintf(share, sizeof(share), "%.4f",
                mdebench::StealShare(mdebench::StealTicks() - steal0,
                                     mdebench::NowNs() - t0, cfg.cpus));
  report.Info("host_steal_share", share);
  report.PrintTotals();
  return 0;
}
