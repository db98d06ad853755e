/// mde_serve: the serving layer end to end — a database-valued Markov
/// chain (simsql) advanced version by version behind MVCC snapshots, a
/// shared CLT-bounded Monte Carlo result cache, and concurrent client
/// sessions asking for answers at an explicit precision.
///
/// The demo starts the asset-price chain, runs six requests across two
/// sessions and two database versions, and prints each answer with its
/// error bar and cache outcome (miss, HIT, topup, HIT, miss, HIT). With
/// --diag_port=N the live diagnostics server runs for --serve_seconds so
/// /sessionz, /metrics and friends can be scraped. The serving benchmark
/// of record is mdebench's serve_mixed workload, which runs this model
/// under closed-loop load; ci/check_bench_serve.py gates its record.
///
/// Usage:
///   mde_serve [--diag_port=0..65535] [--serve_seconds=S] [--seed=N]
///
/// A flag value that is not a whole decimal number in range exits with 2.

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "obs/http.h"
#include "serve/server.h"
#include "simsql/simsql.h"
#include "table/table.h"
#include "util/rng.h"

namespace {

using mde::Rng;
using mde::Status;
using mde::serve::Answer;
using mde::serve::McQuerySpec;
using mde::serve::Request;
using mde::serve::Server;
using mde::simsql::DatabaseState;
using mde::table::DataType;
using mde::table::Schema;
using mde::table::Table;
using mde::table::Value;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kAssets = 16;

/// Demo model: PRICES is a random-walk chain table (one row per asset),
/// POSITIONS is deterministic. One Monte Carlo replication of the "pv"
/// query simulates every price `horizon` steps forward at volatility `vol`
/// and reports the portfolio value — so the answer distribution genuinely
/// needs the CLT machinery.
mde::simsql::MarkovChainDb MakeDemoDb() {
  mde::simsql::MarkovChainDb db;
  Table pos{
      Schema({{"ASSET", DataType::kInt64}, {"QTY", DataType::kDouble}})};
  for (size_t i = 0; i < kAssets; ++i) {
    pos.Append({Value(static_cast<int64_t>(i)),
                Value(1.0 + static_cast<double>(i % 5))});
  }
  (void)db.AddDeterministic("POSITIONS", std::move(pos));

  mde::simsql::ChainTableSpec spec;
  spec.name = "PRICES";
  spec.init = [](const DatabaseState&, Rng& rng) -> mde::Result<Table> {
    Table t{
        Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}})};
    for (size_t i = 0; i < kAssets; ++i) {
      t.Append({Value(static_cast<int64_t>(i)),
                Value(80.0 + 5.0 * static_cast<double>(i) +
                      rng.NextDouble())});
    }
    return t;
  };
  spec.transition = [](const DatabaseState& prev, const DatabaseState&,
                       Rng& rng) -> mde::Result<Table> {
    const Table& p = prev.at("PRICES");
    Table t{
        Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}})};
    for (size_t i = 0; i < kAssets; ++i) {
      t.Append({p.row(i)[0],
                Value(p.row(i)[1].AsDouble() + (rng.NextDouble() - 0.5))});
    }
    return t;
  };
  (void)db.AddChainTable(std::move(spec));
  return db;
}

McQuerySpec PortfolioValueQuery() {
  McQuerySpec spec;
  spec.name = "pv";
  spec.eval = [](const DatabaseState& state,
                 const std::map<std::string, double>& params,
                 Rng& rng) -> mde::Result<double> {
    const double vol = params.count("vol") != 0 ? params.at("vol") : 1.0;
    const int horizon = params.count("horizon") != 0
                            ? static_cast<int>(params.at("horizon"))
                            : 8;
    const Table& prices = state.at("PRICES");
    const Table& pos = state.at("POSITIONS");
    double total = 0.0;
    for (size_t i = 0; i < prices.num_rows(); ++i) {
      double p = prices.row(i)[1].AsDouble();
      for (int h = 0; h < horizon; ++h) {
        p += (rng.NextDouble() - 0.5) * vol;
      }
      total += p * pos.row(i)[1].AsDouble();
    }
    return total;
  };
  return spec;
}

struct Flags {
  uint64_t seed = 42;
  std::optional<uint16_t> diag_port;  // unset: no diagnostics server
  uint64_t serve_seconds = 5;
};

/// Parses all of `text` as a decimal integer in [0, max].
bool ParseUint(const char* text, uint64_t max, uint64_t* out) {
  const char* end = text + std::strlen(text);
  uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text, end, v);
  if (ec != std::errc() || ptr != end || v > max) return false;
  *out = v;
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    const std::string name(arg, eq != nullptr ? eq - arg : std::strlen(arg));
    uint64_t port = 0;
    uint64_t* dst = nullptr;
    uint64_t max = 0;
    if (name == "--seed") {
      dst = &f->seed;
      max = std::numeric_limits<uint64_t>::max();
    } else if (name == "--serve_seconds") {
      dst = &f->serve_seconds;
      max = std::numeric_limits<int>::max();
    } else if (name == "--diag_port") {
      dst = &port;
      max = 65535;
    } else {
      std::fprintf(stderr, "mde_serve: unknown flag '%s'\n", arg);
      return false;
    }
    if (eq == nullptr || !ParseUint(eq + 1, max, dst)) {
      std::fprintf(stderr, "mde_serve: bad value in '%s' (want 0..%llu)\n",
                   arg, static_cast<unsigned long long>(max));
      return false;
    }
    if (dst == &port) f->diag_port = static_cast<uint16_t>(port);
  }
  return true;
}

int RunDemo(const Flags& flags) {
  mde::simsql::MarkovChainDb db = MakeDemoDb();
  Server::Options opts;
  opts.seed = flags.seed;
  Server server(db, opts);
  if (!server.AddQuery(PortfolioValueQuery()).ok()) return 1;
  Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "mde_serve: %s\n", st.ToString().c_str());
    return 1;
  }

  std::unique_ptr<mde::obs::DiagServer> diag;
  if (flags.diag_port.has_value()) {
    diag = std::make_unique<mde::obs::DiagServer>();
    if (diag->Start(*flags.diag_port)) {
      std::printf("diagnostics on http://127.0.0.1:%d (/sessionz)\n",
                  diag->port());
    }
  }

  std::printf("=== mde_serve demo: 2 sessions, 2 versions ===\n");
  auto alice = server.OpenSession("alice");
  auto bob = server.OpenSession("bob");
  const auto run = [](const char* who, const std::shared_ptr<mde::serve::Session>& s,
                      const Request& req) {
    auto r = s->Execute(req);
    if (!r.ok()) {
      std::printf("%-6s ERROR %s\n", who, r.status().ToString().c_str());
      return;
    }
    const Answer& a = r.value();
    std::printf(
        "%-6s v%llu pv(vol=%.2f) = %10.2f +/- %6.3f  reps=%llu (+%llu)  %s\n",
        who, static_cast<unsigned long long>(a.version),
        req.params.at("vol"), a.estimate, a.half_width,
        static_cast<unsigned long long>(a.reps),
        static_cast<unsigned long long>(a.reps_added),
        a.cache_hit ? "HIT" : (a.reps_added < a.reps ? "topup" : "miss"));
  };

  Request loose;
  loose.query = "pv";
  loose.params = {{"vol", 1.0}, {"horizon", 8.0}};
  loose.target_half_width = kInf;
  Request tight = loose;
  tight.target_half_width = 1.0;
  tight.max_reps = 8192;

  run("alice", alice, loose);   // miss: runs min_reps
  run("bob", bob, loose);       // pure hit: same key, looser-or-equal
  run("bob", bob, tight);       // topup: only incremental reps
  run("alice", alice, tight);   // pure hit at the tighter bound
  (void)server.AdvanceVersion();
  run("alice", alice, tight);   // new version: fresh key, miss again
  Request pinned = tight;
  pinned.version = 0;
  run("bob", bob, pinned);      // explicit old version: still a pure hit

  std::printf("\n%s", server.RenderSessionz().c_str());
  if (diag != nullptr && diag->running()) {
    std::printf("serving diagnostics for %llu s...\n",
                static_cast<unsigned long long>(flags.serve_seconds));
    std::this_thread::sleep_for(std::chrono::seconds(flags.serve_seconds));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  mde::obs::DiagServer::MaybeStartFromEnv();
  return RunDemo(flags);
}
