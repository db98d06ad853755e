/// serve_mixed: closed-loop multi-session traffic against one serve::Server.
///
/// min(4, nproc) sessions each wait for an answer before sending the next
/// request. About 80% of requests go to 32 hot shapes (zipf) that climb a
/// precision ladder, so the cache's top-up path runs; about 20% go uniformly
/// to a 4096-shape tail at loose precision. The cache holds the hot set but
/// not the tail. Session 0 also advances the database version every
/// kAdvanceEvery of its requests, beside the readers.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "serve/server.h"
#include "simsql/simsql.h"
#include "table/columnar.h"
#include "table/table.h"
#include "util/rng.h"

namespace mdebench {
namespace {

using mde::Rng;
using mde::serve::Answer;
using mde::serve::CacheStats;
using mde::serve::McQuerySpec;
using mde::serve::Request;
using mde::serve::Server;
using mde::serve::Session;
using mde::simsql::DatabaseState;
using mde::table::DataType;
using mde::table::Schema;
using mde::table::Table;
using mde::table::Value;

constexpr size_t kAssets = 16;
constexpr size_t kHotShapes = 32;
constexpr size_t kTailShapes = 4096;
constexpr double kHotShare = 0.8;
/// Precision ladder of the hot shapes: a session's requests for one shape
/// tighten one rung every kRungEvery requests within a database version.
constexpr double kLadder[] = {6.0, 5.0, 4.0, 3.5, 3.0};
constexpr size_t kRungs = sizeof(kLadder) / sizeof(kLadder[0]);
constexpr uint32_t kRungEvery = 3;
constexpr double kTailTarget = 20.0;  // met by the min_reps floor
constexpr uint64_t kMaxReps = 4096;
constexpr uint64_t kAdvanceEvery = 1000;
/// Cache budget in entries: the hot set over the few resident versions
/// fits, the tail does not.
constexpr size_t kCacheEntries = 256;
constexpr size_t kReplaySamples = 64;
/// Answers kept for the identity checks: those whose key hashes to 0 mod
/// kAnswerSample (the same keys in every session), up to kAnswerCap per
/// session, so the benchmark's own memory does not grow with throughput.
/// Later answers for kept keys are still compared.
constexpr size_t kAnswerSample = 8;
constexpr size_t kAnswerCap = 2048;
/// Per-class latency histograms: 1.6% buckets up to about 1 s.
constexpr int kClassSubBits = 6;
constexpr int kClassMaxExp = 30;

/// The demo model of tools/mde_serve.cc, kept here so that a change to the
/// tool does not move the benchmark. PRICES random-walks per version;
/// POSITIONS is deterministic.
std::unique_ptr<mde::simsql::MarkovChainDb> MakeDemoDb(uint64_t inject_ns) {
  auto db = std::make_unique<mde::simsql::MarkovChainDb>();
  Table pos{Schema({{"ASSET", DataType::kInt64}, {"QTY", DataType::kDouble}})};
  for (size_t i = 0; i < kAssets; ++i) {
    pos.Append({Value(static_cast<int64_t>(i)),
                Value(1.0 + static_cast<double>(i % 5))});
  }
  (void)db->AddDeterministic("POSITIONS", std::move(pos));

  mde::simsql::ChainTableSpec spec;
  spec.name = "PRICES";
  spec.init = [](const DatabaseState&, Rng& rng) -> mde::Result<Table> {
    Table t{
        Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}})};
    for (size_t i = 0; i < kAssets; ++i) {
      t.Append({Value(static_cast<int64_t>(i)),
                Value(80.0 + 5.0 * static_cast<double>(i) + rng.NextDouble())});
    }
    return t;
  };
  spec.transition = [inject_ns](const DatabaseState& prev,
                                const DatabaseState&,
                                Rng& rng) -> mde::Result<Table> {
    trace::Span span("simsql.transition");
    if (inject_ns > 0) SpinFor(inject_ns);
    const Table& p = prev.at("PRICES");
    Table t{
        Schema({{"ASSET", DataType::kInt64}, {"PRICE", DataType::kDouble}})};
    for (size_t i = 0; i < kAssets; ++i) {
      t.Append({p.row(i)[0],
                Value(p.row(i)[1].AsDouble() + (rng.NextDouble() - 0.5))});
    }
    return t;
  };
  (void)db->AddChainTable(std::move(spec));
  return db;
}

/// Cell (i, k) of a double column without building Table's lazy row view.
/// Snapshot tables are read by every session at once, and the row view of a
/// columnar-backed table (POSITIONS, re-wrapped by AddDeterministic) is
/// materialized on first access without synchronization. tools/mde_serve.cc's
/// demo eval reads through row() and races there under concurrent sessions.
double Cell(const Table& t, size_t i, size_t k) {
  if (t.columnar() != nullptr) return t.columnar()->col(k).f64[i];
  return t.row(i)[k].AsDouble();  // row-backed: rows already exist
}

/// One replication of "pv": every price simulated `horizon` steps forward
/// at volatility `vol`, reported as the portfolio value.
McQuerySpec PortfolioValueQuery(uint64_t inject_ns) {
  McQuerySpec spec;
  spec.name = "pv";
  spec.eval = [inject_ns](const DatabaseState& state,
                          const std::map<std::string, double>& params,
                          Rng& rng) -> mde::Result<double> {
    trace::Span span("serve.eval");
    if (inject_ns > 0) SpinFor(inject_ns);
    const double vol = params.at("vol");
    const int horizon = static_cast<int>(params.at("horizon"));
    const Table& prices = state.at("PRICES");
    const Table& pos = state.at("POSITIONS");
    double total = 0.0;
    for (size_t i = 0; i < prices.num_rows(); ++i) {
      double p = Cell(prices, i, 1);
      for (int h = 0; h < horizon; ++h) p += (rng.NextDouble() - 0.5) * vol;
      total += p * Cell(pos, i, 1);
    }
    return total;
  };
  return spec;
}

Request MakeRequest(size_t shape, double target) {
  Request r;
  r.query = "pv";
  r.params = {{"vol", 0.5 + 0.25 * static_cast<double>(shape % 6)},
              {"horizon", 4.0 + 2.0 * static_cast<double>(shape % 4)},
              {"shape", static_cast<double>(shape)}};
  r.target_half_width = target;
  r.max_reps = kMaxReps;
  return r;
}

struct Served {
  std::unique_ptr<mde::simsql::MarkovChainDb> db;
  std::unique_ptr<Server> server;
  std::vector<std::shared_ptr<Session>> sessions;
  /// hot[s * kRungs + r]: hot shape s at ladder rung r.
  std::vector<Request> hot;
  std::vector<Request> tail;  // shape ids kHotShapes..
  /// Head version as last installed by the writer; readers restart their
  /// ladders when it moves.
  std::atomic<uint64_t> head{0};
};

std::unique_ptr<Served> Build(uint64_t seed, unsigned sessions,
                              uint64_t inject_ns) {
  auto s = std::make_unique<Served>();
  for (size_t h = 0; h < kHotShapes; ++h) {
    for (double target : kLadder) s->hot.push_back(MakeRequest(h, target));
  }
  for (size_t t = 0; t < kTailShapes; ++t) {
    s->tail.push_back(MakeRequest(kHotShapes + t, kTailTarget));
  }
  s->db = MakeDemoDb(inject_ns);
  Server::Options opts;
  opts.seed = seed;
  opts.cache.max_bytes = kCacheEntries * mde::serve::ResultCache::kEntryBytes;
  s->server = std::make_unique<Server>(*s->db, opts);
  if (!s->server->AddQuery(PortfolioValueQuery(inject_ns)).ok() ||
      !s->server->Start().ok()) {
    return nullptr;
  }
  for (unsigned c = 0; c < sessions; ++c) {
    s->sessions.push_back(s->server->OpenSession("bench-" + std::to_string(c)));
  }
  return s;
}

/// Identity of one answer for the cross-session and replay checks.
struct AnswerKey {
  uint64_t shape;
  uint64_t version;
  uint64_t reps;
  bool operator==(const AnswerKey& o) const {
    return shape == o.shape && version == o.version && reps == o.reps;
  }
  bool operator<(const AnswerKey& o) const {
    return std::tie(version, shape, reps) <
           std::tie(o.version, o.shape, o.reps);
  }
};
struct AnswerKeyHash {
  size_t operator()(const AnswerKey& k) const {
    return std::hash<uint64_t>()(k.shape * 0x9e3779b97f4a7c15ULL ^
                                 k.version * 0xbf58476d1ce4e5b9ULL ^ k.reps);
  }
};
struct AnswerBits {
  double estimate;
  double half_width;
  bool Same(const AnswerBits& o) const {
    return std::memcmp(&estimate, &o.estimate, sizeof(double)) == 0 &&
           std::memcmp(&half_width, &o.half_width, sizeof(double)) == 0;
  }
};

struct SessionResult {
  SessionResult(uint64_t start_ns, double seconds)
      : windows(start_ns, seconds) {
    answers.reserve(kAnswerCap);
  }
  WindowedOps windows;
  LatencyHistogram hit{kClassSubBits, kClassMaxExp};
  LatencyHistogram topup{kClassSubBits, kClassMaxExp};
  LatencyHistogram miss{kClassSubBits, kClassMaxExp};
  std::vector<double> advance_us, live_versions;
  std::unordered_map<AnswerKey, AnswerBits, AnswerKeyHash> answers;
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t advances = 0;
  uint64_t precision_violations = 0;
  uint64_t self_mismatches = 0;
  uint64_t reps_run = 0;
};

void RunSession(Served* s, unsigned c, uint64_t seed, uint64_t deadline_ns,
                SessionResult* out) {
  Session& session = *s->sessions[c];
  Rng pick = Rng::Substream(seed, 1 + c);
  std::vector<uint32_t> count(kHotShapes, 0);
  std::vector<uint64_t> seen_version(kHotShapes, 0);
  while (NowNs() < deadline_ns) {
    if (c == 0 && out->requests >= (out->advances + 1) * kAdvanceEvery) {
      const uint64_t t0 = NowNs();
      bool ok;
      {
        trace::OpSpan op("serve.advance");
        trace::Span span("serve.mvcc.advance");
        ok = s->server->AdvanceVersion().ok();
      }
      s->head.store(s->server->head_version(), std::memory_order_relaxed);
      out->advance_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      out->live_versions.push_back(
          static_cast<double>(s->server->chain().live_versions()));
      ++out->advances;
      if (!ok) ++out->failed;
    }
    size_t shape;
    const Request* req;
    if (pick.NextDouble() < kHotShare) {
      // Zipf over the hot shapes: P(k) proportional to 1 / (k + 1).
      static const std::vector<double> cdf = [] {
        std::vector<double> w(kHotShapes);
        double sum = 0.0;
        for (size_t k = 0; k < kHotShapes; ++k) sum += 1.0 / (k + 1.0);
        double acc = 0.0;
        for (size_t k = 0; k < kHotShapes; ++k) {
          acc += 1.0 / (k + 1.0) / sum;
          w[k] = acc;
        }
        return w;
      }();
      const double u = pick.NextDouble();
      shape = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end() - 1, u) - cdf.begin());
      const uint64_t head = s->head.load(std::memory_order_relaxed);
      if (head != seen_version[shape]) {
        seen_version[shape] = head;
        count[shape] = 0;
      }
      const size_t rung =
          std::min<size_t>(kRungs - 1, count[shape]++ / kRungEvery);
      req = &s->hot[shape * kRungs + rung];
    } else {
      const size_t t = pick.NextBounded(kTailShapes);
      shape = kHotShapes + t;
      req = &s->tail[t];
    }

    const uint64_t t0 = NowNs();
    mde::Result<Answer> r = mde::Status::Internal("not executed");
    {
      trace::OpSpan op("serve.request");
      trace::Span span("serve.execute");
      r = session.Execute(*req);
      if (r.ok()) {
        const Answer& a = r.value();
        span.Rename(a.cache_hit ? "serve.execute.hit"
                    : a.reps_added < a.reps ? "serve.execute.topup"
                                            : "serve.execute.miss");
      }
    }
    const uint64_t t1 = NowNs();
    ++out->requests;
    out->windows.Add(t0, t1);
    if (!r.ok()) {
      ++out->failed;
      continue;
    }
    const Answer& a = r.value();
    if (a.cache_hit) {
      out->hit.Add(t1 - t0);
    } else if (a.reps_added < a.reps) {
      out->topup.Add(t1 - t0);
    } else {
      out->miss.Add(t1 - t0);
    }
    out->reps_run += a.reps_added;
    if (a.half_width > req->target_half_width && a.reps < req->max_reps) {
      ++out->precision_violations;
    }
    const AnswerKey key{shape, a.version, a.reps};
    if (AnswerKeyHash()(key) % kAnswerSample == 0) {
      const AnswerBits bits{a.estimate, a.half_width};
      const auto it = out->answers.find(key);
      if (it != out->answers.end()) {
        if (!it->second.Same(bits)) ++out->self_mismatches;
      } else if (out->answers.size() < kAnswerCap) {
        out->answers.emplace(key, bits);
      }
    }
  }
}

double Pct(std::vector<double> v, double q) { return Percentile(&v, q); }

}  // namespace

void RunServeMixed(const Config& cfg, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetupReps; ++i) {
    served.reset();
    const uint64_t t0 = NowNs();
    served = Build(cfg.seed, cfg.threads, cfg.inject_ns);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (served == nullptr) {
      report->Check("serve.setup", false, "server start failed");
      return;
    }
  }
  report->Metric("setup_s", Percentile(&setup_s, 0.5), "s");

  Server& server = *served->server;
  const CacheStats before = server.cache().stats();
  const uint64_t reclaimed_before = server.chain().reclaimed();
  std::vector<SessionResult> results;
  std::vector<uint64_t> steal;
  const uint64_t start_ns = NowNs();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(cfg.seconds * 1e9);
  {
    results.reserve(cfg.threads);
    for (unsigned c = 0; c < cfg.threads; ++c) {
      results.emplace_back(start_ns, cfg.seconds);
    }
    StealSampler sampler(start_ns, deadline_ns);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < cfg.threads; ++c) {
      clients.emplace_back(RunSession, served.get(), c, cfg.seed, deadline_ns,
                           &results[c]);
    }
    for (auto& t : clients) t.join();
    steal = sampler.Finish();
  }
  const double peak_rss = PeakRssMb();
  const bool traced = trace::Enabled();
  trace::Enable(false);
  const CacheStats after = server.cache().stats();

  SessionResult all(start_ns, 0.0);
  std::vector<const WindowedOps*> windows;
  for (const SessionResult& r : results) {
    windows.push_back(&r.windows);
    all.hit.Merge(r.hit);
    all.topup.Merge(r.topup);
    all.miss.Merge(r.miss);
    for (auto [dst, src] : {std::pair{&all.advance_us, &r.advance_us},
                            std::pair{&all.live_versions, &r.live_versions}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    all.requests += r.requests;
    all.failed += r.failed;
    all.advances += r.advances;
    all.precision_violations += r.precision_violations;
    all.self_mismatches += r.self_mismatches;
    all.reps_run += r.reps_run;
  }
  report->Ops(all.requests + all.advances, all.failed);

  ReportWindows(windows, steal, cfg.cpus, report);
  report->Metric("peak_rss_mb", peak_rss, "MB");
  report->Metric("hit_p50_us", all.hit.PercentileUs(0.50), "us");
  report->Metric("hit_p99_us", all.hit.PercentileUs(0.99), "us");
  report->Metric("topup_p50_us", all.topup.PercentileUs(0.50), "us");
  report->Metric("miss_p50_us", all.miss.PercentileUs(0.50), "us");
  report->Metric("serve.reps_per_request",
                 static_cast<double>(all.reps_run) /
                     static_cast<double>(std::max<uint64_t>(1, all.requests)),
                 "reps");
  report->Metric("requests", static_cast<double>(all.requests), "count");

  const auto delta = [&](uint64_t CacheStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  for (auto [name, field] :
       {std::pair{"serve.cache.pure_hits", &CacheStats::pure_hits},
        std::pair{"serve.cache.topups", &CacheStats::topups},
        std::pair{"serve.cache.misses", &CacheStats::misses},
        std::pair{"serve.cache.evictions", &CacheStats::evictions},
        std::pair{"serve.cache.reps_run", &CacheStats::reps_run},
        std::pair{"serve.cache.reps_saved", &CacheStats::reps_saved}}) {
    report->Metric(name, delta(field), "count");
  }
  const double lookups = delta(&CacheStats::pure_hits) +
                         delta(&CacheStats::topups) +
                         delta(&CacheStats::misses);
  report->Metric("serve.cache.hit_ratio",
                 delta(&CacheStats::pure_hits) / std::max(1.0, lookups),
                 "ratio");
  report->Metric("serve.cache.reps_saved_ratio",
                 delta(&CacheStats::reps_saved) /
                     std::max(1.0, delta(&CacheStats::reps_run) +
                                       delta(&CacheStats::reps_saved)),
                 "ratio");
  report->Metric("serve.mvcc.advance_p50_us", Pct(all.advance_us, 0.5), "us");
  report->Metric("serve.mvcc.advance_max_us", Pct(all.advance_us, 1.0), "us");
  report->Metric("serve.mvcc.live_versions_max", Pct(all.live_versions, 1.0),
                 "count");
  report->Metric("serve.mvcc.reclaimed",
                 static_cast<double>(server.chain().reclaimed() -
                                     reclaimed_before),
                 "count");
  report->Metric("serve.mvcc.advances", static_cast<double>(all.advances),
                 "count");

  if (traced) {
    const trace::Summary sum = trace::Collect(cfg.spans_path);
    const trace::NameStats& hit = sum.Get("serve.execute.hit");
    const trace::NameStats& topup = sum.Get("serve.execute.topup");
    const trace::NameStats& miss = sum.Get("serve.execute.miss");
    const trace::NameStats& eval = sum.Get("serve.eval");
    LatencyHistogram wait = topup.self;  // Execute minus the eval calls
    wait.Merge(miss.self);
    report->Metric("serve.execute_hit_p50_us", hit.dur.PercentileUs(0.5),
                   "us");
    report->Metric("serve.execute_hit_p99_us", hit.dur.PercentileUs(0.99),
                   "us");
    report->Metric("serve.execute_topup_p50_us", topup.dur.PercentileUs(0.5),
                   "us");
    report->Metric("serve.execute_miss_p50_us", miss.dur.PercentileUs(0.5),
                   "us");
    report->Metric("serve.execute_wait_p50_us", wait.PercentileUs(0.5), "us");
    report->Metric("serve.execute_wait_p99_us", wait.PercentileUs(0.99), "us");
    report->Metric("serve.eval_us_per_rep", eval.MeanSelfUs(), "us");
    report->Metric("serve.eval_reps", static_cast<double>(eval.count), "count");
    report->Metric("simsql.transition_us",
                   sum.Get("simsql.transition").MeanSelfUs(), "us");
    report->Metric("trace.coverage", sum.Coverage(), "ratio");
    trace::PrintSelfTimes(sum, report);
  }

  // --- correctness checks (untimed) ---
  report->Check("serve.precision_contract", all.precision_violations == 0,
                std::to_string(all.precision_violations) + " violations");
  std::map<AnswerKey, AnswerBits> canonical;
  uint64_t cross_mismatches = all.self_mismatches;
  for (const SessionResult& r : results) {
    for (const auto& [key, bits] : r.answers) {
      const auto [it, inserted] = canonical.try_emplace(key, bits);
      if (!inserted && !it->second.Same(bits)) ++cross_mismatches;
    }
  }
  report->Check("serve.cross_session_identical", cross_mismatches == 0,
                std::to_string(cross_mismatches) + " mismatches over " +
                    std::to_string(canonical.size()) + " answers");

  // Replay a sample on a fresh single-threaded server over an identically
  // seeded chain: target 0 with max_reps = the recorded reps runs exactly
  // those replications, which must reproduce the answer bit for bit.
  std::unique_ptr<Served> fresh = Build(cfg.seed, 1, 0);
  if (fresh == nullptr) {
    report->Check("serve.replay_bit_identical", false, "server start failed");
    return;
  }
  uint64_t replayed = 0;
  uint64_t replay_mismatches = 0;
  const size_t stride = std::max<size_t>(1, canonical.size() / kReplaySamples);
  size_t i = 0;
  for (const auto& [key, want] : canonical) {  // ordered by version
    if (i++ % stride != 0) continue;
    while (fresh->server->head_version() < key.version &&
           fresh->server->AdvanceVersion().ok()) {
    }
    Request req = key.shape < kHotShapes ? fresh->hot[key.shape * kRungs]
                                         : fresh->tail[key.shape - kHotShapes];
    req.version = key.version;
    req.target_half_width = 0.0;
    req.max_reps = key.reps;
    auto r = fresh->sessions[0]->Execute(req);
    ++replayed;
    if (!r.ok() ||
        !AnswerBits{r.value().estimate, r.value().half_width}.Same(want)) {
      ++replay_mismatches;
    }
  }
  report->Check("serve.replay_bit_identical",
                replayed > 0 && replay_mismatches == 0,
                std::to_string(replay_mismatches) + " of " +
                    std::to_string(replayed) + " replayed answers differ");
}

}  // namespace mdebench
