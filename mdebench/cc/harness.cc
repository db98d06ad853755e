#include "harness.h"

#include "util/thread_pool.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

namespace mdebench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  std::printf("metric %s %.9g %s\n", name.c_str(), value, unit.c_str());
}

void Report::Info(const std::string& key, const std::string& value) {
  std::printf("info %s %s\n", key.c_str(), value.c_str());
}

bool Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  ++attempted_;
  if (!ok) ++failed_;
  std::printf("check %s %s %s\n", name.c_str(), ok ? "pass" : "FAIL",
              detail.c_str());
  return ok;
}

void Report::Ops(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::PrintTotals() const {
  std::printf("totals %llu %llu\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpinFor(uint64_t ns) {
  const uint64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(q * static_cast<double>(v->size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*v)[std::min(idx, v->size() - 1)];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

KsResult KsTwoSample(std::vector<double> a, std::vector<double> b) {
  KsResult r;
  if (a.empty() || b.empty()) return r;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    r.d = std::max(r.d, std::fabs(static_cast<double>(i) / na -
                                  static_cast<double>(j) / nb));
  }
  // Asymptotic Kolmogorov distribution with the small-sample correction
  // of Stephens (1970).
  const double en = std::sqrt(na * nb / (na + nb));
  const double lambda = (en + 0.12 + 0.11 / en) * r.d;
  double sum = 0.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    sum += (k % 2 == 1 ? 2.0 : -2.0) * term;
    if (term < 1e-12) break;
  }
  r.p = std::clamp(sum, 0.0, 1.0);
  if (lambda < 0.2) r.p = 1.0;  // the series does not converge near 0
  return r;
}

uint64_t StealTicks() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

double StealShare(uint64_t steal_ticks, uint64_t ns, unsigned cpus) {
  const double cpu_ticks = static_cast<double>(ns) * 1e-9 * 100.0 * cpus;
  return cpu_ticks > 0.0 ? static_cast<double>(steal_ticks) / cpu_ticks : 0.0;
}

std::vector<uint64_t> PoolTotals(const mde::ThreadPool& pool) {
  std::vector<uint64_t> t(3, 0);
  for (const auto& w : pool.WorkerStatsSnapshot()) {
    t[0] += w.tasks_executed;
    t[1] += w.steals;
    t[2] += w.help_runs;
  }
  return t;
}

void ReportPoolDeltas(const std::vector<uint64_t>& before,
                      const std::vector<uint64_t>& after, uint64_t ops,
                      Report* report) {
  const double per_op = 1.0 / static_cast<double>(std::max<uint64_t>(1, ops));
  const char* names[] = {"thread_pool.tasks", "thread_pool.steals",
                         "thread_pool.help_runs"};
  for (size_t i = 0; i < 3; ++i) {
    report->Metric(names[i], static_cast<double>(after[i] - before[i]) * per_op,
                   "count/op");
  }
}

StealSampler::StealSampler(uint64_t start_ns, uint64_t deadline_ns)
    : ticks_{StealTicks()} {
  thread_ = std::thread([this, start_ns, deadline_ns] {
    for (uint64_t at = start_ns + kWindowNs; at <= deadline_ns;
         at += kWindowNs) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(at)));
      ticks_.push_back(StealTicks());
    }
  });
}

StealSampler::~StealSampler() {
  if (thread_.joinable()) thread_.join();
}

std::vector<uint64_t> StealSampler::Finish() {
  if (thread_.joinable()) thread_.join();
  return ticks_;
}

namespace {
// Per-window latency histograms: 3% buckets up to about 1 s.
constexpr int kWindowSubBits = 5;
constexpr int kWindowMaxExp = 30;
}  // namespace

WindowedOps::WindowedOps(uint64_t start_ns, double seconds)
    : start_ns_(start_ns), last_end_ns_(start_ns) {
  const size_t n = static_cast<size_t>(seconds * 1e9 / kWindowNs) + 1;
  windows_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    windows_.push_back(
        Window{0, 0, LatencyHistogram(kWindowSubBits, kWindowMaxExp)});
  }
}

void WindowedOps::Add(uint64_t t0, uint64_t t1) {
  const size_t w = (t0 - start_ns_) / kWindowNs;
  if (w < windows_.size()) {
    Window& win = windows_[w];
    ++win.ops;
    win.cycle_ns += t1 - last_end_ns_;
    win.latency.Add(t1 - t0);
  }
  last_end_ns_ = t1;
}

void ReportWindows(const std::vector<const WindowedOps*>& clients,
                   const std::vector<uint64_t>& steal, unsigned cpus,
                   Report* report) {
  // Full windows: every client was still running at the window's end.
  size_t full = steal.empty() ? 0 : steal.size() - 1;
  for (const WindowedOps* c : clients) {
    full = std::min<size_t>({full, c->windows_.size(),
                             (c->last_end_ns_ - c->start_ns_) / kWindowNs});
  }
  std::vector<size_t> idx(full);
  std::vector<double> share(full);
  for (size_t i = 0; i < full; ++i) {
    idx[i] = i;
    share[i] = StealShare(steal[i + 1] - steal[i], kWindowNs, cpus);
  }
  std::stable_sort(idx.begin(), idx.end(),
                   [&](size_t a, size_t b) { return share[a] < share[b]; });
  size_t quiet = 0;
  while (quiet < full && share[idx[quiet]] <= 0.02) ++quiet;
  const size_t eighth = (full + 7) / 8;
  idx.resize(std::max(quiet, eighth));

  double per_s = 0.0;
  LatencyHistogram latency(kWindowSubBits, kWindowMaxExp);
  for (const WindowedOps* c : clients) {
    uint64_t ops = 0;
    uint64_t cycle_ns = 0;
    for (size_t i : idx) {
      const WindowedOps::Window& w = c->windows_[i];
      ops += w.ops;
      cycle_ns += w.cycle_ns;
      latency.Merge(w.latency);
    }
    if (cycle_ns > 0) per_s += static_cast<double>(ops) * 1e9 / cycle_ns;
  }
  report->Info("steal.filter",
               quiet >= eighth ? "clean" : "least_stolen_eighth");
  report->Info("steal.windows_used",
               std::to_string(idx.size()) + "/" + std::to_string(full));
  report->Metric("ops_per_s", per_s, "op/s");
  report->Metric("latency_p50_us", latency.PercentileUs(0.50), "us");
  report->Metric("latency_p90_us", latency.PercentileUs(0.90), "us");
  report->Metric("latency_p99_us", latency.PercentileUs(0.99), "us");
}

void LatencyHistogram::Add(uint64_t ns) {
  ns = std::min<uint64_t>(ns, (1ull << max_exp_) - 1);
  size_t idx = ns;
  if (ns >= (1ull << sub_bits_)) {
    const int e = 63 - __builtin_clzll(ns);
    idx = (static_cast<size_t>(e - sub_bits_ + 1) << sub_bits_) +
          ((ns >> (e - sub_bits_)) & ((1ull << sub_bits_) - 1));
  }
  ++counts_[idx];
  ++total_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LatencyHistogram::PercentileUs(double q) const {
  if (total_ == 0) return 0.0;
  const double rank =
      std::max(1.0, std::ceil(q * static_cast<double>(total_)));
  double below = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (c == 0.0 || below + c < rank) {
      below += c;
      continue;
    }
    const size_t block = i >> sub_bits_;
    double lo = static_cast<double>(i);
    double width = 1.0;
    if (block > 0) {
      const double scale = std::ldexp(1.0, static_cast<int>(block) - 1);
      lo = static_cast<double>((1ull << sub_bits_) +
                               (i & ((1ull << sub_bits_) - 1))) *
           scale;
      width = scale;
    }
    return (lo + (rank - below - 0.5) / c * width) * 1e-3;
  }
  return 0.0;
}

namespace trace {
namespace {

constexpr size_t kKeptSpans = 50000;  // raw spans kept per thread

struct Rec {
  const char* name;
  int64_t parent;  // index into the same thread's records; -1 = op root
  uint64_t op;
  uint64_t start_ns;
  uint64_t end_ns;
};

struct Open {
  const char* name;
  uint64_t start_ns;
  uint64_t child_ns;  // summed durations of finished children
  int64_t rec;        // index in recs, or -1 when not kept
};

struct ThreadBuf {
  std::vector<Open> stack;
  std::vector<Rec> recs;
  /// Keyed by the name literal's address: few names, linear search.
  std::vector<std::pair<const char*, std::unique_ptr<NameStats>>> stats;
  uint64_t op = 0;
  uint64_t ops = 0;
  uint64_t spans = 0;
  double op_total_ns = 0.0;
  double op_unaccounted_ns = 0.0;

  NameStats& StatsFor(const char* name) {
    for (auto& [n, st] : stats) {
      if (n == name) return *st;
    }
    stats.emplace_back(name, std::make_unique<NameStats>());
    return *stats.back().second;
  }
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_op{1};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu

ThreadBuf& Buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    buf = g_bufs.back().get();
  }
  return *buf;
}

const char* BeginOp(const char* name) {
  if (g_enabled.load(std::memory_order_relaxed)) {
    Buf().op = g_next_op.fetch_add(1, std::memory_order_relaxed);
  }
  return name;
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void NameStats::Merge(const NameStats& o) {
  dur.Merge(o.dur);
  self.Merge(o.self);
  self_total_ns += o.self_total_ns;
  count += o.count;
}

Span::Span(const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuf& b = Buf();
  const uint64_t now = NowNs();
  int64_t rec = -1;
  if (b.recs.size() < kKeptSpans) {
    rec = static_cast<int64_t>(b.recs.size());
    b.recs.push_back(
        Rec{name, b.stack.empty() ? -1 : b.stack.back().rec, b.op, now, 0});
  }
  depth_ = static_cast<int64_t>(b.stack.size());
  b.stack.push_back(Open{name, now, 0, rec});
}

void Span::Rename(const char* name) {
  if (depth_ < 0) return;
  Open& open = Buf().stack[static_cast<size_t>(depth_)];
  open.name = name;
  if (open.rec >= 0) Buf().recs[static_cast<size_t>(open.rec)].name = name;
}

Span::~Span() {
  if (depth_ < 0) return;
  ThreadBuf& b = Buf();
  const uint64_t now = NowNs();
  const Open open = b.stack.back();  // spans nest: this is the top
  b.stack.pop_back();
  const uint64_t dur = now - open.start_ns;
  const uint64_t self = dur > open.child_ns ? dur - open.child_ns : 0;
  if (open.rec >= 0) b.recs[static_cast<size_t>(open.rec)].end_ns = now;
  NameStats& st = b.StatsFor(open.name);
  st.dur.Add(dur);
  st.self.Add(self);
  st.self_total_ns += static_cast<double>(self);
  ++st.count;
  ++b.spans;
  if (b.stack.empty()) {
    ++b.ops;
    b.op_total_ns += static_cast<double>(dur);
    b.op_unaccounted_ns += static_cast<double>(self);
  } else {
    b.stack.back().child_ns += dur;
  }
}

OpSpan::OpSpan(const char* name) : span_(BeginOp(name)) {}

const NameStats& Summary::Get(const std::string& name) const {
  static const NameStats kEmpty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

Summary Collect(const std::string& spans_path) {
  Summary s;
  FILE* out =
      spans_path.empty() ? nullptr : std::fopen(spans_path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "thread\top\tspan\tparent\tname\tstart_ns\tend_ns\n");
  }
  std::lock_guard<std::mutex> lock(g_mu);
  for (size_t t = 0; t < g_bufs.size(); ++t) {
    const ThreadBuf& b = *g_bufs[t];
    for (const auto& [name, st] : b.stats) s.by_name[name].Merge(*st);
    s.ops += b.ops;
    s.spans += b.spans;
    s.op_total_ns += b.op_total_ns;
    s.op_unaccounted_ns += b.op_unaccounted_ns;
    for (size_t i = 0; out != nullptr && i < b.recs.size(); ++i) {
      const Rec& r = b.recs[i];
      std::fprintf(out, "%zu\t%llu\t%zu\t%lld\t%s\t%llu\t%llu\n", t,
                   static_cast<unsigned long long>(r.op), i,
                   static_cast<long long>(r.parent), r.name,
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
      ++s.spans_written;
    }
  }
  if (out != nullptr) std::fclose(out);
  return s;
}

void PrintSelfTimes(const Summary& s, Report* report) {
  const double ops = s.ops > 0 ? static_cast<double>(s.ops) : 1.0;
  for (const auto& [name, ns] : s.by_name) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.4f", ns.self_total_ns / ops * 1e-3);
    report->Info("self_us_per_op." + name, buf);
  }
  report->Info("trace.ops", std::to_string(s.ops));
  report->Info("trace.spans", std::to_string(s.spans));
  report->Info("trace.spans_written", std::to_string(s.spans_written));
}

}  // namespace trace
}  // namespace mdebench
