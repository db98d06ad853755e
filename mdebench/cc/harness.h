#ifndef MDEBENCH_HARNESS_H_
#define MDEBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace mde {
class ThreadPool;
}  // namespace mde

/// Shared pieces of the benchmark runner: run configuration, the line
/// protocol run.py parses, timing and statistics helpers, and
/// the in-memory span recorder used by traced runs.
namespace mdebench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  /// Measured window, seconds (set-up and correctness checks excluded).
  double seconds = 10.0;
  bool trace = false;
  /// Sessions / pool workers: min(4, nproc).
  unsigned threads = 4;
  /// CPUs of the machine (steal is summed over all of them).
  unsigned cpus = 1;
  /// Busy-wait injected into the benchmark-owned replication function and
  /// chain transitions (attribution self-test); 0 in normal runs.
  uint64_t inject_ns = 0;
  /// Where a traced run writes its spans (TSV), relative to the checkout
  /// root: .bench_build/records/<workload>-seed<N>-<simd tier>-spans.tsv.
  std::string spans_path;
};

/// Set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 21;

/// Line protocol on stdout, one record per line:
///   metric <name> <value> <unit>
///   check <name> <pass|FAIL> <detail>
///   info <key> <value>
///   totals <attempted> <failed>
/// Operations and correctness checks both count toward attempted/failed.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& key, const std::string& value);
  /// Counts one correctness check; returns `ok`.
  bool Check(const std::string& name, bool ok, const std::string& detail);
  void Ops(uint64_t attempted, uint64_t failed);
  void PrintTotals() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

uint64_t NowNs();
/// Spins (no sleep) for `ns` nanoseconds.
void SpinFor(uint64_t ns);

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 when empty. Sorts `v`.
double Percentile(std::vector<double>* v, double q);
double PeakRssMb();

/// Two-sample Kolmogorov-Smirnov test: statistic D and asymptotic p-value.
struct KsResult {
  double d = 0.0;
  double p = 1.0;
};
KsResult KsTwoSample(std::vector<double> a, std::vector<double> b);

/// Log-linear latency histogram: 2^sub_bits linear buckets per power of
/// two (0.4% resolution at the default 8) up to 2^max_exp ns, where longer
/// samples are clamped. Recording is O(1) and memory does not grow with the
/// number of samples. Percentiles interpolate within a bucket.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(int sub_bits = 8, int max_exp = 40)
      : sub_bits_(sub_bits),
        max_exp_(max_exp),
        counts_(static_cast<size_t>(max_exp - sub_bits + 1) << sub_bits) {}

  void Add(uint64_t ns);
  /// `other` must have the same sub_bits and max_exp.
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return total_; }
  /// Nearest-rank percentile in microseconds; 0 when empty.
  double PercentileUs(double q) const;

 private:
  int sub_bits_;
  int max_exp_;
  std::vector<uint32_t> counts_;
  uint64_t total_ = 0;
};

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run ("steal" in /proc/stat), in USER_HZ ticks summed over all
/// CPUs; 0 where the counter is unavailable.
uint64_t StealTicks();

/// Share of the CPU time of `ns` nanoseconds on `cpus` CPUs that the
/// hypervisor stole.
double StealShare(uint64_t steal_ticks, uint64_t ns, unsigned cpus);

/// Summed ThreadPool worker counters: tasks, steals, help runs.
std::vector<uint64_t> PoolTotals(const mde::ThreadPool& pool);
/// Emits thread_pool.{tasks,steals,help_runs} per operation between two
/// PoolTotals readings.
void ReportPoolDeltas(const std::vector<uint64_t>& before,
                      const std::vector<uint64_t>& after, uint64_t ops,
                      Report* report);

/// End-to-end metrics are taken over fixed wall-clock windows of this
/// length. On a shared host, a window in which another guest held the
/// physical CPUs measures the host, not the program, so windows are kept or
/// dropped by the steal during them, never by an operation's own length.
constexpr uint64_t kWindowNs = 250'000'000;

/// Reads StealTicks() at construction and then at every window boundary up
/// to `deadline_ns`, on a thread of its own that sleeps in between.
class StealSampler {
 public:
  StealSampler(uint64_t start_ns, uint64_t deadline_ns);
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Waits for the last boundary; element k is the reading at
  /// start_ns + k * kWindowNs.
  std::vector<uint64_t> Finish();

 private:
  std::vector<uint64_t> ticks_;
  std::thread thread_;
};

/// One closed-loop client's operations, binned by the window in which each
/// started. Memory is fixed by the run length, not by the operation count.
class WindowedOps {
 public:
  WindowedOps(uint64_t start_ns, double seconds);
  /// Records an operation that ran from `t0` to `t1`. The client's time
  /// since its previous operation ended (or since start) counts as its busy
  /// time in the window, so the client's bookkeeping between operations is
  /// charged to throughput.
  void Add(uint64_t t0, uint64_t t1);

 private:
  friend void ReportWindows(const std::vector<const WindowedOps*>&,
                            const std::vector<uint64_t>&, unsigned, Report*);
  struct Window {
    uint64_t ops = 0;
    uint64_t cycle_ns = 0;
    LatencyHistogram latency;
  };
  uint64_t start_ns_;
  uint64_t last_end_ns_;
  std::vector<Window> windows_;
};

/// Emits ops_per_s, latency_p50/p90/p99_us and the steal.filter /
/// steal.windows_used info lines over the full windows that every client
/// lived through and that lost at most 2% of their CPU time to steal. When
/// fewer than an eighth of the windows are that quiet, the least-stolen
/// eighth is used: serve_mixed loses 1.5 to 2 times the stolen share in
/// throughput (lock holders get descheduled), so a larger fallback share
/// pulls in windows that read low. ops_per_s sums the clients' operations
/// per busy second over those windows. `steal` comes from
/// StealSampler::Finish.
void ReportWindows(const std::vector<const WindowedOps*>& clients,
                   const std::vector<uint64_t>& steal, unsigned cpus,
                   Report* report);

/// Benchmark-owned tracing. Spans are recorded only from the benchmark's
/// own code, around its calls into each mde layer; each records name,
/// start, end and parent, and carries the id of the operation it belongs
/// to. Recording is per thread and lock-free after a thread's first span.
/// Every span is folded into per-name duration and self-time histograms
/// when it ends; the first kKeptSpans spans of each thread are also kept
/// raw and written out by Collect.
namespace trace {

void Enable(bool on);
bool Enabled();

class Span {
 public:
  /// `name` must be a string literal (stored by pointer).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Renames the span before it ends (e.g. by the outcome of the call).
  void Rename(const char* name);

 private:
  int64_t depth_ = -1;  // position on this thread's open-span stack
};

/// Root span of one operation: starts a fresh operation id on this thread.
class OpSpan {
 public:
  explicit OpSpan(const char* name);
  ~OpSpan() = default;
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  Span span_;
};

/// Per-name aggregate over all recorded spans.
struct NameStats {
  LatencyHistogram dur;
  LatencyHistogram self;  // duration minus the children's durations
  double self_total_ns = 0.0;
  uint64_t count = 0;

  void Merge(const NameStats& o);
  double MeanSelfUs() const {
    return count > 0 ? self_total_ns / static_cast<double>(count) * 1e-3 : 0.0;
  }
};

struct Summary {
  std::map<std::string, NameStats> by_name;
  uint64_t ops = 0;
  double op_total_ns = 0.0;
  /// Time inside operation roots not covered by any layer span.
  double op_unaccounted_ns = 0.0;
  uint64_t spans = 0;
  uint64_t spans_written = 0;

  /// Share of traced operation time covered by layer spans.
  double Coverage() const {
    return op_total_ns > 0.0 ? 1.0 - op_unaccounted_ns / op_total_ns : 0.0;
  }
  const NameStats& Get(const std::string& name) const;
};

/// Merges every thread's aggregates (call after all recording threads are
/// joined) and writes the kept raw spans to `spans_path` when non-empty.
Summary Collect(const std::string& spans_path);

/// Emits `<prefix>.self_us_per_op` info lines for every span name.
void PrintSelfTimes(const Summary& s, Report* report);

}  // namespace trace

/// Entry points of the three workloads (one translation unit each).
void RunServeMixed(const Config& cfg, Report* report);
void RunMcdbBatch(const Config& cfg, Report* report);
void RunChainQuery(const Config& cfg, Report* report);

}  // namespace mdebench

#endif  // MDEBENCH_HARNESS_H_
