#ifndef MDE_UTIL_THREAD_POOL_H_
#define MDE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mde {

/// Work-stealing worker pool. Stands in for the MapReduce / HPC worker
/// fleets of the surveyed systems, but structured for the columnar
/// tuple-bundle kernels: each worker owns a deque of tasks (local pushes and
/// pops at the front, thieves steal from the back), so fan-out from inside a
/// pool task stays on the submitting worker's queue instead of funnelling
/// through one global lock.
///
/// Composability contract: ParallelFor / ParallelForChunks / ParallelReduce
/// and WaitAll are safe to call from INSIDE a pool task. The calling thread
/// help-runs outstanding chunks (or, for WaitAll, any queued task) instead
/// of blocking, so nested parallelism cannot deadlock — in the worst case
/// the nested call degenerates to a serial loop on the calling thread.
///
/// Determinism contract: chunk boundaries depend only on (n, grain), never
/// on the number of threads or the scheduling order, and ParallelReduce
/// combines per-chunk partials in ascending chunk order. A kernel whose
/// chunk results are position-addressed (as all the mcdb kernels are) is
/// therefore bit-identical across thread counts.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Point-in-time copy of one worker's execution counters. Readable while
  /// the pool runs (the cells are relaxed atomics updated only by their
  /// owning worker): tasks_executed counts tasks run in the worker loop,
  /// steals counts tasks taken from a sibling's deque, help_runs counts
  /// tasks the worker drained from inside WaitAll instead of blocking.
  /// queue_depth is the worker deque's CURRENT length (read under the
  /// queue lock at snapshot time, not cumulative) — the backlog signal the
  /// per-worker sample-time gauges publish.
  struct WorkerStats {
    uint64_t tasks_executed = 0;
    uint64_t steals = 0;
    uint64_t help_runs = 0;
    uint64_t queue_depth = 0;
  };

  /// Per-worker counters, index-aligned with the worker threads.
  std::vector<WorkerStats> WorkerStatsSnapshot() const;

  /// Blocks until every submitted task has finished. When called from a
  /// worker thread of this pool, help-runs queued tasks instead of
  /// blocking.
  void WaitAll();

  size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// fn must be safe to call concurrently for distinct i. Equivalent to
  /// ParallelFor(n, /*grain=*/0, fn).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// As above with an explicit grain: indices are processed in contiguous
  /// chunks of `grain` (the last chunk may be short). grain == 0 selects a
  /// default of roughly n / (8 * num_threads), clamped to >= 1. n == 0 is a
  /// no-op.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t)>& fn);

  /// Chunk-granular variant for vectorizable kernels: runs
  /// fn(chunk_index, begin, end) for each chunk [begin, end) of size
  /// `grain`. Chunk boundaries are a pure function of (n, grain).
  void ParallelForChunks(
      size_t n, size_t grain,
      const std::function<void(size_t chunk, size_t begin, size_t end)>& fn);

  /// Number of chunks ParallelForChunks / ParallelReduce will use for
  /// (n, grain) — exposed so callers can pre-size per-chunk scratch.
  size_t NumChunks(size_t n, size_t grain) const;

  /// Deterministic parallel reduction: `map(begin, end)` produces the
  /// partial result of one chunk, and partials are folded left-to-right in
  /// chunk order with `combine`, independent of thread count and timing.
  template <typename T>
  T ParallelReduce(size_t n, size_t grain, T identity,
                   const std::function<T(size_t begin, size_t end)>& map,
                   const std::function<T(T, T)>& combine) {
    if (n == 0) return identity;
    const size_t g = ResolveGrain(n, grain);
    const size_t chunks = (n + g - 1) / g;
    std::vector<T> partials(chunks, identity);
    ParallelForChunks(n, g,
                      [&partials, &map](size_t c, size_t begin, size_t end) {
                        partials[c] = map(begin, end);
                      });
    T acc = std::move(partials[0]);
    for (size_t c = 1; c < chunks; ++c) {
      acc = combine(std::move(acc), std::move(partials[c]));
    }
    return acc;
  }

 private:
  /// Completion state shared between a ParallelFor caller and its helper
  /// tasks; helpers may outlive the call (they no-op once all chunks are
  /// claimed), hence shared_ptr ownership.
  struct ForState {
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> completed{0};
    size_t num_chunks = 0;
    std::mutex mu;
    std::condition_variable done;
  };

  void WorkerLoop(size_t index);
  /// Pops from the worker's own deque or steals from a sibling.
  bool TryGetTask(size_t self, std::function<void()>* out);
  void Execute(std::function<void()>& task);
  size_t ResolveGrain(size_t n, size_t grain) const;

  /// One cache line per worker so counter updates never contend.
  struct alignas(64) WorkerCounters {
    std::atomic<uint64_t> tasks_executed{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> help_runs{0};
  };

  std::vector<std::thread> threads_;
  std::vector<WorkerCounters> worker_counters_;
  /// queues_[i] is worker i's deque; guarded by queue_mus_[i].
  std::vector<std::deque<std::function<void()>>> queues_;
  std::unique_ptr<std::mutex[]> queue_mus_;
  std::atomic<size_t> next_queue_{0};  // round-robin for external Submit
  std::atomic<size_t> pending_{0};     // queued, not yet claimed
  std::atomic<size_t> in_flight_{0};   // queued + executing
  std::atomic<bool> shutdown_{false};

  std::mutex sleep_mu_;
  std::condition_variable task_ready_;
  std::mutex wait_mu_;
  std::condition_variable all_done_;
  /// Sampler-hook registration publishing per-worker queue_depth gauges.
  /// Unregistered FIRST in the destructor — the
  /// hook runner blocks unregistration until in-flight hooks finish, so a
  /// hook can never observe a dying pool.
  uint64_t sample_hook_id_ = 0;
};

}  // namespace mde

#endif  // MDE_UTIL_THREAD_POOL_H_
