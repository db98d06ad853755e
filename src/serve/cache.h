#ifndef MDE_SERVE_CACHE_H_
#define MDE_SERVE_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/stat.h"
#include "util/rng.h"
#include "util/status.h"

/// CLT-bounded Monte Carlo result cache — the paper's result-caching idea
/// (MCDB Fig. 2) promoted to a shared, multi-session structure. A cached
/// answer is not a number but a SUFFICIENT STATISTIC: the Welford (n, mean,
/// m2) of the per-replication draws, from which mean and CLT half-width
/// z*s/sqrt(n) are recovered at any time. That makes precision negotiable
/// after the fact:
///
///   - a request whose target half-width is LOOSER than the cached bound is
///     a pure hit — zero replications run;
///   - a TIGHTER request spends only the incremental replications, resuming
///     the substream at index n (the cache never re-runs reps it has).
///
/// Bit-identity contract: replication i of a key is handed the generator
/// Rng::Substream(stream_seed, i), and its value must be a pure function of
/// (key, i, that generator). Each entry keeps a cursor already positioned
/// at substream n, so a top-up pays one Jump() per added rep rather than
/// re-seeking from substream 0. Top-ups Add draws sequentially in index
/// order, so a cache-assembled answer at n reps is bit-identical to a fresh
/// session running reps 0..n-1 itself. A per-entry mutex serializes
/// top-ups: each replication index is computed exactly once per resident
/// entry (an entry evicted mid-top-up still answers its caller; a later
/// request rebuilds the key from rep 0, with the same bits).
///
/// Every request costs O(1) in cached reps and resident entries:
///   - the index is 16 mutex-striped shards, picked by the hash's high bits;
///   - after each top-up the entry publishes (n, mean, half-width) through a
///     seqlock, and a request that snapshot already satisfies is answered
///     under the shard lock alone, taking neither the entry mutex nor a
///     reference — so a looser-precision hit never queues behind a running
///     top-up;
///   - eviction pops the front of one list kept in last-touch-epoch order.
///
/// Keys include the database version (serve/mvcc.h), so advancing the chain
/// naturally starts new entries; old-version entries age out stalest-first.
namespace mde::serve {

/// Identity of one cacheable answer.
struct CacheKey {
  uint64_t query_fp = 0;    // query structure (plan/spec fingerprint)
  uint64_t param_hash = 0;  // bound parameter values
  uint64_t version = 0;     // database version the answer is about
  bool operator==(const CacheKey& o) const {
    return query_fp == o.query_fp && param_hash == o.param_hash &&
           version == o.version;
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const;
};

/// Point-in-time counters (monotonic except bytes/entries).
struct CacheStats {
  uint64_t pure_hits = 0;   // answered without running any replication
  uint64_t topups = 0;      // hit the entry but ran incremental reps
  uint64_t misses = 0;      // entry did not exist
  uint64_t reps_run = 0;    // total replications executed through Fetch
  uint64_t reps_saved = 0;  // cached reps reused (sum of n at hit time)
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

class ResultCache {
 public:
  struct Options {
    /// Resident budget; eviction runs when exceeded. Each entry costs a
    /// fixed ~kEntryBytes (the sufficient statistic is O(1)).
    size_t max_bytes = 1u << 20;
    /// Two-sided normal critical value for the half-width (95% default).
    double z = 1.959964;
  };

  /// Estimated resident cost of one entry (key + Welford + bookkeeping +
  /// hash-table overhead). An estimate, not an accounting identity; it
  /// exists so max_bytes translates into an entry budget.
  static constexpr size_t kEntryBytes = 160;

  ResultCache();
  explicit ResultCache(Options opts);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Runs replication `rep_index` with `rng` == Rng::Substream(stream_seed,
  /// rep_index); the result must be a pure function of the key, the index
  /// and that generator.
  using RepFn = std::function<Result<double>(uint64_t rep_index, Rng rng)>;

  struct FetchResult {
    double estimate = 0.0;
    double half_width = 0.0;  // z * s / sqrt(n); +inf when n < 2
    uint64_t reps = 0;        // total reps backing the answer
    uint64_t reps_added = 0;  // reps this call executed
    bool pure_hit = false;    // no replication ran
  };

  /// Returns an answer for `key` whose half-width is <= target_half_width
  /// if that is reachable within max_reps, running at most the missing
  /// replications via `rep_fn`. At least min_reps replications always back
  /// the answer (a CLT bound needs n >= 2; callers choose higher floors).
  /// `stream_seed` names the replication substreams of `key`; every call
  /// for one key must pass the same value (checked). On a rep_fn error the
  /// failed rep is not recorded and the error is returned; reps already
  /// recorded stay cached, and a retry hands the failed rep the same stream.
  Result<FetchResult> Fetch(const CacheKey& key, uint64_t stream_seed,
                            double target_half_width, uint64_t min_reps,
                            uint64_t max_reps, const RepFn& rep_fn);

  /// Ages every entry one epoch — call when a new database version is
  /// installed. Eviction takes the entry touched longest ago first and
  /// never one touched in the current epoch, so superseded-version entries
  /// go first.
  void AdvanceEpoch();

  CacheStats stats() const;

 private:
  struct Entry;
  using EntryList = std::list<std::shared_ptr<Entry>>;

  struct Entry {
    Entry(const CacheKey& k, uint64_t seed)
        : key(k), stream_seed(seed), cursor(seed) {}

    const CacheKey key;
    const uint64_t stream_seed;

    std::mutex mu;      // serializes top-ups for this key
    obs::Welford stat;  // guarded by mu
    /// Guarded by mu; always Rng::Substream(stream_seed, stat.count()).
    Rng cursor;

    /// Seqlock-published (n, mean, half-width), written under mu after each
    /// top-up: odd `seq` while a write is in progress.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> pub_n{0};
    std::atomic<double> pub_mean{0.0};
    std::atomic<double> pub_half_width{0.0};

    /// Written under lru_mu_; read without it to skip the lock on repeat
    /// touches within an epoch.
    std::atomic<uint64_t> last_touch_epoch{0};
    bool resident = true;    // guarded by lru_mu_
    EntryList::iterator pos;  // guarded by lru_mu_; valid while resident
  };

  /// One stripe of the index. Aligned so that shard mutexes do not share
  /// cache lines.
  struct alignas(64) Shard {
    std::mutex mu;
    std::unordered_map<CacheKey, std::shared_ptr<Entry>, CacheKeyHash> map;
  };
  static constexpr int kShardBits = 4;
  static constexpr size_t kShards = size_t{1} << kShardBits;

  Shard& ShardFor(const CacheKey& key);
  /// Creates the entry for `key` in `shard` (and evicts), or returns the
  /// one another session created first; `*inserted` says which.
  std::shared_ptr<Entry> Insert(Shard& shard, const CacheKey& key,
                                uint64_t stream_seed, bool* inserted);
  /// Fills `out` from the entry's published statistic; false on a torn read.
  static bool ReadPublished(const Entry& entry, FetchResult* out);
  void RecordPureHit(FetchResult* out);  // marks `out` and counts it
  /// Moves `entry` to the back of the list on its first touch this epoch.
  void Touch(Entry& entry);
  void EvictIfNeededLocked();  // requires lru_mu_
  void Publish(Entry& entry) const;  // requires entry.mu

  const Options opts_;
  const size_t budget_entries_;
  std::array<Shard, kShards> shards_;

  /// Lock order: lru_mu_ before any shard mutex; entry mutexes are never
  /// held together with either.
  std::mutex lru_mu_;
  EntryList lru_;  // guarded by lru_mu_; oldest last-touch epoch first
  std::atomic<uint64_t> epoch_{0};  // written under lru_mu_
  std::atomic<size_t> entries_{0};  // == lru_.size(), written under lru_mu_

  std::atomic<uint64_t> pure_hits_{0};
  std::atomic<uint64_t> topups_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> reps_run_{0};
  std::atomic<uint64_t> reps_saved_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace mde::serve

#endif  // MDE_SERVE_CACHE_H_
