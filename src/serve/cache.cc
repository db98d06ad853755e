#include "serve/cache.h"

#include <cmath>
#include <limits>

#include "obs/context.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace mde::serve {

namespace {

/// z * s / sqrt(n) with the same tiny-n discipline as obs::CiMonitor: with
/// fewer than two draws no CLT bound exists, and a zero would satisfy every
/// precision target — the exact cache-poisoning path the monitor hardening
/// closed.
double HalfWidth(const obs::Welford& stat, double z) {
  if (stat.count() < 2) return std::numeric_limits<double>::infinity();
  return z * stat.std_error();
}

void PublishGauges(const CacheStats& s) {
  MDE_OBS_GAUGE_SET("serve.cache.entries", static_cast<double>(s.entries));
  MDE_OBS_GAUGE_SET("serve.cache.bytes", static_cast<double>(s.bytes));
  MDE_OBS_GAUGE_SET("serve.cache.pure_hits",
                    static_cast<double>(s.pure_hits));
  MDE_OBS_GAUGE_SET("serve.cache.reps_saved",
                    static_cast<double>(s.reps_saved));
}

constexpr auto kRelaxed = std::memory_order_relaxed;

}  // namespace

size_t CacheKeyHash::operator()(const CacheKey& k) const {
  uint64_t h = obs::FingerprintMix(k.query_fp, k.param_hash);
  h = obs::FingerprintMix(h, k.version);
  return static_cast<size_t>(h);
}

ResultCache::ResultCache() : ResultCache(Options()) {}

ResultCache::ResultCache(Options opts)
    : opts_(opts),
      budget_entries_(opts.max_bytes < kEntryBytes
                          ? 1
                          : opts.max_bytes / kEntryBytes) {}

Result<ResultCache::FetchResult> ResultCache::Fetch(
    const CacheKey& key, uint64_t stream_seed, double target_half_width,
    uint64_t min_reps, uint64_t max_reps, const RepFn& rep_fn) {
  if (min_reps < 2) min_reps = 2;  // a CLT bound needs n >= 2
  if (max_reps < min_reps) max_reps = min_reps;
  const auto satisfied = [&](uint64_t n, double half_width) {
    return n >= min_reps && (n >= max_reps || half_width <= target_half_width);
  };

  // Common case: a pure hit on an entry already touched this epoch,
  // answered from its published statistic under the shard lock alone. The
  // lock keeps the entry resident, so neither a reference (a contended
  // refcount) nor the entry mutex is taken.
  Shard& shard = ShardFor(key);
  FetchResult out;
  std::shared_ptr<Entry> entry;
  bool hit = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      const Entry& e = *it->second;
      MDE_CHECK_MSG(e.stream_seed == stream_seed,
                    "Fetch: stream_seed differs from the key's first Fetch");
      hit = e.last_touch_epoch.load(kRelaxed) == epoch_.load(kRelaxed) &&
            ReadPublished(e, &out) && satisfied(out.reps, out.half_width);
      if (!hit) entry = it->second;
    }
  }
  if (hit) {
    RecordPureHit(&out);
    return out;
  }
  bool inserted = false;
  if (entry == nullptr) {
    entry = Insert(shard, key, stream_seed, &inserted);
    MDE_CHECK_MSG(entry->stream_seed == stream_seed,
                  "Fetch: stream_seed differs from the key's first Fetch");
  }
  if (!inserted) {
    Touch(*entry);
    if (ReadPublished(*entry, &out) && satisfied(out.reps, out.half_width)) {
      RecordPureHit(&out);
      return out;
    }
  }

  // Per-entry critical section: every concurrent session that needs more
  // reps of this key queues here, so each replication index is computed
  // exactly once per resident entry.
  uint64_t cached_reps;
  {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    cached_reps = entry->stat.count();
    Status status;
    while (!satisfied(entry->stat.count(), HalfWidth(entry->stat, opts_.z))) {
      // Sequential Add at index n keeps the accumulator bit-identical to a
      // single session running reps 0..n-1 itself (no parallel Merge — the
      // merge order would differ from the sequential order). The cursor
      // advances only past a recorded rep, so a retry reuses the stream.
      Result<double> draw = rep_fn(entry->stat.count(), entry->cursor);
      if (!draw.ok()) {
        status = draw.status();
        break;
      }
      entry->stat.Add(draw.value());
      entry->cursor.Jump();
      ++out.reps_added;
    }
    if (out.reps_added > 0) Publish(*entry);
    if (!status.ok()) return status;
    out.estimate = entry->stat.mean();
    out.half_width = HalfWidth(entry->stat, opts_.z);
    out.reps = entry->stat.count();
  }
  out.pure_hit = out.reps_added == 0;

  if (out.pure_hit) {
    pure_hits_.fetch_add(1, kRelaxed);
    MDE_OBS_ATTR_ADD(cache_hits, 1);
  } else if (cached_reps > 0) {
    topups_.fetch_add(1, kRelaxed);
  } else {
    misses_.fetch_add(1, kRelaxed);
  }
  reps_run_.fetch_add(out.reps_added, kRelaxed);
  reps_saved_.fetch_add(cached_reps, kRelaxed);
  if (!out.pure_hit) stats();  // refreshes the serve.cache.* gauges
  return out;
}

void ResultCache::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(lru_mu_);
  epoch_.fetch_add(1, kRelaxed);
}

CacheStats ResultCache::stats() const {
  CacheStats s;
  s.pure_hits = pure_hits_.load(kRelaxed);
  s.topups = topups_.load(kRelaxed);
  s.misses = misses_.load(kRelaxed);
  s.reps_run = reps_run_.load(kRelaxed);
  s.reps_saved = reps_saved_.load(kRelaxed);
  s.evictions = evictions_.load(kRelaxed);
  s.entries = entries_.load(kRelaxed);
  s.bytes = s.entries * kEntryBytes;
  PublishGauges(s);
  return s;
}

ResultCache::Shard& ResultCache::ShardFor(const CacheKey& key) {
  // High bits: the shard maps bucket by the low bits of the same hash.
  return shards_[CacheKeyHash()(key) >>
                 (std::numeric_limits<size_t>::digits - kShardBits)];
}

std::shared_ptr<ResultCache::Entry> ResultCache::Insert(Shard& shard,
                                                       const CacheKey& key,
                                                       uint64_t stream_seed,
                                                       bool* inserted) {
  auto entry = std::make_shared<Entry>(key, stream_seed);
  std::lock_guard<std::mutex> lru_lock(lru_mu_);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto [it, fresh] = shard.map.try_emplace(key, entry);
    if (!fresh) {  // another session inserted it since the caller's lookup
      *inserted = false;
      return it->second;
    }
  }
  *inserted = true;
  entry->last_touch_epoch.store(epoch_.load(kRelaxed), kRelaxed);
  entry->pos = lru_.insert(lru_.end(), entry);
  EvictIfNeededLocked();
  return entry;
}

bool ResultCache::ReadPublished(const Entry& entry, FetchResult* out) {
  // Seqlock read: a torn read (a top-up publishing right now) fails, and
  // the caller takes the locked path.
  const uint64_t seq = entry.seq.load(std::memory_order_acquire);
  out->reps = entry.pub_n.load(kRelaxed);
  out->estimate = entry.pub_mean.load(kRelaxed);
  out->half_width = entry.pub_half_width.load(kRelaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  return (seq & 1) == 0 && entry.seq.load(kRelaxed) == seq;
}

void ResultCache::RecordPureHit(FetchResult* out) {
  out->pure_hit = true;
  pure_hits_.fetch_add(1, kRelaxed);
  reps_saved_.fetch_add(out->reps, kRelaxed);
  MDE_OBS_ATTR_ADD(cache_hits, 1);
}

void ResultCache::Touch(Entry& entry) {
  if (entry.last_touch_epoch.load(kRelaxed) == epoch_.load(kRelaxed)) return;
  std::lock_guard<std::mutex> lock(lru_mu_);
  const uint64_t epoch = epoch_.load(kRelaxed);
  if (!entry.resident || entry.last_touch_epoch.load(kRelaxed) == epoch) {
    return;
  }
  entry.last_touch_epoch.store(epoch, kRelaxed);
  lru_.splice(lru_.end(), lru_, entry.pos);
}

void ResultCache::EvictIfNeededLocked() {
  // The list is in last-touch-epoch order, so the front is the stalest
  // entry. Never evict one touched this epoch — that set includes the entry
  // the current Fetch just created — so the budget may be exceeded until
  // the next AdvanceEpoch.
  const uint64_t epoch = epoch_.load(kRelaxed);
  while (lru_.size() > budget_entries_ &&
         lru_.front()->last_touch_epoch.load(kRelaxed) < epoch) {
    const std::shared_ptr<Entry> victim = std::move(lru_.front());
    lru_.pop_front();
    victim->resident = false;
    {
      Shard& shard = ShardFor(victim->key);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.erase(victim->key);
    }
    evictions_.fetch_add(1, kRelaxed);
    MDE_OBS_COUNT("serve.cache.evictions", 1);
  }
  entries_.store(lru_.size(), kRelaxed);
}

void ResultCache::Publish(Entry& entry) const {
  // Seqlock write: odd while the three values change. Only the holder of
  // entry.mu writes, so a plain load/store pair bumps the sequence.
  const uint64_t seq = entry.seq.load(kRelaxed);
  entry.seq.store(seq + 1, kRelaxed);
  std::atomic_thread_fence(std::memory_order_release);
  entry.pub_n.store(entry.stat.count(), kRelaxed);
  entry.pub_mean.store(entry.stat.mean(), kRelaxed);
  entry.pub_half_width.store(HalfWidth(entry.stat, opts_.z), kRelaxed);
  entry.seq.store(seq + 2, std::memory_order_release);
}

}  // namespace mde::serve
