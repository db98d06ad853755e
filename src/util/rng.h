#ifndef MDE_UTIL_RNG_H_
#define MDE_UTIL_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace mde {

/// SplitMix64: used to seed Xoshiro state from a single 64-bit seed.
/// Reference: Vigna, http://prng.di.unimi.it/splitmix64.c.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Xoshiro256++ pseudorandom generator. Fast, high-quality, with a 2^256-1
/// period and an efficient jump function that partitions the stream into
/// 2^128 non-overlapping substreams — the property we rely on for
/// reproducible parallel Monte Carlo (each worker/replication gets its own
/// substream). Satisfies the C++ UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four state words from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x1234abcd5678efULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 random bits.
  result_type operator()() { return Next(); }
  uint64_t Next();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, bound) with no modulo bias (Lemire's method).
  uint64_t NextBounded(uint64_t bound);

  /// Advances this generator by 2^128 steps. Calling Jump() k times on a
  /// fresh generator yields the start of substream k.
  void Jump();

  /// Returns a generator positioned at substream `index` relative to `seed`:
  /// seeding then calling Jump() `index` times, so it costs O(index) jumps
  /// of 256 steps each. A loop over replications 0..n-1 should step one
  /// running generator with Jump() instead of calling this per rep, which
  /// would be O(n^2).
  static Rng Substream(uint64_t seed, uint64_t index);

  /// The four Xoshiro256++ state words. Exporting and re-importing the
  /// state positions a generator exactly where it was — the basis of the
  /// checkpoint/restart layer's bit-identical replay (src/ckpt).
  using State = std::array<uint64_t, 4>;
  State state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const State& s) {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  uint64_t s_[4];
};

/// Batched variate generator over the SIMD kernel layer: four interleaved
/// xoshiro256++ lanes advanced simd::kRngBatch (= 64) draws at a time, with
/// the raw bits mapped to uniforms or Box-Muller normals by the dispatched
/// block kernels. The produced stream is a pure function of the seeding Rng
/// and the sequence of calls — independent of dispatch tier (bitwise, see
/// simd/simd.h) and of how consumers chunk their Fill requests.
///
/// This is deliberately NOT the same stream as Rng::NextDouble() or the
/// scalar one-at-a-time samplers; consumers switching to BatchRng change
/// their sampled values (but not their distribution). Within BatchRng the
/// stream is stable and reproducible.
class BatchRng {
 public:
  /// Seeds the four lanes by drawing exactly four values from `seeder`
  /// (advancing it deterministically), each expanded to a lane state via
  /// SplitMix64.
  explicit BatchRng(Rng& seeder);

  /// Next uniform draw in [0, 1).
  double NextUniform();
  /// Next standard normal draw.
  double NextNormal();

  /// Fills out[0..n) with the next n uniforms in [0, 1). Full 64-draw
  /// blocks are written directly to `out`; partial blocks go through an
  /// internal buffer, so chunking does not change the stream.
  void FillUniform(double* out, size_t n);
  /// Fills out[0..n) with the next n standard normals.
  void FillNormal(double* out, size_t n);

 private:
  void RefillUniform();
  void RefillNormal();

  alignas(64) uint64_t state_[16];  // lane l word w at state_[w * 4 + l]
  alignas(64) uint64_t raw_[simd::kRngBatch];
  alignas(64) double uni_[simd::kRngBatch];
  alignas(64) double nrm_[simd::kRngBatch];
  size_t upos_ = simd::kRngBatch;  // buffer drained
  size_t npos_ = simd::kRngBatch;
};

}  // namespace mde

#endif  // MDE_UTIL_RNG_H_
