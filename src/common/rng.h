// Deterministic pseudo-random number generation.
//
// All data generation (SSB dbgen, random-access workloads) uses this
// splitmix64/xoshiro-style generator so that results are reproducible across
// platforms and standard-library versions (std::mt19937 distributions are not
// portable across implementations).
#pragma once

#include <cstdint>

namespace pmemolap {

/// A small, fast, deterministic 64-bit PRNG (splitmix64 core).
///
/// Not cryptographically secure; intended for workload and data generation.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same seed produce the
  /// same sequence on every platform.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL) : state_(seed) {}

  /// Returns the next 64 uniformly distributed bits.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound) { return Next() % bound; }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli draw with probability p of returning true.
  bool NextBool(double p) { return NextDouble() < p; }

  /// Derives an independent child generator; used to give each table /
  /// column / thread its own stream.
  Rng Fork(uint64_t stream_id) {
    return Rng(Next() ^ (stream_id * 0xD2B74407B1CE6E93ULL + 0x9E3779B9ULL));
  }

 private:
  uint64_t state_;
};

}  // namespace pmemolap
