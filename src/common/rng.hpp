// Deterministic random number generation.
//
// All randomness in the reproduction flows through seeded instances of
// Xoshiro256** (seeded via SplitMix64), so a (seed, config) pair fully
// determines a simulation run. This matters doubly for RCMP: recomputed
// tasks must regenerate byte-identical outputs, which we obtain by
// deriving per-record randomness from hashes rather than from stateful
// generator draws (see mapred/udf.hpp).
#pragma once

#include <cstdint>
#include <limits>

namespace rcmp {

/// One SplitMix64 step: advances `state` and writes its output to `out`.
/// W is std::uint64_t, or a GCC vector of them that steps one generator
/// per lane; vectors pass by reference, since their by-value ABI depends
/// on the ISA level (GCC -Wpsabi).
template <typename W>
inline void splitmix64_step(W& state, W& out) {
  out = (state += 0x9e3779b97f4a7c15ULL);
  out = (out ^ (out >> 30)) * 0xbf58476d1ce4e5b9ULL;
  out = (out ^ (out >> 27)) * 0x94d049bb133111ebULL;
  out ^= out >> 31;
}

/// SplitMix64: used to expand a 64-bit seed into generator state and to
/// derive independent child seeds.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z;
  splitmix64_step(state, z);
  return z;
}

/// Xoshiro256** — fast, high-quality, deterministic PRNG.
/// Satisfies UniformRandomBitGenerator so it can drive <random>
/// distributions where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + uniform() * (hi - lo); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) { return (*this)() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli draw with probability p.
  bool chance(double p) { return uniform() < p; }

  /// Derive an independent child seed (e.g. one Rng per subsystem).
  std::uint64_t fork_seed() { return (*this)(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace rcmp
