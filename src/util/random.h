#ifndef OIPA_UTIL_RANDOM_H_
#define OIPA_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace oipa {

/// SplitMix64: used to expand a single 64-bit seed into a full generator
/// state and to derive decorrelated per-thread seeds.
inline uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ PRNG: fast, high quality, and deterministic across
/// platforms. Satisfies the UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) { Seed(seed); }

  /// Re-seeds the generator deterministically from a single value.
  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (int i = 0; i < 4; ++i) s_[i] = SplitMix64Next(&sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~uint64_t{0}; }

  uint64_t operator()() { return Next(); }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float NextFloat() {
    return static_cast<float>(Next() >> 40) * 0x1.0p-24f;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// nearly-divisionless method.
  uint64_t NextBounded(uint64_t bound) {
    // 128-bit multiply-shift; the tiny modulo bias (< 2^-64 * bound) is
    // irrelevant for simulation workloads.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(Next()) * bound) >> 64);
  }

  /// Uniform int in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli draw with success probability `p`.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Standard normal via Box-Muller (no state caching; simple over fast).
  double NextGaussian();

  /// Exponential with rate 1.
  double NextExponential();

  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double NextGamma(double shape);

  /// Samples a Dirichlet(alpha,...,alpha) vector of dimension `dim`.
  std::vector<double> NextDirichlet(int dim, double alpha);

  /// Fills `out` (non-empty) with a Dirichlet(alpha,...,alpha) draw of
  /// dimension out.size(); the same draws as the vector form, without
  /// allocating.
  void NextDirichlet(double alpha, std::span<double> out);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Derives a decorrelated child seed (for per-thread / per-task RNGs).
  uint64_t Fork() { return Next() ^ 0x2545f4914f6cdd1dULL; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Weighted index sampling: returns i with probability weights[i] / sum.
/// Requires non-negative weights with positive sum.
int SampleDiscrete(const std::vector<double>& weights, Rng* rng);

}  // namespace oipa

#endif  // OIPA_UTIL_RANDOM_H_
