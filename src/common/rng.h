#pragma once

/// \file rng.h
/// \brief Deterministic, explicitly-seeded random number generation.
///
/// featlib never uses a global RNG: every stochastic component (TPE, model
/// training, data generators, benchmarks) receives a seed and owns an Rng.
/// The generator is xoshiro256** seeded through SplitMix64, which gives
/// high-quality streams from small integer seeds.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace featlib {

/// \brief Small, fast, deterministic PRNG (xoshiro256**).
class Rng {
 public:
  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit Rng(uint64_t seed = 42);

  /// Next raw 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double UniformReal(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Standard normal draw (Box-Muller, one cached spare).
  double Normal();

  /// Normal draw with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Poisson draw. Uses Knuth's method for small lambda and a normal
  /// approximation for lambda > 64.
  int64_t Poisson(double lambda);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p);

  /// Draws an index in [0, weights.size()) proportionally to `weights`.
  /// Non-positive weights are treated as zero; if all are zero, uniform.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k may exceed n, then all n).
  std::vector<size_t> SampleIndices(size_t n, size_t k);

  /// Same draws and result as SampleIndices(n, k), written into `*out`
  /// (reusing its capacity, so a caller looping over it allocates once).
  void SampleIndices(size_t n, size_t k, std::vector<size_t>* out);

  /// Spawns an independent child generator (distinct stream).
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace featlib
