#include "common/rng.h"

#include <cmath>
#include <numeric>

#include "common/status.h"

namespace featlib {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformReal(double lo, double hi) {
  FEAT_CHECK(lo <= hi, "UniformReal requires lo <= hi");
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t n) {
  FEAT_CHECK(n > 0, "UniformInt requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  FEAT_CHECK(lo <= hi, "UniformRange requires lo <= hi");
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1ULL));
}

double Rng::Normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  spare_ = mag * std::sin(two_pi * u2);
  has_spare_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

int64_t Rng::Poisson(double lambda) {
  FEAT_CHECK(lambda >= 0.0, "Poisson requires lambda >= 0");
  if (lambda == 0.0) return 0;
  if (lambda > 64.0) {
    // Normal approximation with continuity correction; adequate for workload
    // generation (we never rely on exact tail behaviour).
    const double draw = Normal(lambda, std::sqrt(lambda));
    return draw < 0.0 ? 0 : static_cast<int64_t>(draw + 0.5);
  }
  const double limit = std::exp(-lambda);
  int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= Uniform();
  } while (p > limit);
  return k - 1;
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  FEAT_CHECK(!weights.empty(), "Categorical requires non-empty weights");
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0) return static_cast<size_t>(UniformInt(weights.size()));
  double target = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t k) {
  std::vector<size_t> out;
  SampleIndices(n, k, &out);
  return out;
}

void Rng::SampleIndices(size_t n, size_t k, std::vector<size_t>* out) {
  out->resize(n);
  std::iota(out->begin(), out->end(), size_t{0});
  if (k >= n) return;
  // Partial Fisher-Yates: first k slots become the sample.
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformInt(n - i));
    std::swap((*out)[i], (*out)[j]);
  }
  out->resize(k);
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace featlib
