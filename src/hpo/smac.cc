#include "hpo/smac.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/tree.h"

namespace featlib {

Smac::Smac(SearchSpace space, SmacOptions options)
    : space_(std::move(space)), options_(options), rng_(options.seed) {}

void Smac::Observe(const ParamVector& params, double loss) {
  FEAT_CHECK(params.size() == space_.NumDims(), "Observe: dim mismatch");
  // See Tpe::Observe: non-finite losses are recorded as worst-possible so
  // the surrogate's ordering stays well-defined.
  if (!std::isfinite(loss)) loss = kWorstLoss;
  history_.push_back(Trial{params, loss});
}

std::vector<double> Smac::EncodeConfig(const ParamVector& v) const {
  std::vector<double> out;
  out.reserve(space_.NumDims() * 2);
  for (size_t d = 0; d < space_.NumDims(); ++d) {
    const ParamDomain& dom = space_.dim(d);
    if (dom.kind == ParamDomain::Kind::kOptionalNumeric) {
      const bool none = IsNone(v[d]);
      out.push_back(none ? 1.0 : 0.0);
      out.push_back(none ? 0.5 * (dom.lo + dom.hi) : v[d]);
    } else {
      out.push_back(v[d]);
    }
  }
  return out;
}

ParamVector Smac::Perturb(const ParamVector& base) {
  ParamVector out = base;
  const double resample_p =
      1.0 / static_cast<double>(std::max<size_t>(1, space_.NumDims()));
  for (size_t d = 0; d < space_.NumDims(); ++d) {
    const ParamDomain& dom = space_.dim(d);
    if (rng_.Bernoulli(resample_p)) {
      out[d] = dom.Sample(&rng_);
      continue;
    }
    // Numeric dims also receive a small jitter (SMAC's neighbourhood move).
    if (dom.kind != ParamDomain::Kind::kCategorical && !IsNone(out[d]) &&
        rng_.Bernoulli(0.5)) {
      const double width = dom.hi - dom.lo;
      out[d] = dom.Clip(out[d] +
                        rng_.Normal(0.0, options_.perturbation_scale * width));
    }
  }
  return out;
}

ParamVector Smac::Suggest() { return SuggestBatch(1).front(); }

std::vector<ParamVector> Smac::SuggestBatch(int n_batch) {
  FEAT_CHECK(n_batch > 0, "SuggestBatch needs a positive pool size");
  std::vector<ParamVector> out(static_cast<size_t>(n_batch));
  const size_t n = history_.size();
  // Per-slot exploration decision in sequential order, so the RNG stream of
  // a size-1 batch is byte-for-byte the old Suggest() stream.
  std::vector<size_t> exploit_slots;
  for (int s = 0; s < n_batch; ++s) {
    if (n < static_cast<size_t>(options_.n_startup) ||
        rng_.Bernoulli(options_.exploration_fraction)) {
      out[static_cast<size_t>(s)] = space_.Sample(&rng_);
    } else {
      exploit_slots.push_back(static_cast<size_t>(s));
    }
  }
  if (exploit_slots.empty()) return out;

  // Fit the surrogate forest once per batch on the full history (histories
  // are small: hundreds of configurations).
  Dataset train = Dataset::WithLabels({}, TaskKind::kRegression);
  train.n = n;
  train.y.resize(n);
  const size_t enc_d = EncodeConfig(history_[0].params).size();
  train.d = enc_d;
  train.x.resize(n * enc_d);
  for (size_t i = 0; i < n; ++i) {
    const auto enc = EncodeConfig(history_[i].params);
    std::copy(enc.begin(), enc.end(),
              train.x.begin() + static_cast<ptrdiff_t>(i * enc_d));
    train.y[i] = history_[i].loss;
  }
  for (size_t c = 0; c < enc_d; ++c) train.feature_names.push_back("");

  std::vector<double> grad(n);
  for (size_t i = 0; i < n; ++i) grad[i] = -train.y[i];
  const std::vector<double> hess(n, 1.0);

  TreeOptions tree_options;
  tree_options.max_depth = 6;
  tree_options.min_samples_leaf = 2;
  tree_options.min_samples_split = 4;
  tree_options.lambda = 1e-6;
  tree_options.min_gain = 0.0;
  tree_options.max_features =
      std::max(1, static_cast<int>(std::sqrt(static_cast<double>(enc_d)) + 0.5));

  const SortedFeatures sorted(train);  // shared by every surrogate tree
  std::vector<GradientTree> forest;
  forest.reserve(static_cast<size_t>(options_.n_trees));
  for (int t = 0; t < options_.n_trees; ++t) {
    std::vector<uint32_t> rows(n);
    for (auto& r : rows) r = static_cast<uint32_t>(rng_.UniformInt(n));
    Rng tree_rng = rng_.Fork();
    GradientTree tree;
    tree.Fit(train, sorted, rows, grad, hess, tree_options, &tree_rng);
    forest.push_back(std::move(tree));
  }

  const Trial* incumbent = best();
  FEAT_CHECK(incumbent != nullptr, "Suggest after startup needs history");

  // Shared candidate pool — n_candidates per exploit slot, alternating
  // uniform draws and incumbent perturbations — ranked by the LCB
  // acquisition. stable_sort keeps the first-sampled of any tie first,
  // matching the strict "<" argmin of the sequential path.
  struct Scored {
    double acq;
    ParamVector v;
  };
  const size_t pool_size = exploit_slots.size() *
                           static_cast<size_t>(std::max(1, options_.n_candidates));
  std::vector<Scored> pool;
  pool.reserve(pool_size);
  Dataset probe = Dataset::WithLabels({0.0}, TaskKind::kRegression);
  probe.n = 1;
  probe.d = enc_d;
  probe.x.resize(enc_d);
  for (size_t c = 0; c < pool_size; ++c) {
    ParamVector candidate =
        c % 2 == 0 ? space_.Sample(&rng_) : Perturb(incumbent->params);
    const auto enc = EncodeConfig(candidate);
    std::copy(enc.begin(), enc.end(), probe.x.begin());
    double mean = 0.0;
    double sq = 0.0;
    for (const auto& tree : forest) {
      const double p = tree.PredictRow(probe, 0);
      mean += p;
      sq += p * p;
    }
    mean /= static_cast<double>(forest.size());
    const double var =
        std::max(0.0, sq / static_cast<double>(forest.size()) - mean * mean);
    const double acq = mean - options_.kappa * std::sqrt(var);  // LCB, minimize
    pool.push_back(Scored{acq, std::move(candidate)});
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.acq < b.acq;
                   });
  std::vector<ParamVector> ranked;
  ranked.reserve(pool.size());
  for (Scored& s : pool) ranked.push_back(std::move(s.v));
  ScatterTopDistinct(std::move(ranked), exploit_slots, &out);
  return out;
}

}  // namespace featlib
