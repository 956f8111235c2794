#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>

namespace featlib {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

GbdtModel::GbdtModel(TaskKind task, GbdtOptions options)
    : task_(task), options_(options) {}

Status GbdtModel::Fit(const Dataset& train) {
  if (train.n == 0 || train.d == 0) {
    return Status::InvalidArgument("GBDT needs non-empty training data");
  }
  d_ = train.d;
  num_classes_ = task_ == TaskKind::kBinaryClassification ? 2 : train.num_classes;
  const size_t n_heads = task_ == TaskKind::kMultiClassification
                             ? static_cast<size_t>(num_classes_)
                             : 1;
  heads_.assign(n_heads, {});
  Rng rng(options_.seed);

  if (task_ == TaskKind::kRegression) {
    double mean = 0.0;
    for (double y : train.y) mean += y;
    base_score_ = train.n > 0 ? mean / static_cast<double>(train.n) : 0.0;
  } else {
    base_score_ = 0.0;  // raw margin space
  }

  const size_t sample_n = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(train.n) * options_.subsample));
  const SortedFeatures sorted(train);  // shared by every round and head

  for (size_t head = 0; head < n_heads; ++head) {
    std::vector<double> margin(train.n, base_score_);
    std::vector<double> grad(train.n);
    std::vector<double> hess(train.n);
    for (int round = 0; round < options_.n_rounds; ++round) {
      for (size_t i = 0; i < train.n; ++i) {
        if (task_ == TaskKind::kRegression) {
          grad[i] = margin[i] - train.y[i];
          hess[i] = 1.0;
        } else {
          const double target =
              n_heads == 1 ? (train.y[i] >= 0.5 ? 1.0 : 0.0)
                           : (static_cast<size_t>(std::llround(train.y[i])) == head
                                  ? 1.0
                                  : 0.0);
          const double p = Sigmoid(margin[i]);
          grad[i] = p - target;
          hess[i] = std::max(1e-6, p * (1.0 - p));
        }
      }
      std::vector<uint32_t> rows;
      if (options_.subsample >= 1.0) {
        rows.resize(train.n);
        for (size_t i = 0; i < train.n; ++i) rows[i] = static_cast<uint32_t>(i);
      } else {
        rows.reserve(sample_n);
        for (auto idx : rng.SampleIndices(train.n, sample_n)) {
          rows.push_back(static_cast<uint32_t>(idx));
        }
      }
      Rng tree_rng = rng.Fork();
      GradientTree tree;
      tree.Fit(train, sorted, rows, grad, hess, options_.tree, &tree_rng);
      for (size_t i = 0; i < train.n; ++i) {
        margin[i] += options_.learning_rate * tree.PredictRow(train, i);
      }
      heads_[head].push_back(std::move(tree));
    }
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> GbdtModel::RawScores(const Dataset& ds, size_t head) const {
  std::vector<double> out(ds.n, base_score_);
  for (const auto& tree : heads_[head]) {
    for (size_t r = 0; r < ds.n; ++r) {
      out[r] += options_.learning_rate * tree.PredictRow(ds, r);
    }
  }
  return out;
}

std::vector<double> GbdtModel::PredictScore(const Dataset& ds) const {
  FEAT_CHECK(fitted_, "PredictScore before Fit");
  if (task_ == TaskKind::kRegression) return RawScores(ds, 0);
  if (heads_.size() == 1) {
    auto raw = RawScores(ds, 0);
    for (double& v : raw) v = Sigmoid(v);
    return raw;
  }
  std::vector<double> best(ds.n, -1.0);
  for (size_t head = 0; head < heads_.size(); ++head) {
    const auto raw = RawScores(ds, head);
    for (size_t r = 0; r < ds.n; ++r) best[r] = std::max(best[r], Sigmoid(raw[r]));
  }
  return best;
}

std::vector<int> GbdtModel::PredictClass(const Dataset& ds) const {
  FEAT_CHECK(fitted_, "PredictClass before Fit");
  if (task_ == TaskKind::kRegression || heads_.size() == 1) {
    const auto scores = PredictScore(ds);
    std::vector<int> out(ds.n);
    for (size_t r = 0; r < ds.n; ++r) out[r] = scores[r] >= 0.5 ? 1 : 0;
    return out;
  }
  std::vector<int> out(ds.n, 0);
  std::vector<double> best(ds.n, -1e300);
  for (size_t head = 0; head < heads_.size(); ++head) {
    const auto raw = RawScores(ds, head);
    for (size_t r = 0; r < ds.n; ++r) {
      if (raw[r] > best[r]) {
        best[r] = raw[r];
        out[r] = static_cast<int>(head);
      }
    }
  }
  return out;
}

std::vector<double> GbdtModel::FeatureImportances() const {
  FEAT_CHECK(fitted_, "FeatureImportances before Fit");
  std::vector<double> out(d_, 0.0);
  for (const auto& head : heads_) {
    for (const auto& tree : head) {
      const auto& gains = tree.feature_gains();
      for (size_t c = 0; c < gains.size() && c < d_; ++c) out[c] += gains[c];
    }
  }
  return out;
}

}  // namespace featlib
