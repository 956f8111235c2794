#include "ml/forest.h"

#include <algorithm>
#include <cmath>

namespace featlib {

RandomForestModel::RandomForestModel(TaskKind task, RandomForestOptions options)
    : task_(task), options_(options) {}

Status RandomForestModel::Fit(const Dataset& train) {
  if (train.n == 0 || train.d == 0) {
    return Status::InvalidArgument("RandomForest needs non-empty training data");
  }
  num_classes_ = task_ == TaskKind::kBinaryClassification ? 2 : train.num_classes;
  Rng rng(options_.seed);
  TreeOptions tree_options = options_.tree;
  if (tree_options.max_features <= 0) {
    tree_options.max_features = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(train.d)) + 0.5));
  }
  const size_t sample_n = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(train.n) * options_.subsample));

  const SortedFeatures sorted(train);  // shared by every tree
  class_trees_.clear();
  reg_trees_.clear();
  for (int t = 0; t < options_.n_trees; ++t) {
    // Bootstrap sample (with replacement).
    std::vector<uint32_t> rows(sample_n);
    for (auto& r : rows) r = static_cast<uint32_t>(rng.UniformInt(train.n));
    Rng tree_rng = rng.Fork();
    if (task_ == TaskKind::kRegression) {
      // Gradient tree with grad=-y, hess=1 predicts leaf means.
      std::vector<double> grad(train.n);
      for (size_t i = 0; i < train.n; ++i) grad[i] = -train.y[i];
      std::vector<double> hess(train.n, 1.0);
      TreeOptions reg_opts = tree_options;
      reg_opts.lambda = 1e-6;
      reg_opts.min_gain = 0.0;
      GradientTree tree;
      tree.Fit(train, sorted, rows, grad, hess, reg_opts, &tree_rng);
      reg_trees_.push_back(std::move(tree));
    } else {
      ClassificationTree tree;
      tree.Fit(train, sorted, rows, num_classes_, tree_options, &tree_rng);
      class_trees_.push_back(std::move(tree));
    }
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> RandomForestModel::FeatureImportances() const {
  FEAT_CHECK(fitted_, "FeatureImportances before Fit");
  std::vector<double> out;
  for (const auto& tree : class_trees_) {
    const auto& gains = tree.feature_gains();
    if (out.size() < gains.size()) out.resize(gains.size(), 0.0);
    for (size_t c = 0; c < gains.size(); ++c) out[c] += gains[c];
  }
  for (const auto& tree : reg_trees_) {
    const auto& gains = tree.feature_gains();
    if (out.size() < gains.size()) out.resize(gains.size(), 0.0);
    for (size_t c = 0; c < gains.size(); ++c) out[c] += gains[c];
  }
  return out;
}

std::vector<std::vector<double>> RandomForestModel::PredictDistributions(
    const Dataset& ds) const {
  std::vector<std::vector<double>> out(
      ds.n, std::vector<double>(static_cast<size_t>(num_classes_), 0.0));
  for (const auto& tree : class_trees_) {
    for (size_t r = 0; r < ds.n; ++r) {
      const auto& dist = tree.PredictDistribution(ds, r);
      for (size_t c = 0; c < dist.size() && c < out[r].size(); ++c) {
        out[r][c] += dist[c];
      }
    }
  }
  const double scale = class_trees_.empty()
                           ? 1.0
                           : 1.0 / static_cast<double>(class_trees_.size());
  for (auto& dist : out) {
    for (double& p : dist) p *= scale;
  }
  return out;
}

std::vector<double> RandomForestModel::PredictScore(const Dataset& ds) const {
  FEAT_CHECK(fitted_, "PredictScore before Fit");
  if (task_ == TaskKind::kRegression) {
    std::vector<double> out(ds.n, 0.0);
    for (const auto& tree : reg_trees_) {
      for (size_t r = 0; r < ds.n; ++r) out[r] += tree.PredictRow(ds, r);
    }
    const double scale =
        reg_trees_.empty() ? 1.0 : 1.0 / static_cast<double>(reg_trees_.size());
    for (double& v : out) v *= scale;
    return out;
  }
  const auto dists = PredictDistributions(ds);
  std::vector<double> out(ds.n);
  for (size_t r = 0; r < ds.n; ++r) {
    if (task_ == TaskKind::kBinaryClassification) {
      out[r] = dists[r].size() > 1 ? dists[r][1] : 0.0;
    } else {
      out[r] = *std::max_element(dists[r].begin(), dists[r].end());
    }
  }
  return out;
}

std::vector<int> RandomForestModel::PredictClass(const Dataset& ds) const {
  FEAT_CHECK(fitted_, "PredictClass before Fit");
  if (task_ == TaskKind::kRegression) {
    const auto scores = PredictScore(ds);
    std::vector<int> out(ds.n);
    for (size_t r = 0; r < ds.n; ++r) out[r] = scores[r] >= 0.5 ? 1 : 0;
    return out;
  }
  const auto dists = PredictDistributions(ds);
  std::vector<int> out(ds.n);
  for (size_t r = 0; r < ds.n; ++r) {
    out[r] = static_cast<int>(std::max_element(dists[r].begin(), dists[r].end()) -
                              dists[r].begin());
  }
  return out;
}

}  // namespace featlib
