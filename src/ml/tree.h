#pragma once

/// \file tree.h
/// \brief CART decision trees: a gradient/hessian regression tree (the GBDT
/// weak learner, XGBoost leaf-weight formulation) and a Gini classification
/// tree with class distributions at the leaves (the RF base learner).
///
/// Both trees split by exact greedy search over presorted feature lists. A
/// model fit sorts every feature once (SortedFeatures) and shares that
/// order with all of its trees. Each tree filters the shared order down to
/// its own row multiset, and each split stably partitions every feature's
/// list with the same `x <= threshold` decision that partitions the rows.
/// No node ever sorts, and the gain scan visits a node's rows in ascending
/// (value, row) order — the order a per-node sort of (value, row) pairs
/// would produce — so trees are bit-identical to sorting at every node.
///
/// Precondition: feature values contain no NaN. NaN has no place in the
/// (value, row) order; callers impute first (ImputeNanInPlace), as the
/// model evaluation pipeline does.

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace featlib {

struct TreeOptions {
  int max_depth = 6;
  size_t min_samples_leaf = 2;
  size_t min_samples_split = 4;
  /// Number of features examined per split; <= 0 means all features.
  int max_features = -1;
  /// L2 regularization on leaf weights (gradient tree only).
  double lambda = 1.0;
  /// Minimum gain to accept a split (gradient tree only).
  double min_gain = 1e-7;
};

/// \brief Every feature's rows in ascending (value, row) order.
///
/// Built once per model fit from the fit's training dataset and shared
/// read-only by every tree of that fit (all GBDT rounds and heads, all
/// forest trees). The dataset must hold no NaN.
class SortedFeatures {
 public:
  struct Entry {
    double value;
    uint32_t row;
  };

  explicit SortedFeatures(const Dataset& ds);

  size_t num_rows() const { return n_; }
  size_t num_features() const { return d_; }

  /// The num_rows() entries of feature `f`, ascending by (value, row).
  const Entry* Column(size_t f) const { return entries_.data() + f * n_; }

 private:
  size_t n_ = 0;
  size_t d_ = 0;
  std::vector<Entry> entries_;  // d blocks of n, feature-major
};

/// Per-tree working state of a build (tree.cc): the row array, each
/// feature's presorted list of the tree's rows, and reused scratch.
class TreeBuildState;

/// \brief Regression tree over (gradient, hessian) statistics.
///
/// Leaf weight = -G/(H + lambda); split gain is the standard second-order
/// formula. With gradients -y and unit hessians this reduces to a
/// mean-predicting variance-reduction CART, which RandomForest reuses for
/// regression.
class GradientTree {
 public:
  /// Fits on the row multiset `rows` (a subsample, or a bootstrap sample
  /// with repeats) of `ds`. `sorted` must be SortedFeatures(ds).
  void Fit(const Dataset& ds, const SortedFeatures& sorted,
           const std::vector<uint32_t>& rows, const std::vector<double>& grad,
           const std::vector<double>& hess, const TreeOptions& options, Rng* rng);

  double PredictRow(const Dataset& ds, size_t row) const;

  /// Total split gain attributed to each feature (importance for the
  /// Featuretools+GBDT selector).
  const std::vector<double>& feature_gains() const { return feature_gains_; }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    int feature = -1;       // -1 for leaf
    double threshold = 0.0; // go left when x <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;     // leaf weight
  };

  int Build(TreeBuildState* state, size_t begin, size_t end,
            const std::vector<double>& grad, const std::vector<double>& hess,
            const TreeOptions& options, int depth, Rng* rng);

  std::vector<Node> nodes_;
  std::vector<double> feature_gains_;
};

/// \brief Gini-impurity classification tree storing per-leaf class
/// probability vectors.
class ClassificationTree {
 public:
  /// Fits on the row multiset `rows` of `ds` (labels are class indices).
  /// `sorted` must be SortedFeatures(ds).
  void Fit(const Dataset& ds, const SortedFeatures& sorted,
           const std::vector<uint32_t>& rows, int num_classes,
           const TreeOptions& options, Rng* rng);

  /// Class-probability vector for one row.
  const std::vector<double>& PredictDistribution(const Dataset& ds, size_t row) const;

  /// Sample-weighted Gini impurity decrease per feature (importances).
  const std::vector<double>& feature_gains() const { return feature_gains_; }

  size_t num_nodes() const { return nodes_.size(); }

 private:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> distribution;  // leaves only
  };

  int Build(TreeBuildState* state, size_t begin, size_t end, int num_classes,
            const TreeOptions& options, int depth, Rng* rng);

  std::vector<Node> nodes_;
  std::vector<double> feature_gains_;
};

}  // namespace featlib
