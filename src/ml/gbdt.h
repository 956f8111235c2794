#pragma once

/// \file gbdt.h
/// \brief Second-order gradient boosting ("XGB" in the paper's tables):
/// regularized leaf weights, shrinkage, logistic loss for classification
/// (one-vs-rest for multi-class) and squared loss for regression.

#include <vector>

#include "ml/model.h"
#include "ml/tree.h"

namespace featlib {

struct GbdtOptions {
  int n_rounds = 50;
  double learning_rate = 0.2;
  TreeOptions tree;
  /// Row subsample per round (stochastic gradient boosting).
  double subsample = 1.0;
  uint64_t seed = 42;

  GbdtOptions() {
    tree.max_depth = 4;
    tree.min_samples_leaf = 2;
    tree.min_samples_split = 4;
    tree.lambda = 1.0;
  }
};

/// \brief XGBoost-style gradient boosted trees.
///
/// Fit sorts every feature of the training set once (SortedFeatures) and
/// grows the tree of every round and head over that shared order, so no
/// round re-sorts (tree.h). Training features must be NaN-free.
class GbdtModel : public Model {
 public:
  GbdtModel(TaskKind task, GbdtOptions options = {});

  Status Fit(const Dataset& train) override;
  std::vector<double> PredictScore(const Dataset& ds) const override;
  std::vector<int> PredictClass(const Dataset& ds) const override;

  /// Split-gain feature importances summed over all trees and heads
  /// (Featuretools+GBDT selector).
  std::vector<double> FeatureImportances() const;

 private:
  TaskKind task_;
  GbdtOptions options_;
  int num_classes_ = 2;
  double base_score_ = 0.0;
  // heads x rounds trees; one head for binary/regression, k for multi-class.
  std::vector<std::vector<GradientTree>> heads_;
  size_t d_ = 0;
  bool fitted_ = false;

  std::vector<double> RawScores(const Dataset& ds, size_t head) const;
};

}  // namespace featlib
