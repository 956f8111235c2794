#pragma once

/// \file forest.h
/// \brief Random forest (bagging + per-split feature subsampling) over the
/// CART trees in tree.h.

#include <vector>

#include "ml/model.h"
#include "ml/tree.h"

namespace featlib {

struct RandomForestOptions {
  int n_trees = 40;
  TreeOptions tree;
  /// Bootstrap-sample fraction of the training rows per tree.
  double subsample = 1.0;
  uint64_t seed = 42;

  RandomForestOptions() {
    tree.max_depth = 10;
    tree.min_samples_leaf = 2;
    tree.min_samples_split = 4;
  }
};

/// \brief Random forest for classification (Gini trees, averaged class
/// distributions) and regression (mean-predicting gradient trees).
///
/// Fit sorts every feature of the training set once (SortedFeatures); each
/// tree filters that shared order down to its bootstrap sample instead of
/// sorting (tree.h). Training features must be NaN-free.
class RandomForestModel : public Model {
 public:
  RandomForestModel(TaskKind task, RandomForestOptions options = {});

  Status Fit(const Dataset& train) override;
  std::vector<double> PredictScore(const Dataset& ds) const override;
  std::vector<int> PredictClass(const Dataset& ds) const override;

  /// Impurity-decrease importances summed over all trees (used by ARDA's
  /// random-injection ranking).
  std::vector<double> FeatureImportances() const;

 private:
  TaskKind task_;
  RandomForestOptions options_;
  int num_classes_ = 2;
  std::vector<ClassificationTree> class_trees_;
  std::vector<GradientTree> reg_trees_;
  bool fitted_ = false;

  std::vector<std::vector<double>> PredictDistributions(const Dataset& ds) const;
};

}  // namespace featlib
