#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "golden_util.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace featlib {
namespace {

std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

TEST(GradientTreeTest, SingleSplitStepFunction) {
  // y = 0 for x<0, 10 for x>=0; grad=-y, hess=1 -> leaves predict means.
  Dataset ds = Dataset::WithLabels({}, TaskKind::kRegression);
  const size_t n = 100;
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(i) - 50.0;
    y[i] = x[i] >= 0 ? 10.0 : 0.0;
  }
  ds.n = n;
  ds.y = y;
  ASSERT_TRUE(ds.AddFeature("x", x).ok());
  std::vector<double> grad(n);
  std::vector<double> hess(n, 1.0);
  for (size_t i = 0; i < n; ++i) grad[i] = -y[i];

  TreeOptions options;
  options.max_depth = 2;
  options.lambda = 1e-6;
  Rng rng(1);
  GradientTree tree;
  tree.Fit(ds, SortedFeatures(ds), AllRows(n), grad, hess, options, &rng);
  EXPECT_NEAR(tree.PredictRow(ds, 10), 0.0, 0.2);
  EXPECT_NEAR(tree.PredictRow(ds, 90), 10.0, 0.2);
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(GradientTreeTest, RespectsMaxDepthZero) {
  Dataset ds = Dataset::WithLabels({}, TaskKind::kRegression);
  ds.n = 4;
  ds.y = {1, 2, 3, 4};
  ASSERT_TRUE(ds.AddFeature("x", {1, 2, 3, 4}).ok());
  std::vector<double> grad = {-1, -2, -3, -4};
  std::vector<double> hess(4, 1.0);
  TreeOptions options;
  options.max_depth = 0;
  options.lambda = 0.0;
  Rng rng(1);
  GradientTree tree;
  tree.Fit(ds, SortedFeatures(ds), AllRows(4), grad, hess, options, &rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_NEAR(tree.PredictRow(ds, 0), 2.5, 1e-9);  // mean of y
}

TEST(GradientTreeTest, LambdaShrinksLeaves) {
  Dataset ds = Dataset::WithLabels({}, TaskKind::kRegression);
  ds.n = 2;
  ds.y = {4, 4};
  ASSERT_TRUE(ds.AddFeature("x", {1, 2}).ok());
  std::vector<double> grad = {-4, -4};
  std::vector<double> hess = {1, 1};
  TreeOptions options;
  options.max_depth = 0;
  options.lambda = 2.0;  // leaf = 8 / (2 + 2) = 2 instead of 4
  Rng rng(1);
  GradientTree tree;
  tree.Fit(ds, SortedFeatures(ds), AllRows(2), grad, hess, options, &rng);
  EXPECT_NEAR(tree.PredictRow(ds, 0), 2.0, 1e-9);
}

TEST(GradientTreeTest, FeatureGainsIdentifySignal) {
  Rng rng(3);
  Dataset ds = Dataset::WithLabels({}, TaskKind::kRegression);
  const size_t n = 300;
  std::vector<double> signal(n);
  std::vector<double> noise(n);
  std::vector<double> grad(n);
  std::vector<double> hess(n, 1.0);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    signal[i] = rng.Normal();
    noise[i] = rng.Normal();
    ds.y[i] = signal[i] > 0 ? 5.0 : -5.0;
    grad[i] = -ds.y[i];
  }
  ds.n = n;
  ASSERT_TRUE(ds.AddFeature("noise", noise).ok());
  ASSERT_TRUE(ds.AddFeature("signal", signal).ok());
  GradientTree tree;
  TreeOptions options;
  options.max_depth = 3;
  tree.Fit(ds, SortedFeatures(ds), AllRows(n), grad, hess, options, &rng);
  const auto& gains = tree.feature_gains();
  EXPECT_GT(gains[1], gains[0]);
}

TEST(ClassificationTreeTest, LearnsXor) {
  // XOR is the canonical single-split-impossible pattern; depth 2 solves it.
  Rng rng(7);
  Dataset ds = Dataset::WithLabels({}, TaskKind::kBinaryClassification);
  const size_t n = 400;
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    x1[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    x2[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    ds.y[i] = (x1[i] != x2[i]) ? 1.0 : 0.0;
  }
  ds.n = n;
  ASSERT_TRUE(ds.AddFeature("x1", x1).ok());
  ASSERT_TRUE(ds.AddFeature("x2", x2).ok());
  ClassificationTree tree;
  TreeOptions options;
  options.max_depth = 3;
  options.min_samples_leaf = 1;
  options.min_samples_split = 2;
  Rng tree_rng(1);
  tree.Fit(ds, SortedFeatures(ds), AllRows(n), 2, options, &tree_rng);
  size_t correct = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& dist = tree.PredictDistribution(ds, i);
    const int pred = dist[1] > dist[0] ? 1 : 0;
    if (pred == static_cast<int>(ds.y[i])) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / n, 0.98);
}

TEST(ClassificationTreeTest, PureNodeStopsSplitting) {
  Dataset ds = Dataset::WithLabels({1, 1, 1, 1}, TaskKind::kBinaryClassification);
  ASSERT_TRUE(ds.AddFeature("x", {1, 2, 3, 4}).ok());
  ClassificationTree tree;
  TreeOptions options;
  Rng rng(1);
  tree.Fit(ds, SortedFeatures(ds), AllRows(4), 2, options, &rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictDistribution(ds, 0)[1], 1.0);
}

TEST(ClassificationTreeTest, DistributionSumsToOne) {
  Rng rng(9);
  Dataset ds = Dataset::WithLabels({}, TaskKind::kMultiClassification, 3);
  const size_t n = 200;
  std::vector<double> x(n);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = rng.Normal();
    ds.y[i] = static_cast<double>(rng.UniformInt(3));
  }
  ds.n = n;
  ds.num_classes = 3;
  ASSERT_TRUE(ds.AddFeature("x", x).ok());
  ClassificationTree tree;
  TreeOptions options;
  Rng tree_rng(2);
  tree.Fit(ds, SortedFeatures(ds), AllRows(n), 3, options, &tree_rng);
  for (size_t i = 0; i < 20; ++i) {
    const auto& dist = tree.PredictDistribution(ds, i);
    double total = 0;
    for (double p : dist) total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ClassificationTreeTest, GiniGainsTracked) {
  Rng rng(11);
  Dataset ds = Dataset::WithLabels({}, TaskKind::kBinaryClassification);
  const size_t n = 200;
  std::vector<double> signal(n);
  std::vector<double> noise(n);
  ds.y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    signal[i] = rng.Normal();
    noise[i] = rng.Normal();
    ds.y[i] = signal[i] > 0 ? 1.0 : 0.0;
  }
  ds.n = n;
  ASSERT_TRUE(ds.AddFeature("noise", noise).ok());
  ASSERT_TRUE(ds.AddFeature("signal", signal).ok());
  ClassificationTree tree;
  TreeOptions options;
  options.max_depth = 4;
  Rng tree_rng(3);
  tree.Fit(ds, SortedFeatures(ds), AllRows(n), 2, options, &tree_rng);
  const auto& gains = tree.feature_gains();
  ASSERT_EQ(gains.size(), 2u);
  EXPECT_GT(gains[1], gains[0]);
}

// --- Differential identity sweep against the sort-per-node builder ----------
//
// The oracle below is the exact-greedy builder the presorted trees replaced:
// at every node it re-sorts (value, row) pairs for each candidate feature.
// The presorted builder must grow the same trees bit for bit: same node
// count, same predictions and same per-feature gains, on randomized data
// with ties, signed zeros, binary/int/constant columns, bootstrap multisets,
// subsamples, feature subsets and min_samples_leaf edges.
//
// Seeds: FEATLIB_TREE_SEED (base, default 1) and FEATLIB_TREE_SWEEP_SEEDS
// (count, default 40). scripts/ci.sh rotates the base seed by date and
// prints it, so any failure reproduces from the log.

namespace oracle {

std::vector<size_t> SplitFeatures(size_t d, int max_features, Rng* rng) {
  if (max_features <= 0 || static_cast<size_t>(max_features) >= d) {
    std::vector<size_t> all(d);
    std::iota(all.begin(), all.end(), size_t{0});
    return all;
  }
  return rng->SampleIndices(d, static_cast<size_t>(max_features));
}

struct Node {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;
  std::vector<double> distribution;
};

int Descend(const std::vector<Node>& nodes, const Dataset& ds, size_t row) {
  int node = 0;
  while (nodes[static_cast<size_t>(node)].feature >= 0) {
    const Node& nd = nodes[static_cast<size_t>(node)];
    node = ds.At(row, static_cast<size_t>(nd.feature)) <= nd.threshold ? nd.left
                                                                       : nd.right;
  }
  return node;
}

class GradientTree {
 public:
  void Fit(const Dataset& ds, const std::vector<uint32_t>& rows,
           const std::vector<double>& grad, const std::vector<double>& hess,
           const TreeOptions& options, Rng* rng) {
    nodes_.clear();
    feature_gains_.assign(ds.d, 0.0);
    std::vector<uint32_t> mutable_rows = rows;
    Build(ds, &mutable_rows, 0, mutable_rows.size(), grad, hess, options, 0, rng);
  }
  double PredictRow(const Dataset& ds, size_t row) const {
    return nodes_[static_cast<size_t>(Descend(nodes_, ds, row))].value;
  }
  const std::vector<double>& feature_gains() const { return feature_gains_; }
  size_t num_nodes() const { return nodes_.size(); }

 private:
  int Build(const Dataset& ds, std::vector<uint32_t>* rows, size_t begin,
            size_t end, const std::vector<double>& grad,
            const std::vector<double>& hess, const TreeOptions& options,
            int depth, Rng* rng) {
    const size_t count = end - begin;
    double g_total = 0.0;
    double h_total = 0.0;
    for (size_t i = begin; i < end; ++i) {
      g_total += grad[(*rows)[i]];
      h_total += hess[(*rows)[i]];
    }
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_id].value = -g_total / (h_total + options.lambda);
    if (depth >= options.max_depth || count < options.min_samples_split) {
      return node_id;
    }
    const double parent_score = g_total * g_total / (h_total + options.lambda);
    double best_gain = options.min_gain;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::pair<double, uint32_t>> sorted;
    for (size_t feature : SplitFeatures(ds.d, options.max_features, rng)) {
      sorted.clear();
      for (size_t i = begin; i < end; ++i) {
        sorted.emplace_back(ds.At((*rows)[i], feature), (*rows)[i]);
      }
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;
      double g_left = 0.0;
      double h_left = 0.0;
      for (size_t i = 0; i + 1 < count; ++i) {
        g_left += grad[sorted[i].second];
        h_left += hess[sorted[i].second];
        if (sorted[i].first == sorted[i + 1].first) continue;
        const size_t left_n = i + 1;
        const size_t right_n = count - left_n;
        if (left_n < options.min_samples_leaf ||
            right_n < options.min_samples_leaf) {
          continue;
        }
        const double g_right = g_total - g_left;
        const double h_right = h_total - h_left;
        const double gain =
            0.5 * (g_left * g_left / (h_left + options.lambda) +
                   g_right * g_right / (h_right + options.lambda) - parent_score);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(feature);
          best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return node_id;
    auto middle = std::partition(
        rows->begin() + static_cast<ptrdiff_t>(begin),
        rows->begin() + static_cast<ptrdiff_t>(end), [&](uint32_t r) {
          return ds.At(r, static_cast<size_t>(best_feature)) <= best_threshold;
        });
    const size_t mid = static_cast<size_t>(middle - rows->begin());
    if (mid == begin || mid == end) return node_id;
    feature_gains_[static_cast<size_t>(best_feature)] += best_gain;
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    const int left = Build(ds, rows, begin, mid, grad, hess, options, depth + 1, rng);
    const int right = Build(ds, rows, mid, end, grad, hess, options, depth + 1, rng);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
  }

  std::vector<Node> nodes_;
  std::vector<double> feature_gains_;
};

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += (c / total) * (c / total);
  return 1.0 - sum_sq;
}

class ClassificationTree {
 public:
  void Fit(const Dataset& ds, const std::vector<uint32_t>& rows, int num_classes,
           const TreeOptions& options, Rng* rng) {
    nodes_.clear();
    feature_gains_.assign(ds.d, 0.0);
    std::vector<uint32_t> mutable_rows = rows;
    Build(ds, &mutable_rows, 0, mutable_rows.size(), num_classes, options, 0, rng);
  }
  const std::vector<double>& PredictDistribution(const Dataset& ds,
                                                 size_t row) const {
    return nodes_[static_cast<size_t>(Descend(nodes_, ds, row))].distribution;
  }
  const std::vector<double>& feature_gains() const { return feature_gains_; }
  size_t num_nodes() const { return nodes_.size(); }

 private:
  int Build(const Dataset& ds, std::vector<uint32_t>* rows, size_t begin,
            size_t end, int num_classes, const TreeOptions& options, int depth,
            Rng* rng) {
    const size_t count = end - begin;
    std::vector<double> counts(static_cast<size_t>(num_classes), 0.0);
    for (size_t i = begin; i < end; ++i) {
      const int cls = static_cast<int>(std::llround(ds.y[(*rows)[i]]));
      counts[static_cast<size_t>(cls)] += 1.0;
    }
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    {
      std::vector<double> dist = counts;
      for (double& c : dist) c /= static_cast<double>(count);
      nodes_[node_id].distribution = std::move(dist);
    }
    const double parent_gini = GiniFromCounts(counts, static_cast<double>(count));
    if (depth >= options.max_depth || count < options.min_samples_split ||
        parent_gini <= 0.0) {
      return node_id;
    }
    double best_score = parent_gini - 1e-9;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::pair<double, uint32_t>> sorted;
    std::vector<double> left_counts(static_cast<size_t>(num_classes));
    for (size_t feature : SplitFeatures(ds.d, options.max_features, rng)) {
      sorted.clear();
      for (size_t i = begin; i < end; ++i) {
        sorted.emplace_back(ds.At((*rows)[i], feature), (*rows)[i]);
      }
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      for (size_t i = 0; i + 1 < count; ++i) {
        const int cls = static_cast<int>(std::llround(ds.y[sorted[i].second]));
        left_counts[static_cast<size_t>(cls)] += 1.0;
        if (sorted[i].first == sorted[i + 1].first) continue;
        const double left_n = static_cast<double>(i + 1);
        const double right_n = static_cast<double>(count) - left_n;
        if (left_n < static_cast<double>(options.min_samples_leaf) ||
            right_n < static_cast<double>(options.min_samples_leaf)) {
          continue;
        }
        std::vector<double> right_counts(static_cast<size_t>(num_classes));
        for (size_t c = 0; c < right_counts.size(); ++c) {
          right_counts[c] = counts[c] - left_counts[c];
        }
        const double weighted =
            (left_n * GiniFromCounts(left_counts, left_n) +
             right_n * GiniFromCounts(right_counts, right_n)) /
            static_cast<double>(count);
        if (weighted < best_score) {
          best_score = weighted;
          best_feature = static_cast<int>(feature);
          best_threshold = 0.5 * (sorted[i].first + sorted[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return node_id;
    auto middle = std::partition(
        rows->begin() + static_cast<ptrdiff_t>(begin),
        rows->begin() + static_cast<ptrdiff_t>(end), [&](uint32_t r) {
          return ds.At(r, static_cast<size_t>(best_feature)) <= best_threshold;
        });
    const size_t mid = static_cast<size_t>(middle - rows->begin());
    if (mid == begin || mid == end) return node_id;
    feature_gains_[static_cast<size_t>(best_feature)] +=
        (parent_gini - best_score) * static_cast<double>(count);
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    const int left = Build(ds, rows, begin, mid, num_classes, options, depth + 1, rng);
    const int right = Build(ds, rows, mid, end, num_classes, options, depth + 1, rng);
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
  }

  std::vector<Node> nodes_;
  std::vector<double> feature_gains_;
};

}  // namespace oracle

using golden::SameBits;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoull(v, nullptr, 10) : fallback;
}

// One random column of a kind the split scan treats specially.
std::vector<double> RandomColumn(size_t n, Rng* rng) {
  std::vector<double> col(n);
  const uint64_t kind = rng->UniformInt(6);
  const double constant = rng->Normal();
  for (double& v : col) {
    switch (kind) {
      case 0:  // continuous
        v = rng->Normal();
        break;
      case 1:  // heavy ties
        v = std::round(rng->Normal() * 2.0) / 2.0;
        break;
      case 2:  // binary
        v = rng->Bernoulli(0.5) ? 1.0 : 0.0;
        break;
      case 3:  // small ints
        v = static_cast<double>(rng->UniformRange(-2, 5));
        break;
      case 4:  // constant
        v = constant;
        break;
      default:  // signed zeros mixed with a few values
        v = rng->Bernoulli(0.6) ? (rng->Bernoulli(0.5) ? 0.0 : -0.0)
                                : static_cast<double>(rng->UniformRange(-1, 1));
        break;
    }
  }
  return col;
}

Dataset RandomDataset(size_t n, size_t d, TaskKind task, int num_classes,
                      Rng* rng) {
  Dataset ds = Dataset::WithLabels({}, task, num_classes);
  ds.n = n;
  ds.y.resize(n);
  for (double& y : ds.y) {
    y = task == TaskKind::kRegression
            ? std::round(rng->Normal() * 4.0) / 4.0
            : static_cast<double>(rng->UniformInt(static_cast<uint64_t>(num_classes)));
  }
  for (size_t f = 0; f < d; ++f) {
    EXPECT_TRUE(ds.AddFeature("f" + std::to_string(f), RandomColumn(n, rng)).ok());
  }
  return ds;
}

// A tree's row multiset as each model draws it: every row in order (GBDT),
// a subsample without replacement (GBDT subsample < 1), or a bootstrap
// sample with repeats (forests, SMAC surrogate).
std::vector<uint32_t> RandomRows(size_t n, Rng* rng) {
  std::vector<uint32_t> rows;
  switch (rng->UniformInt(3)) {
    case 0:
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0u);
      break;
    case 1:
      for (size_t i : rng->SampleIndices(n, 1 + rng->UniformInt(n))) {
        rows.push_back(static_cast<uint32_t>(i));
      }
      break;
    default:
      rows.resize(1 + rng->UniformInt(n + n / 2));
      for (uint32_t& r : rows) r = static_cast<uint32_t>(rng->UniformInt(n));
      break;
  }
  return rows;
}

TreeOptions RandomOptions(size_t d, Rng* rng) {
  TreeOptions options;
  options.max_depth = static_cast<int>(rng->UniformInt(9));
  const size_t leaf_choices[] = {1, 2, 3, 5, 40};
  options.min_samples_leaf = leaf_choices[rng->UniformInt(5)];
  const size_t split_choices[] = {1, 2, 4, 10};
  options.min_samples_split = split_choices[rng->UniformInt(4)];
  const int feature_choices[] = {-1, 1, 2, static_cast<int>(d)};
  options.max_features = feature_choices[rng->UniformInt(4)];
  const double lambda_choices[] = {0.0, 1e-6, 1.0};
  options.lambda = lambda_choices[rng->UniformInt(3)];
  options.min_gain = rng->Bernoulli(0.5) ? 0.0 : 1e-7;
  return options;
}

void ExpectSameGains(const std::vector<double>& actual,
                     const std::vector<double>& expected, const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (size_t f = 0; f < expected.size(); ++f) {
    EXPECT_TRUE(SameBits(actual[f], expected[f]))
        << where << " feature " << f << ": " << actual[f] << " vs " << expected[f];
  }
}

TEST(TreeDifferentialTest, PresortedTreesMatchSortPerNodeBuilder) {
  const uint64_t base_seed = EnvU64("FEATLIB_TREE_SEED", 1);
  const uint64_t num_seeds = EnvU64("FEATLIB_TREE_SWEEP_SEEDS", 40);
  std::printf("tree differential sweep: seeds %llu..%llu\n",
              static_cast<unsigned long long>(base_seed),
              static_cast<unsigned long long>(base_seed + num_seeds - 1));
  size_t split_trees = 0;
  for (uint64_t seed = base_seed; seed < base_seed + num_seeds; ++seed) {
    Rng rng(seed);
    const size_t n = 2 + rng.UniformInt(120);
    const size_t d = 1 + rng.UniformInt(6);
    const int num_classes = 2 + static_cast<int>(rng.UniformInt(3));
    const TaskKind class_task = num_classes == 2 ? TaskKind::kBinaryClassification
                                                 : TaskKind::kMultiClassification;
    const Dataset reg = RandomDataset(n, d, TaskKind::kRegression, 2, &rng);
    const Dataset cls = RandomDataset(n, d, class_task, num_classes, &rng);
    // One presort per dataset, shared by every tree below, as in a model fit.
    const SortedFeatures reg_sorted(reg);
    const SortedFeatures cls_sorted(cls);
    std::vector<double> grad(n);
    std::vector<double> hess(n);
    for (size_t i = 0; i < n; ++i) {
      grad[i] = rng.Bernoulli(0.5) ? -reg.y[i] : rng.Normal();
      hess[i] = rng.Bernoulli(0.5) ? 1.0 : 0.05 + rng.Uniform();
    }

    for (int t = 0; t < 6; ++t) {
      const std::string where =
          "seed " + std::to_string(seed) + " tree " + std::to_string(t);
      const std::vector<uint32_t> rows = RandomRows(n, &rng);
      const TreeOptions options = RandomOptions(d, &rng);
      const uint64_t tree_seed = rng.NextU64();

      Rng oracle_rng(tree_seed);
      oracle::GradientTree expected;
      expected.Fit(reg, rows, grad, hess, options, &oracle_rng);
      Rng tree_rng(tree_seed);
      GradientTree actual;
      actual.Fit(reg, reg_sorted, rows, grad, hess, options, &tree_rng);
      ASSERT_EQ(actual.num_nodes(), expected.num_nodes()) << where;
      for (size_t r = 0; r < n; ++r) {
        ASSERT_TRUE(SameBits(actual.PredictRow(reg, r), expected.PredictRow(reg, r)))
            << where << " row " << r;
      }
      ExpectSameGains(actual.feature_gains(), expected.feature_gains(), where);
      EXPECT_EQ(tree_rng.NextU64(), oracle_rng.NextU64()) << where;

      Rng class_oracle_rng(tree_seed);
      oracle::ClassificationTree class_expected;
      class_expected.Fit(cls, rows, num_classes, options, &class_oracle_rng);
      Rng class_rng(tree_seed);
      ClassificationTree class_actual;
      class_actual.Fit(cls, cls_sorted, rows, num_classes, options, &class_rng);
      ASSERT_EQ(class_actual.num_nodes(), class_expected.num_nodes()) << where;
      for (size_t r = 0; r < n; ++r) {
        const auto& a = class_actual.PredictDistribution(cls, r);
        const auto& e = class_expected.PredictDistribution(cls, r);
        ASSERT_EQ(a.size(), e.size()) << where;
        for (size_t c = 0; c < e.size(); ++c) {
          ASSERT_TRUE(SameBits(a[c], e[c])) << where << " row " << r << " class " << c;
        }
      }
      ExpectSameGains(class_actual.feature_gains(), class_expected.feature_gains(),
                      where);
      EXPECT_EQ(class_rng.NextU64(), class_oracle_rng.NextU64()) << where;
      if (expected.num_nodes() > 1) ++split_trees;
      if (class_expected.num_nodes() > 1) ++split_trees;
    }
  }
  // The sweep must exercise real splits, not only single-leaf trees.
  EXPECT_GT(split_trees, num_seeds * 3);
}

}  // namespace
}  // namespace featlib
