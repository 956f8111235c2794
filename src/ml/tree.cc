#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/status.h"

namespace featlib {

SortedFeatures::SortedFeatures(const Dataset& ds)
    : n_(ds.n), d_(ds.d), entries_(ds.n * ds.d) {
  for (size_t f = 0; f < d_; ++f) {
    Entry* col = entries_.data() + f * n_;
    for (size_t r = 0; r < n_; ++r) {
      col[r] = Entry{ds.At(r, f), static_cast<uint32_t>(r)};
    }
    // The order std::sort gives (value, row) pairs; total because no NaN.
    std::sort(col, col + n_, [](const Entry& a, const Entry& b) {
      return a.value < b.value || (a.value == b.value && a.row < b.row);
    });
  }
}

/// One tree's build state. `rows` is the tree's row multiset, partitioned
/// in place by std::partition at each split; node totals are summed in its
/// order, which fixes their rounding. `lists` holds, for every feature, the
/// same multiset in ascending (value, row) order; the node covering
/// [begin, end) of `rows` covers [begin, end) of every list.
class TreeBuildState {
 public:
  using Entry = SortedFeatures::Entry;

  TreeBuildState(const Dataset& ds, const SortedFeatures& sorted,
                 const std::vector<uint32_t>& tree_rows)
      : rows(tree_rows), ds_(ds), m_(tree_rows.size()), d_(ds.d),
        lists_(ds.d * tree_rows.size()), scratch_(tree_rows.size()),
        goes_left_(ds.n) {
    FEAT_CHECK(sorted.num_rows() == ds.n && sorted.num_features() == ds.d,
               "SortedFeatures built from a different dataset");
    // Filter the shared order to this tree's multiset: each row appears as
    // often as it was drawn, repeats adjacent (equal pairs).
    std::vector<uint32_t> multiplicity(ds.n, 0);
    for (uint32_t r : rows) ++multiplicity[r];
    for (size_t f = 0; f < d_; ++f) {
      const Entry* in = sorted.Column(f);
      Entry* out = lists_.data() + f * m_;
      for (size_t i = 0; i < ds.n; ++i) {
        for (uint32_t c = multiplicity[in[i].row]; c > 0; --c) *out++ = in[i];
      }
    }
  }

  /// Feature f's list; the node [begin, end) reads List(f)[begin..end).
  const Entry* List(size_t f) const { return lists_.data() + f * m_; }

  /// Candidate features for one split: all, or a uniform subset without
  /// replacement drawn from `rng` when max_features is set. Valid until the
  /// next call.
  const std::vector<size_t>& SplitFeatures(int max_features, Rng* rng) {
    if (max_features <= 0 || static_cast<size_t>(max_features) >= d_) {
      features_.resize(d_);
      std::iota(features_.begin(), features_.end(), size_t{0});
    } else {
      rng->SampleIndices(d_, static_cast<size_t>(max_features), &features_);
    }
    return features_;
  }

  /// Splits [begin, end) at (feature, threshold) and returns the split
  /// point; begin or end means the split is numerically degenerate and the
  /// node stays a leaf. The rows partition with std::partition; then every
  /// feature's list partitions stably with the rows' left/right decision,
  /// so each child's lists stay in ascending (value, row) order.
  size_t Split(size_t begin, size_t end, size_t feature, double threshold) {
    auto middle = std::partition(
        rows.begin() + static_cast<ptrdiff_t>(begin),
        rows.begin() + static_cast<ptrdiff_t>(end),
        [&](uint32_t r) { return ds_.At(r, feature) <= threshold; });
    const size_t mid = static_cast<size_t>(middle - rows.begin());
    if (mid == begin || mid == end) return mid;

    for (size_t i = begin; i < mid; ++i) goes_left_[rows[i]] = 1;
    for (size_t i = mid; i < end; ++i) goes_left_[rows[i]] = 0;
    for (size_t f = 0; f < d_; ++f) {
      Entry* list = lists_.data() + f * m_;
      size_t left = begin;
      size_t right = 0;
      for (size_t i = begin; i < end; ++i) {
        const Entry e = list[i];
        if (goes_left_[e.row]) {
          list[left++] = e;
        } else {
          scratch_[right++] = e;
        }
      }
      std::copy(scratch_.begin(), scratch_.begin() + static_cast<ptrdiff_t>(right),
                list + left);
    }
    return mid;
  }

  std::vector<uint32_t> rows;
  /// Classification scratch: per-row class index and per-class counts.
  std::vector<size_t> label;
  std::vector<double> counts;
  std::vector<double> left_counts;
  std::vector<double> right_counts;

 private:
  const Dataset& ds_;
  size_t m_;
  size_t d_;
  std::vector<Entry> lists_;       // d blocks of m, feature-major
  std::vector<Entry> scratch_;     // right side of one list partition
  std::vector<uint8_t> goes_left_; // by row id, for the current split
  std::vector<size_t> features_;
};

int GradientTree::Build(TreeBuildState* state, size_t begin, size_t end,
                        const std::vector<double>& grad,
                        const std::vector<double>& hess, const TreeOptions& options,
                        int depth, Rng* rng) {
  const std::vector<uint32_t>& rows = state->rows;
  const size_t count = end - begin;
  double g_total = 0.0;
  double h_total = 0.0;
  for (size_t i = begin; i < end; ++i) {
    g_total += grad[rows[i]];
    h_total += hess[rows[i]];
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

  for (size_t feature : state->SplitFeatures(options.max_features, rng)) {
    const SortedFeatures::Entry* sorted = state->List(feature) + begin;
    if (sorted[0].value == sorted[count - 1].value) continue;

    double g_left = 0.0;
    double h_left = 0.0;
    for (size_t i = 0; i + 1 < count; ++i) {
      g_left += grad[sorted[i].row];
      h_left += hess[sorted[i].row];
      if (sorted[i].value == sorted[i + 1].value) continue;
      const size_t left_n = i + 1;
      const size_t right_n = count - left_n;
      if (left_n < options.min_samples_leaf || right_n < options.min_samples_leaf) {
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
        best_threshold = 0.5 * (sorted[i].value + sorted[i + 1].value);
      }
    }
  }

  if (best_feature < 0) return node_id;

  const size_t mid =
      state->Split(begin, end, static_cast<size_t>(best_feature), best_threshold);
  if (mid == begin || mid == end) return node_id;  // numerically degenerate

  feature_gains_[static_cast<size_t>(best_feature)] += best_gain;

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = Build(state, begin, mid, grad, hess, options, depth + 1, rng);
  const int right = Build(state, mid, end, grad, hess, options, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

void GradientTree::Fit(const Dataset& ds, const SortedFeatures& sorted,
                       const std::vector<uint32_t>& rows,
                       const std::vector<double>& grad,
                       const std::vector<double>& hess, const TreeOptions& options,
                       Rng* rng) {
  FEAT_CHECK(!rows.empty(), "GradientTree::Fit with no rows");
  nodes_.clear();
  feature_gains_.assign(ds.d, 0.0);
  TreeBuildState state(ds, sorted, rows);
  Build(&state, 0, rows.size(), grad, hess, options, 0, rng);
}

double GradientTree::PredictRow(const Dataset& ds, size_t row) const {
  FEAT_CHECK(!nodes_.empty(), "PredictRow before Fit");
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<size_t>(node)];
    node = ds.At(row, static_cast<size_t>(nd.feature)) <= nd.threshold ? nd.left
                                                                       : nd.right;
  }
  return nodes_[static_cast<size_t>(node)].value;
}

namespace {

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (double c : counts) sum_sq += (c / total) * (c / total);
  return 1.0 - sum_sq;
}

}  // namespace

int ClassificationTree::Build(TreeBuildState* state, size_t begin, size_t end,
                              int num_classes, const TreeOptions& options,
                              int depth, Rng* rng) {
  const std::vector<uint32_t>& rows = state->rows;
  const std::vector<size_t>& label = state->label;
  const size_t count = end - begin;
  std::vector<double>& counts = state->counts;
  std::fill(counts.begin(), counts.end(), 0.0);
  for (size_t i = begin; i < end; ++i) counts[label[rows[i]]] += 1.0;

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  {
    std::vector<double>& dist = nodes_[node_id].distribution;
    dist = counts;
    for (double& c : dist) c /= static_cast<double>(count);
  }

  const double parent_gini = GiniFromCounts(counts, static_cast<double>(count));
  if (depth >= options.max_depth || count < options.min_samples_split ||
      parent_gini <= 0.0) {
    return node_id;
  }

  double best_score = parent_gini - 1e-9;  // must strictly improve
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<double>& left_counts = state->left_counts;
  std::vector<double>& right_counts = state->right_counts;
  for (size_t feature : state->SplitFeatures(options.max_features, rng)) {
    const SortedFeatures::Entry* sorted = state->List(feature) + begin;
    if (sorted[0].value == sorted[count - 1].value) continue;

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    for (size_t i = 0; i + 1 < count; ++i) {
      left_counts[label[sorted[i].row]] += 1.0;
      if (sorted[i].value == sorted[i + 1].value) continue;
      const double left_n = static_cast<double>(i + 1);
      const double right_n = static_cast<double>(count) - left_n;
      if (left_n < static_cast<double>(options.min_samples_leaf) ||
          right_n < static_cast<double>(options.min_samples_leaf)) {
        continue;
      }
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
        best_threshold = 0.5 * (sorted[i].value + sorted[i + 1].value);
      }
    }
  }

  if (best_feature < 0) return node_id;

  const size_t mid =
      state->Split(begin, end, static_cast<size_t>(best_feature), best_threshold);
  if (mid == begin || mid == end) return node_id;

  feature_gains_[static_cast<size_t>(best_feature)] +=
      (parent_gini - best_score) * static_cast<double>(count);

  nodes_[node_id].feature = best_feature;
  nodes_[node_id].threshold = best_threshold;
  const int left = Build(state, begin, mid, num_classes, options, depth + 1, rng);
  const int right = Build(state, mid, end, num_classes, options, depth + 1, rng);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

void ClassificationTree::Fit(const Dataset& ds, const SortedFeatures& sorted,
                             const std::vector<uint32_t>& rows, int num_classes,
                             const TreeOptions& options, Rng* rng) {
  FEAT_CHECK(!rows.empty(), "ClassificationTree::Fit with no rows");
  nodes_.clear();
  feature_gains_.assign(ds.d, 0.0);
  TreeBuildState state(ds, sorted, rows);
  state.label.resize(ds.n);
  for (size_t r = 0; r < ds.n; ++r) {
    state.label[r] = static_cast<size_t>(std::llround(ds.y[r]));
  }
  const size_t k = static_cast<size_t>(num_classes);
  state.counts.resize(k);
  state.left_counts.resize(k);
  state.right_counts.resize(k);
  Build(&state, 0, rows.size(), num_classes, options, 0, rng);
}

const std::vector<double>& ClassificationTree::PredictDistribution(const Dataset& ds,
                                                                   size_t row) const {
  FEAT_CHECK(!nodes_.empty(), "PredictDistribution before Fit");
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<size_t>(node)];
    node = ds.At(row, static_cast<size_t>(nd.feature)) <= nd.threshold ? nd.left
                                                                       : nd.right;
  }
  return nodes_[static_cast<size_t>(node)].distribution;
}

}  // namespace featlib
