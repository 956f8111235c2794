#pragma once

/// \file feature_eval.h
/// \brief Central evaluation service: materializes query features against
/// (D, R), scores them with low-cost proxies (§V.C, Table VIII) or with the
/// real downstream model (Problem 1's L(A(D_train), D_valid)), and caches
/// feature columns across the search.

#include <string>
#include <unordered_map>
#include <vector>

#include "ml/evaluator.h"
#include "query/query_planner.h"
#include "query/executor.h"

namespace featlib {

/// Low-cost proxies studied in Table VIII.
enum class ProxyKind {
  kMutualInformation,  // "MI" (default)
  kSpearman,           // "SC"
  kLogisticRegression, // "LR" mini-model proxy
};

const char* ProxyKindToString(ProxyKind proxy);

struct EvaluatorOptions {
  ModelKind model = ModelKind::kXgb;
  /// Metric; defaults (per task) applied when unset stays kAuc for binary.
  MetricKind metric = MetricKind::kAuc;
  double train_ratio = 0.6;
  double valid_ratio = 0.2;
  uint64_t split_seed = 7;
  uint64_t model_seed = 13;
};

/// \brief Evaluation context bound to one (D, label, base features, R).
class FeatureEvaluator {
 public:
  /// `base_feature_cols` are D's pre-existing features (the paper's age,
  /// gender, ...); FK columns and the label must not be listed.
  static Result<FeatureEvaluator> Create(const Table& training,
                                         const std::string& label_col,
                                         const std::vector<std::string>& base_feature_cols,
                                         const Table& relevant, TaskKind task,
                                         EvaluatorOptions options);

  /// Materializes (and caches) the feature column of `q` aligned to D.
  /// Uncached candidates run through the shared QueryPlanner, so the
  /// group index and predicate masks are built once across the search.
  /// The returned pointer stays valid until a later Feature/Features call
  /// evicts the entry (the cache is byte-capped; entries touched by the
  /// current call are epoch-pinned and never evicted by it).
  Result<const std::vector<double>*> Feature(const AggQuery& q);

  /// Batched variant: materializes every uncached query in one
  /// QueryPlanner::EvaluateMany pass. Returned pointers point into the
  /// feature cache, with the same validity contract as Feature() — all
  /// entries of one call are pinned against eviction by that call.
  Result<std::vector<const std::vector<double>*>> Features(
      const std::vector<AggQuery>& queries);

  /// One slot of a partial-failure-isolated batch: exactly one of
  /// {values, !status.ok()} holds.
  struct FeatureSlot {
    Status status;
    const std::vector<double>* values = nullptr;  // cache-owned when ok
  };

  /// Partial-failure-isolated variant of Features(): one failing candidate
  /// (bad spec, injected build/kernel fault) fails only its own slot, and the
  /// surviving columns are byte-identical to a fresh Features() of the
  /// survivors. Failed candidates are never cached, so a later retry
  /// re-evaluates them. The outer Result fails only for batch-wide errors —
  /// a tripped ExecContext or exhausted memory budget.
  Result<std::vector<FeatureSlot>> FeaturesIsolated(
      const std::vector<AggQuery>& queries);

  /// Proxy score of the single feature on the training split; higher is
  /// better for every proxy kind.
  Result<double> ProxyScore(const AggQuery& q, ProxyKind proxy);

  /// Real model evaluation: base features plus all `queries` features,
  /// trained on the train split, scored on the validation split.
  Result<double> ModelScore(const std::vector<AggQuery>& queries);

  /// Real model evaluation of the base features plus one query feature.
  Result<double> ModelScoreSingle(const AggQuery& q) {
    return ModelScore({q});
  }

  /// Reduced-fidelity model evaluation for Hyperband/BOHB: trains on the
  /// first ceil(fidelity * |train|) rows of the shuffled train split (a
  /// uniform subsample with the prefix property successive halving wants —
  /// every higher rung's training set contains the lower rung's) and scores
  /// on the full validation split. fidelity must lie in (0, 1];
  /// fidelity = 1 is exactly ModelScore.
  Result<double> ModelScoreAtFidelity(const std::vector<AggQuery>& queries,
                                      double fidelity);

  /// Model metric with base features only (cached after first call).
  Result<double> BaselineModelScore();

  /// Test-split metric for a final feature set (used by benches to report
  /// held-out numbers like the paper's tables).
  Result<double> TestScore(const std::vector<AggQuery>& queries);

  /// Converts a metric value into a loss for minimizing optimizers.
  double ScoreToLoss(double metric_value) const {
    return MetricToLoss(options_.metric, metric_value);
  }

  const Table& training() const { return training_; }
  const Table& relevant() const { return relevant_; }
  TaskKind task() const { return base_.task; }
  const EvaluatorOptions& options() const { return options_; }
  const Dataset& base_dataset() const { return base_; }
  const SplitIndices& split() const { return split_; }

  /// Evaluation counters (reported by the scalability benches).
  size_t num_feature_materializations() const { return num_materializations_; }
  size_t num_proxy_evals() const { return num_proxy_evals_; }
  size_t num_model_evals() const { return num_model_evals_; }

  /// \name Feature-cache accounting. The cache is byte-capped with the
  /// ArtifactStore's epoch-pinning idiom: every Feature/Features call opens
  /// an epoch, entries it touches are stamped, and eviction only removes
  /// entries from older epochs — an in-flight batch can never evict its own
  /// working set (the cache may temporarily exceed the cap instead).
  /// Evicted columns re-materialize through the planner.
  /// @{
  void set_feature_cache_cap_bytes(size_t cap) {
    feature_cache_cap_bytes_ = cap;
  }
  size_t feature_cache_bytes() const { return feature_cache_bytes_; }
  size_t num_feature_cache_evictions() const {
    return feature_cache_evictions_;
  }
  /// @}

  /// The shared candidate-evaluation engine (introspection: PlanStats,
  /// store counters).
  const QueryPlanner& planner() const { return planner_; }

  /// Cooperative execution limits (deadline / cancellation / memory budget),
  /// checked at chunk and stage boundaries of every evaluation below this
  /// point. Not owned; must outlive the evaluator or be reset to nullptr.
  void set_exec_context(const ExecContext* ctx) { ctx_ = ctx; }
  const ExecContext* exec_context() const { return ctx_; }

  /// Out-of-core morsel streaming (query/morsel.h), forwarded to the
  /// shared planner. 0 rows (the default) keeps the in-RAM artifact path;
  /// non-zero streams every uncached materialization below this point in
  /// bounded-memory morsels (bit-identical results).
  void set_morsel_rows(size_t rows) { planner_.set_morsel_rows(rows); }

 private:
  FeatureEvaluator() = default;

  /// Builds base + query features dataset rows for the given split rows.
  Result<Dataset> BuildDataset(const std::vector<AggQuery>& queries,
                               const std::vector<uint32_t>& rows);

  Table training_;
  Table relevant_;
  std::string label_col_;
  Dataset base_;  // base features over all rows of D
  SplitIndices split_;
  EvaluatorOptions options_;

  struct FeatureEntry {
    std::vector<double> values;
    uint64_t used_epoch = 0;  // == feature_epoch_ => pinned by this call
  };

  /// Approximate heap bytes of one cache entry (map-node overhead folded
  /// into a constant).
  static size_t FeatureEntryBytes(const std::string& key,
                                  const std::vector<double>& values) {
    return key.size() + values.capacity() * sizeof(double) + 64;
  }

  /// Evicts unpinned entries until `incoming` more bytes fit under the cap
  /// (or only pinned entries remain).
  void EvictFeaturesFor(size_t incoming);

  /// Inserts under the byte cap; returns the stable cache-owned pointer.
  const std::vector<double>* InsertFeature(std::string key,
                                           std::vector<double> values);

  /// Shared candidate-evaluation engine; its artifact store caches the
  /// group index and per-predicate selection masks across all Feature()
  /// calls, and its prepare/fan-out phases run on the global thread pool.
  QueryPlanner planner_;
  const ExecContext* ctx_ = nullptr;
  std::unordered_map<std::string, FeatureEntry> feature_cache_;
  uint64_t feature_epoch_ = 0;
  size_t feature_cache_bytes_ = 0;
  size_t feature_cache_cap_bytes_ = 256u << 20;
  size_t feature_cache_evictions_ = 0;
  // Labels restricted to the train split (proxy scoring).
  std::vector<double> train_labels_;
  double baseline_score_ = 0.0;
  bool baseline_computed_ = false;

  size_t num_materializations_ = 0;
  size_t num_proxy_evals_ = 0;
  size_t num_model_evals_ = 0;
};

}  // namespace featlib
