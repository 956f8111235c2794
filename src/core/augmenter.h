#pragma once

/// \file augmenter.h
/// \brief The public two-phase augmentation API: a polymorphic `Augmenter`
/// that runs the expensive offline search (`Fit`), and the long-lived,
/// thread-safe `FittedAugmenter` serving handle it returns.
///
/// FeatAug's workflow is inherently two-phase — an expensive search over
/// predicate-aware aggregation queries, then cheap repeated application of
/// the winning plan to incoming rows. The interface makes that contract
/// explicit and uniform across every method in the repo:
///
///   std::unique_ptr<Augmenter> aug = MakeFeatAugAugmenter(problem, options);
///   FEAT_ASSIGN_OR_RETURN(auto fitted, aug->Fit());       // fit once
///   FEAT_ASSIGN_OR_RETURN(Table out, fitted->Transform(batch));   // many times
///
/// `FittedAugmenter` holds one frozen ServingPlan per relevant table: each
/// query's per-group values, computed exactly once at creation, plus the
/// key maps that look them up. `Transform` only maps the batch's join keys
/// to group ids (call-local) and scatters the frozen values, so repeated
/// serving/HPO batches never re-plan or re-aggregate, and concurrent
/// `Transform` calls from any number of threads are safe and byte-identical
/// to serial execution (see docs/ARCHITECTURE.md, "API layer").
///
/// Implementations: FeatAug (MakeFeatAugAugmenter), MultiTableFeatAug
/// (MakeMultiTableAugmenter) here; the four baselines (Random,
/// Featuretools+selectors, ARDA, AutoFeature) in baselines/augmenters.h.
/// Serialized plans round-trip into a handle via LoadFittedAugmenter
/// (core/plan_io.h): fit offline, ship the SQL artifact, serve online.

#include <memory>
#include <string>
#include <vector>

#include "core/feataug.h"
#include "core/multi_table.h"
#include "ml/dataset.h"
#include "query/query_planner.h"
#include "table/table.h"

namespace featlib {

class ThreadPool;

/// Search-phase bookkeeping carried over from Fit onto the handle (the
/// scalability experiments' timings and evaluation counters).
struct FitDiagnostics {
  double qti_seconds = 0.0;
  double warmup_seconds = 0.0;
  double generate_seconds = 0.0;
  size_t templates_considered = 0;
  size_t model_evals = 0;
  size_t proxy_evals = 0;
  /// Per-stage split + SearchSession cache reuse (see AugmentationPlan).
  size_t qti_proxy_evals = 0;
  size_t qti_model_evals = 0;
  size_t warmup_proxy_evals = 0;
  size_t warmup_model_evals = 0;
  size_t generation_model_evals = 0;
  size_t proxy_cache_hits = 0;
  size_t model_cache_hits = 0;
  /// Planner-side health counter (see AugmentationPlan): retry pressure on
  /// artifact builds.
  size_t build_retries = 0;
  /// Always 0: the planner has no compile memo. Kept because the end-to-end
  /// benchmark's record reads them.
  size_t compile_cache_hits = 0;
  size_t compile_cache_misses = 0;
  /// Candidates the search skipped via partial-failure isolation (content
  /// key + Status). Carried from AugmentationPlan::failed_candidates so
  /// serving-side monitoring can see the plan was fitted around failures.
  std::vector<SearchSession::FailedCandidate> failed_candidates;
};

/// \brief Long-lived serving handle for a fitted augmentation plan.
///
/// Immutable after Create, so every public method is const and safe to call
/// concurrently from multiple threads on one shared instance. Outputs are
/// byte-identical to serial execution at every thread count.
class FittedAugmenter {
 public:
  /// One relevant table's slice of the plan. `name` qualifies feature
  /// columns as "<name>__<feature>" (empty = unqualified, the single-table
  /// case). Missing feature names are regenerated as "feature_<i>"; missing
  /// metrics are NaN.
  struct Source {
    std::string name;
    Table relevant;
    std::vector<AggQuery> queries;
    std::vector<std::string> feature_names;
    std::vector<double> valid_metrics;
  };

  /// Compiles every source's queries into a frozen ServingPlan: the
  /// per-group values are computed here, once, by a planner local to this
  /// call, whose artifacts are freed before it returns. Feature names are
  /// qualified and deduplicated within the plan (suffix rule "_2", "_3",
  /// ...).
  static Result<std::unique_ptr<FittedAugmenter>> Create(
      std::vector<Source> sources, FitDiagnostics diagnostics = {});

  /// Appends the plan's feature columns to `batch` (any table carrying the
  /// join-key columns). Names colliding with existing batch columns are
  /// deterministically deduplicated, never an error. Thread-safe. `ctx`
  /// (optional, not owned) imposes cooperative deadline/cancellation/budget
  /// limits, checked at chunk boundaries of the kernel fan-out.
  Result<Table> Transform(const Table& batch,
                          const ExecContext* ctx = nullptr) const;

  /// Transforms each batch independently; equivalent to calling Transform
  /// per batch (artifacts are shared across the whole run) but fans the
  /// batches out over the thread pool. Fail-fast: the first batch error
  /// fails the call (sibling batches still complete; see
  /// TransformManyIsolated to keep their outputs). Thread-safe.
  Result<std::vector<Table>> TransformMany(
      const std::vector<Table>& batches,
      const ExecContext* ctx = nullptr) const;

  /// One batch's outcome under partial-failure isolation: exactly one of
  /// {table, !status.ok()} holds.
  struct BatchResult {
    Status status;
    Table table;
  };

  /// Partial-failure-isolated TransformMany: each batch succeeds or fails
  /// on its own, and surviving outputs are byte-identical to per-batch
  /// Transform calls. The outer Result fails only batch-wide (a tripped
  /// `ctx`). Thread-safe.
  Result<std::vector<BatchResult>> TransformManyIsolated(
      const std::vector<Table>& batches,
      const ExecContext* ctx = nullptr) const;

  /// Builds the augmented Dataset (base features + plan features) aligned
  /// to `batch` rows, ready for downstream training. Thread-safe.
  Result<Dataset> TransformToDataset(
      const Table& batch, const std::string& label_col,
      const std::vector<std::string>& base_feature_cols, TaskKind task,
      const ExecContext* ctx = nullptr) const;

  /// Raw feature columns aligned to `batch`, in feature_names() order
  /// (benches and tests compare these byte-wise). Thread-safe.
  Result<std::vector<std::vector<double>>> ComputeFeatureColumns(
      const Table& batch, const ExecContext* ctx = nullptr) const;

  /// Qualified, plan-level-deduplicated feature names, one per query across
  /// all sources (the names Transform appends, pre batch-collision dedup).
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  size_t num_features() const { return feature_names_.size(); }
  /// Validation metrics aligned to feature_names() (NaN when unknown).
  const std::vector<double>& valid_metrics() const { return valid_metrics_; }
  /// Every fitted query across all sources, in feature order.
  std::vector<AggQuery> AllQueries() const;
  size_t num_sources() const { return sources_.size(); }
  const FitDiagnostics& diagnostics() const { return diag_; }

  /// Resident heap bytes of the handle's serving state: every source's
  /// relevant-table columns, frozen per-group values and key maps.
  size_t SizeBytes() const;

  /// Pool for the per-call kernel fan-out (and across TransformMany
  /// batches). Defaults to GlobalThreadPool(); set before sharing the
  /// handle across threads. nullptr = inline execution.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

 private:
  struct PerSource {
    Source src;
    ServingPlan serving;  // borrows src.relevant
  };

  FittedAugmenter() = default;

  /// Transform with an explicit pool (nullptr inside TransformMany's
  /// fan-out, where ParallelFor must not nest).
  Result<Table> TransformWith(const Table& batch, ThreadPool* pool,
                              const ExecContext* ctx) const;

  std::vector<std::unique_ptr<PerSource>> sources_;
  std::vector<std::string> feature_names_;
  std::vector<double> valid_metrics_;
  FitDiagnostics diag_;
  ThreadPool* pool_ = nullptr;
};

/// \brief The polymorphic fit-phase interface: one API for FeatAug,
/// MultiTableFeatAug and every baseline, so examples, the CLI and the ML
/// evaluation harness program against a single contract.
class Augmenter {
 public:
  virtual ~Augmenter() = default;

  /// Method label ("feataug", "multi_table", "random", ...).
  virtual const char* name() const = 0;

  /// Runs the method's offline search and returns the serving handle.
  virtual Result<std::unique_ptr<FittedAugmenter>> Fit() = 0;

  /// The evaluation context the search used (valid after Fit; test-split
  /// scoring for the benches). Null when the method has no single
  /// evaluator (e.g. multi-table fits one per relevant table).
  virtual FeatureEvaluator* evaluator() { return nullptr; }
};

/// FeatAug behind the Augmenter interface (thin adapter over FeatAug).
std::unique_ptr<Augmenter> MakeFeatAugAugmenter(FeatAugProblem problem,
                                                FeatAugOptions options);

/// MultiTableFeatAug behind the Augmenter interface.
std::unique_ptr<Augmenter> MakeMultiTableAugmenter(MultiTableProblem problem,
                                                   MultiTableOptions options);

/// Wraps a fitted or loaded plan in a serving handle bound to one relevant
/// table (the single-source case; plan_io::LoadFittedAugmenter delegates
/// here after parsing and validating).
Result<std::unique_ptr<FittedAugmenter>> MakeFittedAugmenter(
    AugmentationPlan plan, Table relevant);

}  // namespace featlib
