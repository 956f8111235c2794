#include "core/multi_table.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "common/thread_pool.h"
#include "core/augmenter.h"
#include "query/query_planner.h"

namespace featlib {

TemplateIngredients InferTemplateIngredients(
    const Table& relevant, const std::vector<std::string>& fk_attrs,
    size_t max_categorical_cardinality) {
  TemplateIngredients out;
  auto is_fk = [&](const std::string& name) {
    return std::find(fk_attrs.begin(), fk_attrs.end(), name) != fk_attrs.end();
  };
  for (size_t c = 0; c < relevant.num_columns(); ++c) {
    const std::string& name = relevant.NameAt(c);
    if (is_fk(name)) continue;
    const Column& col = relevant.ColumnAt(c);
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kDouble:
      case DataType::kBool:
      case DataType::kDatetime:
        out.agg_attrs.push_back(name);
        out.where_candidates.push_back(name);
        break;
      case DataType::kString:
        // Near-unique categoricals (ids, free text) make poor predicates:
        // equality carves out singleton groups the model memorizes.
        if (col.CountDistinct() <= max_categorical_cardinality) {
          out.where_candidates.push_back(name);
        }
        break;
    }
  }
  return out;
}

Result<MultiTableProblem> MultiTableProblem::FromGraph(
    const RelationGraph& graph, const std::string& base_name,
    const std::string& label_col, TaskKind task) {
  MultiTableProblem out;
  FEAT_ASSIGN_OR_RETURN(const Table* base, graph.GetTable(base_name));
  out.training = *base;
  out.label_col = label_col;
  out.task = task;
  if (!out.training.HasColumn(label_col)) {
    return Status::InvalidArgument("label column " + label_col +
                                   " missing from base table " + base_name);
  }
  FEAT_ASSIGN_OR_RETURN(std::vector<RelevantScenario> scenarios,
                        graph.BuildScenarios(base_name));
  std::vector<std::string> all_fks;
  for (RelevantScenario& s : scenarios) {
    RelevantInput input;
    input.name = s.name;
    input.fk_attrs = s.fk_attrs;
    // Lookup keys consumed by the flatten are structural, not features.
    std::vector<std::string> excluded = s.fk_attrs;
    excluded.insert(excluded.end(), s.join_keys.begin(), s.join_keys.end());
    TemplateIngredients inferred = InferTemplateIngredients(s.relevant, excluded);
    input.agg_attrs = std::move(inferred.agg_attrs);
    input.candidate_where_attrs = std::move(inferred.where_candidates);
    input.agg_functions = AllAggFunctions();
    input.relevant = std::move(s.relevant);
    for (const std::string& k : input.fk_attrs) all_fks.push_back(k);
    out.relevants.push_back(std::move(input));
  }
  // Base features: everything that is not the label or a join key.
  for (size_t c = 0; c < out.training.num_columns(); ++c) {
    const std::string& name = out.training.NameAt(c);
    if (name == label_col) continue;
    if (std::find(all_fks.begin(), all_fks.end(), name) != all_fks.end()) continue;
    out.base_feature_cols.push_back(name);
  }
  return out;
}

MultiTableFeatAug::MultiTableFeatAug(MultiTableProblem problem,
                                     MultiTableOptions options)
    : problem_(std::move(problem)), options_(options) {}

Result<double> MultiTableFeatAug::ProbeTable(const RelevantInput& input) const {
  EvaluatorOptions eval_options = options_.per_table.evaluator;
  FEAT_ASSIGN_OR_RETURN(
      FeatureEvaluator evaluator,
      FeatureEvaluator::Create(problem_.training, problem_.label_col,
                               problem_.base_feature_cols, input.relevant,
                               problem_.task, eval_options));
  // Featuretools-style unpredicated probe: COUNT per entity plus AVG of
  // each aggregation attribute (capped); best proxy score wins.
  std::vector<AggQuery> probes;
  AggQuery count;
  count.agg = AggFunction::kCount;
  count.agg_attr = input.fk_attrs.front();
  count.group_keys = input.fk_attrs;
  probes.push_back(count);
  const size_t kMaxProbedAttrs = 8;
  for (size_t i = 0; i < input.agg_attrs.size() && i < kMaxProbedAttrs; ++i) {
    AggQuery avg;
    avg.agg = AggFunction::kAvg;
    avg.agg_attr = input.agg_attrs[i];
    avg.group_keys = input.fk_attrs;
    probes.push_back(std::move(avg));
  }
  double best = 0.0;
  for (const AggQuery& q : probes) {
    FEAT_ASSIGN_OR_RETURN(double score,
                          evaluator.ProxyScore(q, options_.per_table.proxy));
    best = std::max(best, score);
  }
  return best;
}

Result<MultiTablePlan> MultiTableFeatAug::Fit() {
  const size_t n_tables = problem_.relevants.size();
  if (n_tables == 0) {
    return Status::InvalidArgument("MultiTableFeatAug needs >= 1 relevant table");
  }
  if (options_.queries_per_template <= 0 || options_.total_features <= 0) {
    return Status::InvalidArgument("feature budget must be positive");
  }

  // ---- Resolve inferred ingredients. ----
  for (RelevantInput& input : problem_.relevants) {
    if (input.fk_attrs.empty()) {
      return Status::InvalidArgument("relevant table " + input.name +
                                     " declares no FK attributes");
    }
    if (input.agg_functions.empty()) input.agg_functions = AllAggFunctions();
    if (input.agg_attrs.empty() || input.candidate_where_attrs.empty()) {
      TemplateIngredients inferred =
          InferTemplateIngredients(input.relevant, input.fk_attrs);
      if (input.agg_attrs.empty()) input.agg_attrs = std::move(inferred.agg_attrs);
      if (input.candidate_where_attrs.empty()) {
        input.candidate_where_attrs = std::move(inferred.where_candidates);
      }
    }
    if (input.agg_attrs.empty()) {
      return Status::InvalidArgument("relevant table " + input.name +
                                     " has no aggregable attributes");
    }
  }

  // ---- Allocate the feature budget. ----
  MultiTablePlan result;
  std::vector<int> budgets(n_tables, 0);
  std::vector<double> probe_scores(n_tables, 0.0);
  const int total = options_.total_features;
  const int min_share = std::min(options_.min_features_per_table,
                                 total / static_cast<int>(n_tables));
  bool proxy_weighted = options_.allocation == BudgetAllocation::kProxyWeighted &&
                        n_tables > 1 &&
                        total > static_cast<int>(n_tables) * min_share;
  if (proxy_weighted) {
    double weight_sum = 0.0;
    for (size_t i = 0; i < n_tables; ++i) {
      FEAT_ASSIGN_OR_RETURN(probe_scores[i], ProbeTable(problem_.relevants[i]));
      weight_sum += probe_scores[i];
    }
    if (weight_sum <= 0.0) {
      proxy_weighted = false;  // no signal anywhere; fall back to equal
    } else {
      int allocated = 0;
      const int spread = total - static_cast<int>(n_tables) * min_share;
      for (size_t i = 0; i < n_tables; ++i) {
        budgets[i] = min_share + static_cast<int>(std::floor(
                                     spread * probe_scores[i] / weight_sum));
        allocated += budgets[i];
      }
      // Round-off remainder goes to the strongest table.
      const size_t best = static_cast<size_t>(
          std::max_element(probe_scores.begin(), probe_scores.end()) -
          probe_scores.begin());
      budgets[best] += total - allocated;
    }
  }
  if (!proxy_weighted) {
    const int base = total / static_cast<int>(n_tables);
    int remainder = total % static_cast<int>(n_tables);
    for (size_t i = 0; i < n_tables; ++i) {
      budgets[i] = base + (remainder-- > 0 ? 1 : 0);
    }
  }

  // ---- One FeatAug per relevant table. ----
  for (size_t i = 0; i < n_tables; ++i) {
    const RelevantInput& input = problem_.relevants[i];
    if (budgets[i] <= 0) {
      result.tables.push_back(MultiTablePlan::TablePlan{
          input.name, AugmentationPlan{}, 0, probe_scores[i]});
      continue;
    }
    FeatAugProblem sub;
    sub.training = problem_.training;
    sub.label_col = problem_.label_col;
    sub.base_feature_cols = problem_.base_feature_cols;
    sub.relevant = input.relevant;
    sub.task = problem_.task;
    sub.agg_functions = input.agg_functions;
    sub.agg_attrs = input.agg_attrs;
    sub.fk_attrs = input.fk_attrs;
    sub.candidate_where_attrs = input.candidate_where_attrs;

    FeatAugOptions sub_options = options_.per_table;
    sub_options.queries_per_template = options_.queries_per_template;
    sub_options.n_templates = std::max(
        1, (budgets[i] + options_.queries_per_template - 1) /
               options_.queries_per_template);
    sub_options.seed = options_.seed + 7919 * (i + 1);
    // Each per-table fit checkpoints under its own tag so the files in a
    // shared directory never collide; a killed multi-table fit resumes
    // table-by-table (completed tables replay from their full caches).
    if (!sub_options.checkpoint.dir.empty() &&
        sub_options.checkpoint.tag.empty()) {
      sub_options.checkpoint.tag = input.name;
    }

    FeatAug feataug(std::move(sub), sub_options);
    FEAT_ASSIGN_OR_RETURN(AugmentationPlan plan, feataug.Fit());
    // Trim to the table's budget (templates round the share up).
    if (plan.queries.size() > static_cast<size_t>(budgets[i])) {
      plan.queries.resize(static_cast<size_t>(budgets[i]));
      plan.feature_names.resize(static_cast<size_t>(budgets[i]));
      plan.valid_metrics.resize(static_cast<size_t>(budgets[i]));
    }
    result.total_features += plan.queries.size();
    result.tables.push_back(MultiTablePlan::TablePlan{
        input.name, std::move(plan), budgets[i], probe_scores[i]});
  }
  return result;
}

Result<std::unique_ptr<FittedAugmenter>> MultiTableFeatAug::FitAugmenter() {
  FEAT_ASSIGN_OR_RETURN(MultiTablePlan plan, Fit());
  return MakeFitted(plan);
}

Result<std::unique_ptr<FittedAugmenter>> MultiTableFeatAug::MakeFitted(
    const MultiTablePlan& plan) const {
  std::vector<FittedAugmenter::Source> sources;
  FitDiagnostics diag;
  for (const MultiTablePlan::TablePlan& tp : plan.tables) {
    const RelevantInput* input = nullptr;
    for (const RelevantInput& candidate : problem_.relevants) {
      if (candidate.name == tp.name) {
        input = &candidate;
        break;
      }
    }
    if (input == nullptr) {
      return Status::InvalidArgument("plan references unknown table " + tp.name);
    }
    FittedAugmenter::Source source;
    source.name = tp.name;
    source.relevant = input->relevant;
    source.queries = tp.plan.queries;
    source.feature_names = tp.plan.feature_names;
    source.valid_metrics = tp.plan.valid_metrics;
    sources.push_back(std::move(source));
    diag.qti_seconds += tp.plan.qti_seconds;
    diag.warmup_seconds += tp.plan.warmup_seconds;
    diag.generate_seconds += tp.plan.generate_seconds;
    diag.templates_considered += tp.plan.templates_considered;
    diag.model_evals += tp.plan.model_evals;
    diag.proxy_evals += tp.plan.proxy_evals;
    diag.qti_proxy_evals += tp.plan.qti_proxy_evals;
    diag.qti_model_evals += tp.plan.qti_model_evals;
    diag.warmup_proxy_evals += tp.plan.warmup_proxy_evals;
    diag.warmup_model_evals += tp.plan.warmup_model_evals;
    diag.generation_model_evals += tp.plan.generation_model_evals;
    diag.proxy_cache_hits += tp.plan.proxy_cache_hits;
    diag.model_cache_hits += tp.plan.model_cache_hits;
    diag.build_retries += tp.plan.build_retries;
    diag.failed_candidates.insert(diag.failed_candidates.end(),
                                  tp.plan.failed_candidates.begin(),
                                  tp.plan.failed_candidates.end());
  }
  return FittedAugmenter::Create(std::move(sources), diag);
}

}  // namespace featlib
