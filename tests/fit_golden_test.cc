/// \file fit_golden_test.cc
/// \brief Fit-level goldens for the tree models.
///
/// Every other fit-level test trains logistic regression, so nothing else
/// pins a tree model end to end. These tests record small-budget FeatAug
/// fits on the synthetic Tmall bundle with XGB and RF (plan SQL, validation
/// metric bits, held-out test score bits) and one SMAC-backend generator
/// trajectory (whose surrogate is a forest of gradient trees), and require
/// them to stay byte-identical. Regenerate with FEATLIB_REGEN_GOLDENS=1
/// only after an intentional change to model output.

#include <gtest/gtest.h>

#include <string>

#include "core/feataug.h"
#include "core/generator.h"
#include "data/synthetic.h"
#include "golden_util.h"

namespace featlib {
namespace {

using golden::GoldenFile;
using golden::HexDouble;

// Plan SQL on one line (fixture values are newline-free).
std::string OneLineSql(const AggQuery& q, const Table& relevant) {
  std::string sql = q.ToSql("R", relevant);
  for (char& c : sql) {
    if (c == '\n') c = ' ';
  }
  return sql;
}

SyntheticOptions SmallData() {
  SyntheticOptions options;
  options.n_train = 300;
  options.avg_logs_per_entity = 10;
  options.seed = 21;
  return options;
}

FeatAugOptions SmallBudget(ModelKind model) {
  FeatAugOptions options;
  options.n_templates = 2;
  options.queries_per_template = 2;
  options.generator.warmup_iterations = 16;
  options.generator.warmup_top_k = 3;
  options.generator.generation_iterations = 6;
  options.qti.beam_width = 2;
  options.qti.max_depth = 2;
  options.qti.node_iterations = 6;
  options.evaluator.model = model;
  options.evaluator.metric = MetricKind::kAuc;
  options.seed = 5;
  return options;
}

// One fixture file per test: a regenerating GoldenFile rewrites its whole
// file with the keys of its own test.
void CheckFeatAugFit(ModelKind model, const std::string& prefix) {
  GoldenFile golden("fit_" + prefix + ".golden");
  DatasetBundle bundle = MakeTmall(SmallData());
  FeatAug feataug(bundle.ToProblem(), SmallBudget(model));
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const AugmentationPlan& p = plan.value();
  ASSERT_GT(p.queries.size(), 0u);

  golden.Check(prefix + ".num_queries", std::to_string(p.queries.size()));
  golden.Check(prefix + ".model_evals", std::to_string(p.model_evals));
  golden.Check(prefix + ".proxy_evals", std::to_string(p.proxy_evals));
  for (size_t i = 0; i < p.queries.size(); ++i) {
    const std::string key = prefix + ".q" + std::to_string(i);
    golden.Check(key + ".sql", OneLineSql(p.queries[i], bundle.relevant));
    golden.Check(key + ".name", p.feature_names[i]);
    golden.Check(key + ".valid_metric", HexDouble(p.valid_metrics[i]));
  }
  auto test_score = feataug.evaluator()->TestScore(p.queries);
  ASSERT_TRUE(test_score.ok()) << test_score.status().ToString();
  golden.Check(prefix + ".test_score", HexDouble(test_score.value()));
}

TEST(FitGoldenTest, XgbFeatAugFitIsPinned) {
  CheckFeatAugFit(ModelKind::kXgb, "xgb");
}

TEST(FitGoldenTest, RandomForestFeatAugFitIsPinned) {
  CheckFeatAugFit(ModelKind::kRandomForest, "rf");
}

TEST(FitGoldenTest, SmacGeneratorTrajectoryIsPinned) {
  GoldenFile golden("fit_smac.golden");
  DatasetBundle bundle = MakeTmall(SmallData());
  EvaluatorOptions eval_options;
  eval_options.model = ModelKind::kLogisticRegression;
  eval_options.metric = MetricKind::kAuc;
  auto evaluator = FeatureEvaluator::Create(bundle.training, bundle.label_col,
                                            bundle.base_features, bundle.relevant,
                                            bundle.task, eval_options);
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();

  GeneratorOptions options;
  options.backend = HpoBackend::kSmac;
  options.warmup_iterations = 30;
  options.warmup_top_k = 6;
  options.generation_iterations = 14;
  options.n_queries = 8;
  options.seed = 11;
  SqlQueryGenerator generator(&evaluator.value(), options);
  auto result = generator.Run(bundle.golden_template);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const GenerationResult& gen = result.value();

  golden.Check("smac.proxy_evals", std::to_string(gen.proxy_evals));
  golden.Check("smac.model_evals", std::to_string(gen.model_evals));
  golden.Check("smac.num_queries", std::to_string(gen.queries.size()));
  for (size_t i = 0; i < gen.queries.size(); ++i) {
    const std::string key = "smac.q" + std::to_string(i);
    golden.Check(key + ".sql", OneLineSql(gen.queries[i].query, bundle.relevant));
    golden.Check(key + ".model_metric", HexDouble(gen.queries[i].model_metric));
    golden.Check(key + ".loss", HexDouble(gen.queries[i].loss));
  }
}

}  // namespace
}  // namespace featlib
