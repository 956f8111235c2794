#include <gtest/gtest.h>

#include "baselines/featuretools.h"
#include "baselines/selectors.h"
#include "core/augmenter.h"
#include "core/feataug.h"
#include "data/synthetic.h"

namespace featlib {
namespace {

SyntheticOptions SmallData() {
  SyntheticOptions options;
  options.n_train = 300;
  options.avg_logs_per_entity = 10;
  options.seed = 21;
  return options;
}

FeatAugOptions FastOptions() {
  FeatAugOptions options;
  options.n_templates = 3;
  options.queries_per_template = 3;
  options.generator.warmup_iterations = 25;
  options.generator.warmup_top_k = 5;
  options.generator.generation_iterations = 8;
  options.qti.beam_width = 2;
  options.qti.max_depth = 2;
  options.qti.node_iterations = 8;
  options.evaluator.model = ModelKind::kLogisticRegression;
  options.evaluator.metric = MetricKind::kAuc;
  options.seed = 5;
  return options;
}

TEST(FeatAugTest, EndToEndFitProducesPlan) {
  DatasetBundle bundle = MakeTmall(SmallData());
  FeatAug feataug(bundle.ToProblem(), FastOptions());
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan.value().queries.size(), 0u);
  EXPECT_LE(plan.value().queries.size(), 9u);  // 3 templates x 3 queries
  EXPECT_EQ(plan.value().queries.size(), plan.value().feature_names.size());
  EXPECT_EQ(plan.value().queries.size(), plan.value().valid_metrics.size());
  EXPECT_EQ(plan.value().templates_considered, 3u);
  EXPECT_GT(plan.value().model_evals, 0u);
  EXPECT_GT(plan.value().proxy_evals, 0u);
  EXPECT_GT(plan.value().qti_seconds, 0.0);
}

TEST(FeatAugTest, ApplyAppendsFeatureColumns) {
  DatasetBundle bundle = MakeTmall(SmallData());
  FeatAug feataug(bundle.ToProblem(), FastOptions());
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok());
  auto fitted = feataug.MakeFitted(plan.value());
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  auto augmented = fitted.value()->Transform(bundle.training);
  ASSERT_TRUE(augmented.ok());
  EXPECT_EQ(augmented.value().num_rows(), bundle.training.num_rows());
  EXPECT_EQ(augmented.value().num_columns(),
            bundle.training.num_columns() + plan.value().queries.size());
  for (const auto& name : plan.value().feature_names) {
    EXPECT_TRUE(augmented.value().HasColumn(name));
  }
}

TEST(FeatAugTest, ApplyToDatasetMatchesPlanWidth) {
  DatasetBundle bundle = MakeTmall(SmallData());
  FeatAug feataug(bundle.ToProblem(), FastOptions());
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok());
  auto fitted = feataug.MakeFitted(plan.value());
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  auto ds = fitted.value()->TransformToDataset(
      bundle.training, bundle.label_col, bundle.base_features, bundle.task);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds.value().d,
            bundle.base_features.size() + plan.value().queries.size());
  EXPECT_EQ(ds.value().n, bundle.training.num_rows());
}

TEST(FeatAugTest, NoQtiUsesSingleTemplate) {
  DatasetBundle bundle = MakeTmall(SmallData());
  FeatAugOptions options = FastOptions();
  options.enable_qti = false;
  FeatAug feataug(bundle.ToProblem(), options);
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().templates_considered, 1u);
  EXPECT_DOUBLE_EQ(plan.value().qti_seconds, 0.0);
}

TEST(FeatAugTest, EvaluatorAccessibleAfterFit) {
  DatasetBundle bundle = MakeTmall(SmallData());
  FeatAug feataug(bundle.ToProblem(), FastOptions());
  EXPECT_EQ(feataug.evaluator(), nullptr);
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(feataug.evaluator(), nullptr);
  auto test_score = feataug.evaluator()->TestScore(plan.value().queries);
  ASSERT_TRUE(test_score.ok());
  EXPECT_GT(test_score.value(), 0.4);
}

// The headline integration property (Table III's direction): FeatAug's
// features outperform Featuretools' predicate-free features on the
// held-out test split of the planted-signal data.
TEST(FeatAugTest, BeatsFeaturetoolsOnPlantedSignal) {
  // Needs enough rows that the validation split is not pure noise — with
  // tiny splits the search can only overfit (see generator_test).
  SyntheticOptions data_options = SmallData();
  data_options.n_train = 1200;
  DatasetBundle bundle = MakeTmall(data_options);
  FeatAugOptions options = FastOptions();
  options.n_templates = 4;
  options.queries_per_template = 5;
  options.generator.warmup_iterations = 120;
  options.generator.warmup_top_k = 12;
  options.generator.generation_iterations = 25;
  options.qti.node_iterations = 25;
  FeatAug feataug(bundle.ToProblem(), options);
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok());
  auto feataug_score = feataug.evaluator()->TestScore(plan.value().queries);
  ASSERT_TRUE(feataug_score.ok());

  // Featuretools: all predicate-free queries, same feature budget.
  const auto ft_all = GenerateFeaturetoolsQueries(
      bundle.relevant, bundle.agg_functions, bundle.agg_attrs, bundle.fk_attrs);
  std::vector<AggQuery> ft_budgeted(
      ft_all.begin(),
      ft_all.begin() + std::min(ft_all.size(), plan.value().queries.size()));
  auto ft_score = feataug.evaluator()->TestScore(ft_budgeted);
  ASSERT_TRUE(ft_score.ok());

  EXPECT_GT(feataug_score.value(), ft_score.value())
      << "FeatAug AUC " << feataug_score.value() << " vs FT "
      << ft_score.value();
}

TEST(FeatAugTest, RegressionTaskEndToEnd) {
  DatasetBundle bundle = MakeMerchant(SmallData());
  FeatAugOptions options = FastOptions();
  options.evaluator.metric = MetricKind::kRmse;
  FeatAug feataug(bundle.ToProblem(), options);
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan.value().queries.size(), 0u);
}

TEST(FeatAugTest, OneToOneMulticlassEndToEnd) {
  // Covtype-style single-table scenario (§VII.C): R is a self-joined
  // one-to-one table, the task is 4-class F1. The augmented feature set
  // must beat the base features (the signal lives entirely in R).
  SyntheticOptions data_options = SmallData();
  data_options.n_train = 600;
  DatasetBundle bundle = MakeCovtype(data_options);
  FeatAugOptions options = FastOptions();
  options.evaluator.metric = MetricKind::kF1Macro;
  FeatAug feataug(bundle.ToProblem(), options);
  auto plan = feataug.Fit();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto baseline = feataug.evaluator()->BaselineModelScore();
  auto augmented = feataug.evaluator()->TestScore(plan.value().queries);
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(augmented.ok());
  EXPECT_GT(augmented.value(), baseline.value());
}

TEST(FeatAugTest, InvalidProblemRejected) {
  DatasetBundle bundle = MakeTmall(SmallData());
  FeatAugProblem problem = bundle.ToProblem();
  problem.agg_attrs = {"missing_attr"};
  FeatAug feataug(problem, FastOptions());
  EXPECT_FALSE(feataug.Fit().ok());
}

}  // namespace
}  // namespace featlib
