/// \file search_session_test.cc
/// \brief Pins the SearchSession layer of the batched search pipeline:
/// pooled proxy/model scoring equals the singleton evaluator entry points
/// bit-for-bit, score caches absorb repeat proposals within and across
/// stages, per-stage counters attribute work correctly, and columns the
/// evaluator's byte-capped feature cache evicted re-materialize on demand.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/search_session.h"
#include "data/synthetic.h"

namespace featlib {
namespace {

SyntheticOptions SmallOptions() {
  SyntheticOptions options;
  options.n_train = 300;
  options.avg_logs_per_entity = 10;
  options.seed = 7;
  return options;
}

FeatureEvaluator MakeEvaluator(const DatasetBundle& bundle) {
  EvaluatorOptions options;
  options.model = ModelKind::kLogisticRegression;
  options.metric = MetricKind::kAuc;
  auto evaluator =
      FeatureEvaluator::Create(bundle.training, bundle.label_col,
                               bundle.base_features, bundle.relevant,
                               bundle.task, options);
  EXPECT_TRUE(evaluator.ok());
  return std::move(evaluator).ValueOrDie();
}

// A small pool of distinct valid queries over the Tmall bundle.
std::vector<AggQuery> MakePool(const DatasetBundle& bundle, size_t n) {
  std::vector<AggQuery> pool;
  for (AggFunction fn : AllAggFunctions()) {
    if (pool.size() == n) break;
    AggQuery q = bundle.golden_query;
    q.agg = fn;
    if (q.Validate(bundle.relevant).ok()) pool.push_back(std::move(q));
  }
  EXPECT_EQ(pool.size(), n);
  return pool;
}

TEST(SearchSessionTest, PooledProxyScoresMatchSingletonPath) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator pooled_eval = MakeEvaluator(bundle);
  FeatureEvaluator singleton_eval = MakeEvaluator(bundle);
  SearchSession session(&pooled_eval);
  const std::vector<AggQuery> pool = MakePool(bundle, 6);

  auto pooled = session.ProxyScores(pool, ProxyKind::kMutualInformation);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(pooled.value().size(), pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    auto single =
        singleton_eval.ProxyScore(pool[i], ProxyKind::kMutualInformation);
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ(pooled.value()[i], single.value()) << "query " << i;
  }
}

TEST(SearchSessionTest, PooledModelScoresMatchSingletonPath) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator pooled_eval = MakeEvaluator(bundle);
  FeatureEvaluator singleton_eval = MakeEvaluator(bundle);
  SearchSession session(&pooled_eval);
  const std::vector<AggQuery> pool = MakePool(bundle, 4);

  auto pooled = session.ModelScores(pool);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  for (size_t i = 0; i < pool.size(); ++i) {
    auto single = singleton_eval.ModelScoreSingle(pool[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ(pooled.value()[i].metric, single.value()) << "query " << i;
    EXPECT_DOUBLE_EQ(pooled.value()[i].loss,
                     singleton_eval.ScoreToLoss(single.value()));
  }
}

TEST(SearchSessionTest, ScoreCachesAbsorbRepeatProposals) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  SearchSession session(&evaluator);
  session.BeginStage(SearchStage::kWarmup);
  const std::vector<AggQuery> pool = MakePool(bundle, 5);

  ASSERT_TRUE(session.ProxyScores(pool, ProxyKind::kMutualInformation).ok());
  const size_t proxy_after_first = evaluator.num_proxy_evals();
  EXPECT_EQ(proxy_after_first, pool.size());
  EXPECT_EQ(session.stage(SearchStage::kWarmup).proxy_evals, pool.size());
  EXPECT_EQ(session.stage(SearchStage::kWarmup).proxy_cache_hits, 0u);

  // Re-proposing the same pool computes nothing new.
  auto again = session.ProxyScores(pool, ProxyKind::kMutualInformation);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(evaluator.num_proxy_evals(), proxy_after_first);
  EXPECT_EQ(session.stage(SearchStage::kWarmup).proxy_cache_hits, pool.size());

  // Duplicates *within* one pool are scored once.
  std::vector<AggQuery> with_dups = {pool[0], pool[0], pool[1]};
  AggQuery fresh = bundle.golden_query;
  fresh.agg_attr = "discount";
  ASSERT_TRUE(fresh.Validate(bundle.relevant).ok());
  with_dups.push_back(fresh);
  const size_t before = evaluator.num_proxy_evals();
  auto mixed = session.ProxyScores(with_dups, ProxyKind::kMutualInformation);
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(evaluator.num_proxy_evals(), before + 1);  // only `fresh`
  EXPECT_DOUBLE_EQ(mixed.value()[0], mixed.value()[1]);

  // Model outcomes cache the same way.
  session.BeginStage(SearchStage::kGeneration);
  ASSERT_TRUE(session.ModelScores(pool).ok());
  const size_t model_after_first = evaluator.num_model_evals();
  EXPECT_EQ(model_after_first, pool.size());
  ASSERT_TRUE(session.ModelScores(pool).ok());
  EXPECT_EQ(evaluator.num_model_evals(), model_after_first);
  EXPECT_EQ(session.stage(SearchStage::kGeneration).model_cache_hits,
            pool.size());
}

TEST(SearchSessionTest, StageCountersAttributeWorkToTheActiveStage) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  SearchSession session(&evaluator);
  const std::vector<AggQuery> pool = MakePool(bundle, 3);

  session.BeginStage(SearchStage::kQti);
  ASSERT_TRUE(session.ProxyScores(pool, ProxyKind::kMutualInformation).ok());
  session.BeginStage(SearchStage::kGeneration);
  ASSERT_TRUE(session.ModelScores(pool).ok());

  EXPECT_EQ(session.stage(SearchStage::kQti).proxy_evals, pool.size());
  EXPECT_EQ(session.stage(SearchStage::kQti).model_evals, 0u);
  EXPECT_EQ(session.stage(SearchStage::kGeneration).model_evals, pool.size());
  EXPECT_EQ(session.stage(SearchStage::kWarmup).proxy_evals, 0u);
  EXPECT_EQ(session.stage(SearchStage::kWarmup).model_evals, 0u);
}

TEST(SearchSessionTest, FidelityLossesMatchSingletonsAndAreNotCached) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator pooled_eval = MakeEvaluator(bundle);
  FeatureEvaluator singleton_eval = MakeEvaluator(bundle);
  SearchSession session(&pooled_eval);
  const std::vector<AggQuery> pool = MakePool(bundle, 3);

  auto losses = session.FidelityLosses(pool, 0.5);
  ASSERT_TRUE(losses.ok()) << losses.status().ToString();
  for (size_t i = 0; i < pool.size(); ++i) {
    auto single = singleton_eval.ModelScoreAtFidelity({pool[i]}, 0.5);
    ASSERT_TRUE(single.ok());
    EXPECT_DOUBLE_EQ(losses.value()[i],
                     singleton_eval.ScoreToLoss(single.value()));
  }
  // Reduced-fidelity evaluations are never cached (the cost ledger must
  // reflect every subsample training).
  const size_t evals = pooled_eval.num_model_evals();
  ASSERT_TRUE(session.FidelityLosses(pool, 0.5).ok());
  EXPECT_EQ(pooled_eval.num_model_evals(), evals + pool.size());
}

TEST(SearchSessionTest, EvictedFeaturesRecomputeOnDemand) {
  DatasetBundle bundle = MakeTmall(SmallOptions());
  FeatureEvaluator evaluator = MakeEvaluator(bundle);
  SearchSession session(&evaluator);
  const std::vector<AggQuery> pool = MakePool(bundle, 6);

  // Cap the feature cache below one column: any later insert evicts the
  // previous epochs' entries (in-batch entries stay pinned).
  evaluator.set_feature_cache_cap_bytes(1);
  ASSERT_TRUE(session.ProxyScores(pool, ProxyKind::kMutualInformation).ok());
  const size_t materializations = evaluator.num_feature_materializations();
  EXPECT_EQ(materializations, pool.size());
  EXPECT_EQ(evaluator.num_feature_cache_evictions(), 0u);

  // The proxy cache answers the repeat pool without re-materializing.
  ASSERT_TRUE(session.ProxyScores(pool, ProxyKind::kMutualInformation).ok());
  EXPECT_EQ(evaluator.num_feature_materializations(), materializations);

  // A fresh query's insert pushes the over-cap pool columns out.
  AggQuery fresh = bundle.golden_query;
  fresh.agg_attr = "discount";
  ASSERT_TRUE(fresh.Validate(bundle.relevant).ok());
  ASSERT_TRUE(evaluator.Feature(fresh).ok());
  EXPECT_GE(evaluator.num_feature_cache_evictions(), pool.size());

  // A model pass needs the evicted columns again: they re-materialize.
  ASSERT_TRUE(session.ModelScores(pool).ok());
  EXPECT_EQ(evaluator.num_feature_materializations(),
            materializations + 1 + pool.size());
}

}  // namespace
}  // namespace featlib
