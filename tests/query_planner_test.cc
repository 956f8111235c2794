/// \file query_planner_test.cc
/// \brief Pins the planner layer of the planner / store / kernel split:
/// artifact-DAG deduplication and topology (via PlanStats), publish-once
/// semantics under parallel prepare, determinism of parallel prepare across
/// thread counts, eviction pinning, and error propagation from staged
/// builds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "golden_util.h"
#include "query/query_planner.h"

namespace featlib {
namespace {

using golden::SameBits;

void ExpectColumnsBitIdentical(const std::vector<double>& actual,
                               const std::vector<double>& expected,
                               const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_TRUE(SameBits(actual[i], expected[i])) << context << " row " << i;
  }
}

struct Pair {
  Table relevant;
  Table training;
};

// Small deterministic tables: int key, double value, two predicate columns.
Pair MakePair() {
  Pair out;
  Rng rng(7);
  const char* depts[] = {"a", "b", "c"};
  Column k(DataType::kInt64), v(DataType::kDouble), level(DataType::kInt64),
      dept(DataType::kString);
  for (int i = 0; i < 160; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(12)));
    if (rng.Bernoulli(0.2)) {
      v.AppendNull();
    } else {
      v.AppendDouble(rng.Normal(0, 5));
    }
    level.AppendInt(static_cast<int64_t>(rng.UniformInt(4)));
    dept.AppendString(depts[rng.UniformInt(3)]);
  }
  EXPECT_TRUE(out.relevant.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("v", std::move(v)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(out.relevant.AddColumn("dept", std::move(dept)).ok());
  Column dk(DataType::kInt64);
  for (int i = 0; i < 15; ++i) dk.AppendInt(i);
  EXPECT_TRUE(out.training.AddColumn("k", std::move(dk)).ok());
  return out;
}

AggQuery MakeQuery(AggFunction fn, std::vector<Predicate> preds) {
  AggQuery q;
  q.agg = fn;
  q.agg_attr = "v";
  q.group_keys = {"k"};
  q.predicates = std::move(preds);
  return q;
}

// --- DAG deduplication and topology -----------------------------------------

TEST(QueryPlannerTest, PlanDeduplicatesSharedArtifacts) {
  const Pair tables = MakePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", 1.0, 3.0);

  // 6 candidates: one group-key set, two distinct single predicates, one
  // conjunction (both), one value view, three distinct buckets with >1
  // member each => three materializations.
  std::vector<AggQuery> queries = {
      MakeQuery(AggFunction::kSum, {pa}),    MakeQuery(AggFunction::kAvg, {pa}),
      MakeQuery(AggFunction::kSum, {pb}),    MakeQuery(AggFunction::kMin, {pb}),
      MakeQuery(AggFunction::kSum, {pa, pb}), MakeQuery(AggFunction::kMax, {pa, pb}),
  };

  QueryPlanner planner;
  auto result = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const QueryPlanner::PlanStats& stats = planner.last_plan_stats();
  EXPECT_EQ(stats.candidates, 6u);
  EXPECT_EQ(stats.group_requests, 1u);        // one group-key set
  EXPECT_EQ(stats.train_map_requests, 1u);    // one training-row map
  EXPECT_EQ(stats.mask_requests, 2u);         // pa, pb — not one per candidate
  EXPECT_EQ(stats.conjunction_requests, 1u);  // pa&pb
  EXPECT_EQ(stats.view_requests, 1u);         // "v"
  EXPECT_EQ(stats.mat_requests, 3u);          // three shared buckets
  // Conjunctions build after their constituent masks, materializations
  // after group+mask+view: all three dependency stages must have run.
  EXPECT_EQ(stats.stages_run, 3u);
  EXPECT_EQ(stats.builds_run, 1u + 1u + 2u + 1u + 1u + 3u);

  // Store counters agree: exactly one build per unique artifact.
  EXPECT_EQ(planner.store().num_group_builds(), 1u);
  EXPECT_EQ(planner.store().num_mask_builds(), 2u);
  EXPECT_EQ(planner.store().num_conjunction_builds(), 1u);
  EXPECT_EQ(planner.store().num_view_builds(), 1u);
  EXPECT_EQ(planner.store().num_materializations(), 3u);
}

TEST(QueryPlannerTest, SecondIdenticalBatchBuildsNothing) {
  const Pair tables = MakePair();
  std::vector<AggQuery> queries = {
      MakeQuery(AggFunction::kSum, {Predicate::Equals("dept", Value::Str("a"))}),
      MakeQuery(AggFunction::kMedian, {Predicate::Equals("dept", Value::Str("a"))}),
  };
  QueryPlanner planner;
  auto first = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(first.ok());
  ASSERT_GT(planner.last_plan_stats().builds_run, 0u);

  auto second = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(second.ok());
  // Everything is cached: the plan requests artifacts but builds none, and
  // no prepare stage runs at all.
  EXPECT_EQ(planner.last_plan_stats().builds_run, 0u);
  EXPECT_EQ(planner.last_plan_stats().stages_run, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(second.value()[i], first.value()[i], "cached");
  }
}

TEST(QueryPlannerTest, SingletonStreamingCandidateSkipsMaterialization) {
  const Pair tables = MakePair();
  QueryPlanner planner;
  // One streaming aggregate alone in its bucket: streams through the value
  // view, no materialization.
  auto one = planner.ComputeFeatureColumn(MakeQuery(AggFunction::kSum, {}),
                                          tables.training, tables.relevant);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(planner.store().num_materializations(), 0u);
  // An order-statistic aggregate must materialize even alone.
  auto med = planner.ComputeFeatureColumn(MakeQuery(AggFunction::kMedian, {}),
                                          tables.training, tables.relevant);
  ASSERT_TRUE(med.ok());
  EXPECT_EQ(planner.store().num_materializations(), 1u);
}

// --- Publish-once under concurrent builds ------------------------------------

TEST(QueryPlannerTest, ParallelPrepareBuildsEachArtifactExactlyOnce) {
  const Pair tables = MakePair();
  // A wide pool in which every candidate wants the *same* group index,
  // view, and mask: parallel prepare must still build each exactly once
  // (the planner dedups requests; the store publishes once).
  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    queries.push_back(
        MakeQuery(fn, {Predicate::Equals("dept", Value::Str("b"))}));
  }
  ThreadPool pool(8);
  QueryPlanner planner;
  planner.set_thread_pool(&pool);
  auto result = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(planner.store().num_group_builds(), 1u);
  EXPECT_EQ(planner.store().num_mask_builds(), 1u);
  EXPECT_EQ(planner.store().num_view_builds(), 1u);
  EXPECT_EQ(planner.store().num_materializations(), 1u);
  EXPECT_EQ(planner.store().num_train_map_builds(), 1u);
}

// --- Determinism of parallel prepare across thread counts --------------------

TEST(QueryPlannerTest, ParallelPrepareIsByteIdenticalAcrossThreadCounts) {
  const Pair tables = MakePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", std::nullopt, 2.0);
  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    queries.push_back(MakeQuery(fn, {}));
    queries.push_back(MakeQuery(fn, {pa}));
    queries.push_back(MakeQuery(fn, {pa, pb}));
  }

  QueryPlanner serial;
  auto reference = serial.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok());

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    QueryPlanner planner;
    planner.set_thread_pool(&pool);
    auto result = planner.EvaluateMany(queries, tables.training, tables.relevant);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectColumnsBitIdentical(result.value()[i], reference.value()[i],
                                std::to_string(threads) + " threads, q" +
                                    std::to_string(i));
    }
  }
}

// --- Serving plans own their state -------------------------------------------

// A compiled plan borrows only the relevant table: the compiling planner
// (and its artifact store) and the query vector may die first. Execution
// must still match the fit path, EvaluateMany, bit for bit.
TEST(QueryPlannerTest, ServingPlanOutlivesPlannerAndQueries) {
  const Pair tables = MakePair();
  auto make_queries = [] {
    const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
    const Predicate pb = Predicate::Range("level", std::nullopt, 2.0);
    std::vector<AggQuery> queries;
    for (AggFunction fn : AllAggFunctions()) {
      queries.push_back(MakeQuery(fn, {}));
      queries.push_back(MakeQuery(fn, {pa, pb}));
    }
    AggQuery count_star = MakeQuery(AggFunction::kCount, {pb});
    count_star.agg_attr.clear();
    queries.push_back(count_star);
    return queries;
  };
  QueryPlanner oracle;
  auto expected =
      oracle.EvaluateMany(make_queries(), tables.training, tables.relevant);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (const size_t morsel_rows : {size_t{0}, size_t{7}}) {
    ThreadPool pool(2);
    ServingPlan plan;
    {
      const std::vector<AggQuery> queries = make_queries();
      QueryPlanner planner;
      planner.set_thread_pool(&pool);
      planner.set_morsel_rows(morsel_rows);
      auto compiled = planner.CompileServingPlan(queries, tables.relevant);
      ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
      plan = std::move(compiled).ValueOrDie();
    }
    for (ThreadPool* exec_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      auto actual = ExecuteServingPlan(plan, tables.training, exec_pool);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ASSERT_EQ(actual.value().size(), expected.value().size());
      for (size_t i = 0; i < actual.value().size(); ++i) {
        ExpectColumnsBitIdentical(
            actual.value()[i], expected.value()[i],
            "morsel_rows=" + std::to_string(morsel_rows) + " q" +
                std::to_string(i));
      }
    }
  }
}

// --- Eviction pinning across parallel prepare --------------------------------

TEST(QueryPlannerTest, EvictionPinningHoldsUnderParallelPrepare) {
  const Pair tables = MakePair();
  std::vector<AggQuery> queries;
  for (AggFunction fn : AllAggFunctions()) {
    queries.push_back(
        MakeQuery(fn, {Predicate::Equals("dept", Value::Str("a")),
                       Predicate::Range("level", 1.0, 3.0)}));
  }
  ThreadPool pool(8);
  QueryPlanner planner;
  planner.set_thread_pool(&pool);
  planner.set_mask_cache_cap_bytes(1);
  planner.set_mat_cache_cap_bytes(1);
  auto first = planner.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Every over-cap entry belongs to the in-flight batch: pinned, 0 evicted.
  EXPECT_EQ(planner.num_evictions(), 0u);

  QueryPlanner fresh;
  auto expected = fresh.EvaluateMany(queries, tables.training, tables.relevant);
  ASSERT_TRUE(expected.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectColumnsBitIdentical(first.value()[i], expected.value()[i],
                              "tiny-cap parallel batch");
  }

  // The next batch unpins the previous epoch's entries and evicts them.
  std::vector<AggQuery> second;
  for (AggFunction fn : AllAggFunctions()) {
    second.push_back(MakeQuery(fn, {Predicate::Range("level", 0.0, 1.0)}));
  }
  auto second_result =
      planner.EvaluateMany(second, tables.training, tables.relevant);
  ASSERT_TRUE(second_result.ok());
  EXPECT_GT(planner.num_evictions(), 0u);
}

// --- Re-planning overlapping pools -------------------------------------------

TEST(QueryPlannerTest, WarmRecompileIsByteIdenticalToColdAcrossThreadCounts) {
  const Pair tables = MakePair();
  const Predicate pa = Predicate::Equals("dept", Value::Str("a"));
  const Predicate pb = Predicate::Range("level", std::nullopt, 2.0);
  std::vector<AggQuery> first_pool;
  std::vector<AggQuery> second_pool;
  for (AggFunction fn : AllAggFunctions()) {
    first_pool.push_back(MakeQuery(fn, {pa}));
    second_pool.push_back(MakeQuery(fn, {pa}));         // full overlap
    second_pool.push_back(MakeQuery(fn, {pa, pb}));     // new conjunctions
  }

  // Cold reference: a fresh serial planner sees the second pool only.
  QueryPlanner cold;
  auto reference =
      cold.EvaluateMany(second_pool, tables.training, tables.relevant);
  ASSERT_TRUE(reference.ok());

  for (const int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    QueryPlanner warm;
    warm.set_thread_pool(&pool);
    auto warmup =
        warm.EvaluateMany(first_pool, tables.training, tables.relevant);
    ASSERT_TRUE(warmup.ok());
    // The warm re-plan reuses the store's artifacts for the overlap and is
    // byte-identical to the cold one.
    auto result =
        warm.EvaluateMany(second_pool, tables.training, tables.relevant);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t i = 0; i < second_pool.size(); ++i) {
      ExpectColumnsBitIdentical(result.value()[i], reference.value()[i],
                                std::to_string(threads) + " threads, q" +
                                    std::to_string(i));
    }
  }
}

TEST(QueryPlannerTest, InvalidCandidatesFailOnEveryCall) {
  const Pair tables = MakePair();
  AggQuery bad = MakeQuery(AggFunction::kSum, {});
  bad.agg_attr = "no_such_column";
  QueryPlanner planner;
  EXPECT_FALSE(
      planner.EvaluateMany({bad}, tables.training, tables.relevant).ok());
  // Validation runs (and fails) again on the second call.
  EXPECT_FALSE(
      planner.EvaluateMany({bad}, tables.training, tables.relevant).ok());
}

// --- Error propagation from staged builds ------------------------------------

TEST(QueryPlannerTest, StagedBuildErrorsAbortTheBatch) {
  const Pair tables = MakePair();
  // Training-row mapping fails in stage B: the group key exists in R but
  // not in D.
  AggQuery bad;
  bad.agg = AggFunction::kSum;
  bad.agg_attr = "v";
  bad.group_keys = {"level"};  // in R, not in training
  QueryPlanner planner;
  ThreadPool pool(4);
  planner.set_thread_pool(&pool);
  auto result = planner.EvaluateMany({bad}, tables.training, tables.relevant);
  EXPECT_FALSE(result.ok());

  // Mixed batch: one bad candidate fails the whole batch (all-or-nothing),
  // but the planner instance stays usable afterwards.
  auto mixed = planner.EvaluateMany({MakeQuery(AggFunction::kSum, {}), bad},
                                    tables.training, tables.relevant);
  EXPECT_FALSE(mixed.ok());
  auto good = planner.EvaluateMany({MakeQuery(AggFunction::kSum, {})},
                                   tables.training, tables.relevant);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST(RetryPolicyTest, BackoffIsBoundedAndSeedDeterministic) {
  QueryPlanner::RetryPolicy policy;
  policy.backoff_ms = 10;
  policy.max_backoff_ms = 80;
  policy.jitter_seed = 42;
  const uint64_t token = 0x1234abcdull;

  // Deterministic: the same (policy, attempt, token) always yields the same
  // delay, so a retried run replays the same backoff trajectory.
  for (int attempt = 0; attempt < 12; ++attempt) {
    const int a = QueryPlanner::RetryDelayMs(policy, attempt, token);
    const int b = QueryPlanner::RetryDelayMs(policy, attempt, token);
    EXPECT_EQ(a, b) << "attempt " << attempt;

    // Bounded: jittered into [base/2, base] with base = min(10 << attempt, 80)
    // — the cap stops the exponential, the jitter floor keeps real waiting.
    const int base = std::min(80, attempt < 20 ? 10 << attempt : 80);
    EXPECT_GE(a, base / 2) << "attempt " << attempt;
    EXPECT_LE(a, base) << "attempt " << attempt;
  }
  // Late attempts never exceed the cap, no matter how large attempt grows.
  EXPECT_LE(QueryPlanner::RetryDelayMs(policy, 1000, token), 80);

  // Different seeds (and different tokens) de-synchronize concurrent
  // retriers: at least one attempt in a short window must differ.
  QueryPlanner::RetryPolicy other = policy;
  other.jitter_seed = 43;
  bool seed_differs = false;
  bool token_differs = false;
  for (int attempt = 0; attempt < 8; ++attempt) {
    seed_differs |= QueryPlanner::RetryDelayMs(other, attempt, token) !=
                    QueryPlanner::RetryDelayMs(policy, attempt, token);
    token_differs |= QueryPlanner::RetryDelayMs(policy, attempt, token + 1) !=
                     QueryPlanner::RetryDelayMs(policy, attempt, token);
  }
  EXPECT_TRUE(seed_differs);
  EXPECT_TRUE(token_differs);

  // backoff_ms == 0 disables sleeping entirely (the test-suite default).
  QueryPlanner::RetryPolicy none;
  none.backoff_ms = 0;
  EXPECT_EQ(QueryPlanner::RetryDelayMs(none, 0, token), 0);
  EXPECT_EQ(QueryPlanner::RetryDelayMs(none, 5, token), 0);
}

}  // namespace
}  // namespace featlib
