/// \file serving_concurrency_test.cc
/// \brief Pins the FittedAugmenter serving contract: N threads sharing one
/// handle produce byte-identical output to serial execution at 1/2/4/8
/// threads, across Transform / TransformMany / ComputeFeatureColumns and
/// across batches with different rows. Runs under TSan in scripts/ci.sh —
/// the handle's plan is frozen after Create and every per-call artifact
/// (training-row maps, outputs) is call-local, so no locks are needed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/augmenter.h"
#include "golden_util.h"

namespace featlib {
namespace {

using golden::SameBits;

struct Fixture {
  Table relevant;
  Table batch_a;
  Table batch_b;
  std::vector<AggQuery> queries;
};

// Deterministic one-to-many pair with two join-key columns, nulls, strings
// and a numeric predicate attribute — plus a query set that exercises every
// kernel family: streaming, conjunction masks, COUNT(*), and shared-bucket
// materializations.
Fixture MakeFixture() {
  Fixture f;
  Rng rng(29);
  const char* depts[] = {"x", "y", "z"};
  Column k(DataType::kInt64), k2(DataType::kString), v(DataType::kDouble),
      level(DataType::kInt64), dept(DataType::kString);
  for (int i = 0; i < 400; ++i) {
    k.AppendInt(static_cast<int64_t>(rng.UniformInt(20)));
    k2.AppendString(depts[rng.UniformInt(3)]);
    if (rng.Bernoulli(0.15)) {
      v.AppendNull();
    } else {
      v.AppendDouble(rng.Normal(0, 10));
    }
    level.AppendInt(static_cast<int64_t>(rng.UniformInt(5)));
    dept.AppendString(depts[rng.UniformInt(3)]);
  }
  EXPECT_TRUE(f.relevant.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(f.relevant.AddColumn("k2", std::move(k2)).ok());
  EXPECT_TRUE(f.relevant.AddColumn("v", std::move(v)).ok());
  EXPECT_TRUE(f.relevant.AddColumn("level", std::move(level)).ok());
  EXPECT_TRUE(f.relevant.AddColumn("dept", std::move(dept)).ok());

  auto make_batch = [&](size_t n, uint64_t seed) {
    Rng batch_rng(seed);
    Table batch;
    Column bk(DataType::kInt64), bk2(DataType::kString),
        age(DataType::kDouble);
    for (size_t i = 0; i < n; ++i) {
      bk.AppendInt(static_cast<int64_t>(batch_rng.UniformInt(24)));
      bk2.AppendString(depts[batch_rng.UniformInt(3)]);
      age.AppendDouble(20.0 + static_cast<double>(batch_rng.UniformInt(40)));
    }
    EXPECT_TRUE(batch.AddColumn("k", std::move(bk)).ok());
    EXPECT_TRUE(batch.AddColumn("k2", std::move(bk2)).ok());
    EXPECT_TRUE(batch.AddColumn("age", std::move(age)).ok());
    return batch;
  };
  f.batch_a = make_batch(60, 5);
  f.batch_b = make_batch(35, 11);

  auto query = [&](AggFunction fn, std::vector<std::string> keys,
                   std::string attr, std::vector<Predicate> preds) {
    AggQuery q;
    q.agg = fn;
    q.agg_attr = std::move(attr);
    q.group_keys = std::move(keys);
    q.predicates = std::move(preds);
    return q;
  };
  const Predicate dept_x = Predicate::Equals("dept", Value::Str("x"));
  const Predicate lvl = Predicate::Range("level", 1.0, 3.0);
  // Streaming singleton buckets.
  f.queries.push_back(query(AggFunction::kAvg, {"k"}, "v", {}));
  f.queries.push_back(query(AggFunction::kSum, {"k"}, "v", {dept_x}));
  // Conjunction mask.
  f.queries.push_back(query(AggFunction::kMax, {"k"}, "v", {dept_x, lvl}));
  // COUNT(*) — no agg attribute, no value view.
  f.queries.push_back(query(AggFunction::kCount, {"k"}, "", {lvl}));
  // Shared bucket: same (keys, preds, attr), different agg -> one
  // materialization serves both.
  f.queries.push_back(query(AggFunction::kMedian, {"k"}, "v", {dept_x}));
  f.queries.push_back(query(AggFunction::kMode, {"k"}, "v", {dept_x}));
  // Second group-key set (two train maps per call).
  f.queries.push_back(query(AggFunction::kCountDistinct, {"k", "k2"}, "v", {}));
  return f;
}

std::unique_ptr<FittedAugmenter> MakeHandle(const Fixture& f) {
  FittedAugmenter::Source source;
  source.relevant = f.relevant;
  source.queries = f.queries;
  std::vector<FittedAugmenter::Source> sources;
  sources.push_back(std::move(source));
  auto created = FittedAugmenter::Create(std::move(sources));
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created).ValueOrDie();
}

using Columns = std::vector<std::vector<double>>;

void ExpectColumnsIdentical(const Columns& actual, const Columns& expected,
                            const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t c = 0; c < actual.size(); ++c) {
    ASSERT_EQ(actual[c].size(), expected[c].size()) << context << " col " << c;
    for (size_t r = 0; r < actual[c].size(); ++r) {
      ASSERT_TRUE(SameBits(actual[c][r], expected[c][r]))
          << context << " col " << c << " row " << r;
    }
  }
}

// Extracts the appended feature columns of a transformed table (everything
// past the batch's own columns) as doubles (null -> NaN).
Columns AppendedColumns(const Table& transformed, size_t batch_columns) {
  Columns out;
  for (size_t c = batch_columns; c < transformed.num_columns(); ++c) {
    const Column& col = transformed.ColumnAt(c);
    std::vector<double> values(col.size());
    for (size_t r = 0; r < col.size(); ++r) values[r] = col.AsDouble(r);
    out.push_back(std::move(values));
  }
  return out;
}

TEST(ServingConcurrencyTest, ConcurrentTransformIsByteIdenticalToSerial) {
  const Fixture f = MakeFixture();
  std::unique_ptr<FittedAugmenter> handle = MakeHandle(f);
  ASSERT_EQ(handle->num_features(), f.queries.size());

  // Serial reference, computed once up front.
  auto ref_a = handle->ComputeFeatureColumns(f.batch_a);
  auto ref_b = handle->ComputeFeatureColumns(f.batch_b);
  ASSERT_TRUE(ref_a.ok()) << ref_a.status().ToString();
  ASSERT_TRUE(ref_b.ok()) << ref_b.status().ToString();

  for (int n_threads : {1, 2, 4, 8}) {
    std::vector<std::vector<Columns>> results_a(n_threads);
    std::vector<std::vector<Columns>> results_b(n_threads);
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (int t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t]() {
        constexpr int kIterations = 3;
        for (int it = 0; it < kIterations; ++it) {
          auto a = handle->ComputeFeatureColumns(f.batch_a);
          auto b = handle->Transform(f.batch_b);
          if (a.ok()) results_a[t].push_back(std::move(a).ValueOrDie());
          if (b.ok()) {
            results_b[t].push_back(
                AppendedColumns(b.value(), f.batch_b.num_columns()));
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (int t = 0; t < n_threads; ++t) {
      ASSERT_EQ(results_a[t].size(), 3u) << "thread " << t << " had failures";
      ASSERT_EQ(results_b[t].size(), 3u) << "thread " << t << " had failures";
      for (const Columns& got : results_a[t]) {
        ExpectColumnsIdentical(got, ref_a.value(),
                               "batch A @" + std::to_string(n_threads));
      }
      for (const Columns& got : results_b[t]) {
        ExpectColumnsIdentical(got, ref_b.value(),
                               "batch B @" + std::to_string(n_threads));
      }
    }
  }
}

TEST(ServingConcurrencyTest, ConcurrentTransformManyMatchesPerBatch) {
  const Fixture f = MakeFixture();
  std::unique_ptr<FittedAugmenter> handle = MakeHandle(f);

  auto ref_a = handle->Transform(f.batch_a);
  auto ref_b = handle->Transform(f.batch_b);
  ASSERT_TRUE(ref_a.ok());
  ASSERT_TRUE(ref_b.ok());
  const Columns ref_cols_a = AppendedColumns(ref_a.value(), f.batch_a.num_columns());
  const Columns ref_cols_b = AppendedColumns(ref_b.value(), f.batch_b.num_columns());

  const std::vector<Table> batches = {f.batch_a, f.batch_b, f.batch_a};
  for (int n_threads : {2, 4}) {
    std::vector<std::vector<std::vector<Table>>> results(n_threads);
    std::vector<std::thread> threads;
    for (int t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t]() {
        for (int it = 0; it < 2; ++it) {
          auto many = handle->TransformMany(batches);
          if (many.ok()) results[t].push_back(std::move(many).ValueOrDie());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (int t = 0; t < n_threads; ++t) {
      ASSERT_EQ(results[t].size(), 2u) << "thread " << t << " had failures";
      for (const std::vector<Table>& many : results[t]) {
        ASSERT_EQ(many.size(), 3u);
        ExpectColumnsIdentical(
            AppendedColumns(many[0], f.batch_a.num_columns()), ref_cols_a,
            "many[0]");
        ExpectColumnsIdentical(
            AppendedColumns(many[1], f.batch_b.num_columns()), ref_cols_b,
            "many[1]");
        ExpectColumnsIdentical(
            AppendedColumns(many[2], f.batch_a.num_columns()), ref_cols_a,
            "many[2]");
      }
    }
  }
}

TEST(ServingConcurrencyTest, TransformRejectsBatchMissingJoinKeys) {
  const Fixture f = MakeFixture();
  std::unique_ptr<FittedAugmenter> handle = MakeHandle(f);
  Table bad;
  Column c(DataType::kInt64);
  c.AppendInt(1);
  ASSERT_TRUE(bad.AddColumn("unrelated", std::move(c)).ok());
  EXPECT_FALSE(handle->Transform(bad).ok());
}

}  // namespace
}  // namespace featlib
