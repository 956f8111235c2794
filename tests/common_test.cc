#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/timer.h"

namespace featlib {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotImplemented), "NotImplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  FEAT_ASSIGN_OR_RETURN(int h, Half(v));
  FEAT_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeUnbiased) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 400);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, PoissonMeanMatchesLambda) {
  Rng rng(17);
  for (double lambda : {0.5, 3.0, 20.0, 100.0}) {
    double sum = 0.0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.1) << "lambda=" << lambda;
  }
}

TEST(RngTest, PoissonZeroLambda) {
  Rng rng(1);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(23);
  auto sample = rng.SampleIndices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t v : sample) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleIndicesKExceedsN) {
  Rng rng(23);
  auto sample = rng.SampleIndices(5, 50);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(StrUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(StrUtilTest, JoinAndSplit) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  const auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtilTest, TrimAndLower) {
  EXPECT_EQ(StrTrim("  hi \t\n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrLower("AbC"), "abc");
}

TEST(StrUtilTest, ParseDouble) {
  double d = 0.0;
  EXPECT_TRUE(ParseDouble("3.5", &d));
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_FALSE(ParseDouble("3.5x", &d));
  EXPECT_FALSE(ParseDouble("", &d));
  EXPECT_FALSE(ParseDouble("nan", &d));
}

TEST(StrUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("4.2", &v));
  EXPECT_FALSE(ParseInt64("x", &v));
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_GE(t.Millis(), t.Seconds() * 1000.0 - 1e-9);
}

}  // namespace
}  // namespace featlib
