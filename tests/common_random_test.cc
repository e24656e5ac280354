// Tests for the deterministic RNG and its distributions.

#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace ltc {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveAndCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all 6 values hit
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, UniformIntIsUnbiased) {
  Rng rng(13);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<std::size_t>(rng.UniformInt(0, kBuckets - 1))];
  }
  // Each bucket should be within 5 sigma of the expectation.
  const double expected = kSamples / static_cast<double>(kBuckets);
  const double sigma = std::sqrt(expected * (1.0 - 1.0 / kBuckets));
  for (int c : counts) {
    EXPECT_NEAR(c, expected, 5 * sigma);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  constexpr int kSamples = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kSamples;
  const double var = sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  constexpr int kSamples = 200000;
  double sum = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.Exponential(2.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kSamples), 0.3, 0.01);
}

TEST(RngTest, ZipfSkewsTowardHead) {
  Rng rng(29);
  constexpr int kSamples = 100000;
  std::vector<int> counts(100, 0);
  for (int i = 0; i < kSamples; ++i) {
    const std::int64_t v = rng.Zipf(100, 1.2);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 100);
    ++counts[static_cast<std::size_t>(v)];
  }
  // Rank 0 must dominate rank 10 which must dominate rank 90.
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
}

TEST(RngTest, ZipfZeroExponentIsUniformish) {
  Rng rng(31);
  constexpr int kSamples = 100000;
  std::vector<int> counts(10, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<std::size_t>(rng.Zipf(10, 0.0))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 10.0, 500.0);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace ltc
