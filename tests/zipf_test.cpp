#include "common/zipf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace webcache {
namespace {

TEST(ZipfSampler, PmfIsNormalizedAndMonotone) {
  const ZipfSampler z(100, 0.8);
  double total = 0.0;
  for (std::size_t i = 0; i < 100; ++i) {
    total += z.probability(i);
    if (i > 0) {
      EXPECT_LE(z.probability(i), z.probability(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfSampler, PmfMatchesClosedForm) {
  const std::size_t n = 50;
  const double alpha = 0.7;
  const ZipfSampler z(n, alpha);
  double norm = 0.0;
  for (std::size_t i = 1; i <= n; ++i) norm += 1.0 / std::pow(static_cast<double>(i), alpha);
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = 1.0 / std::pow(static_cast<double>(i + 1), alpha) / norm;
    EXPECT_NEAR(z.probability(i), expected, 1e-12);
  }
}

TEST(ZipfSampler, AlphaZeroIsUniform) {
  const ZipfSampler z(10, 0.0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(z.probability(i), 0.1, 1e-12);
}

TEST(ZipfSampler, SampleFrequenciesMatchPmf) {
  const std::size_t n = 20;
  const ZipfSampler z(n, 1.0);
  Rng rng(99);
  constexpr int kDraws = 200'000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[z.sample(rng)];

  // Chi-square-ish check: each bucket within 5 sigma of expectation.
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = z.probability(i) * kDraws;
    const double sigma = std::sqrt(expected * (1.0 - z.probability(i)));
    EXPECT_NEAR(counts[i], expected, 5.0 * sigma + 1.0) << "rank " << i;
  }
}

TEST(ZipfSampler, SingleElement) {
  const ZipfSampler z(1, 0.7);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(z.sample(rng), 0u);
}

TEST(ZipfSampler, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 0.7), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -0.1), std::invalid_argument);
}

TEST(ZipfRejection, MatchesAliasSamplerDistribution) {
  const std::size_t n = 100;
  const double alpha = 0.7;
  const ZipfSampler reference(n, alpha);
  const ZipfRejection z(n, alpha);
  Rng rng(123);
  constexpr int kDraws = 200'000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < kDraws; ++i) {
    const auto k = z.sample(rng);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, n);
    ++counts[k - 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double expected = reference.probability(i) * kDraws;
    const double sigma = std::sqrt(expected + 1.0);
    EXPECT_NEAR(counts[i], expected, 5.0 * sigma + 2.0) << "rank " << i;
  }
}

TEST(ZipfRejection, HandlesAlphaNearOne) {
  // The h-integral degenerates to log at alpha = 1; check stability nearby.
  for (const double alpha : {0.999999, 1.0, 1.000001}) {
    const ZipfRejection z(1000, alpha);
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
      const auto k = z.sample(rng);
      ASSERT_GE(k, 1u);
      ASSERT_LE(k, 1000u);
    }
  }
}

TEST(ZipfRejection, LargeUniverseWithoutTables) {
  const ZipfRejection z(1'000'000'000ULL, 0.8);
  Rng rng(5);
  std::uint64_t below_hundred = 0;
  constexpr int kDraws = 50'000;
  for (int i = 0; i < kDraws; ++i) {
    if (z.sample(rng) <= 100) ++below_hundred;
  }
  // With alpha = 0.8 over 1e9 elements the top-100 mass is small but
  // decidedly non-zero; sanity-check both directions.
  EXPECT_GT(below_hundred, 0u);
  EXPECT_LT(below_hundred, static_cast<std::uint64_t>(kDraws) / 2);
}

}  // namespace
}  // namespace webcache
