#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/zipf.hpp"

namespace pimds {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = a.next();
    EXPECT_EQ(x, b.next());
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 1000u) << "1000 outputs should all be distinct";
}

TEST(SplitMix64, KnownVector) {
  // Reference value from the public-domain splitmix64.c with seed 0.
  SplitMix64 g(0);
  EXPECT_EQ(g.next(), 0xE220A8397B1DCDAFULL);
}

TEST(Xoshiro256, DeterministicPerSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  Xoshiro256 c(8);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds must give different streams";
}

TEST(Xoshiro256, NextBelowIsInRange) {
  Xoshiro256 g(123);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(g.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro256, NextBelowOneIsAlwaysZero) {
  Xoshiro256 g(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(g.next_below(1), 0u);
}

TEST(Xoshiro256, NextInCoversInclusiveRange) {
  Xoshiro256 g(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t x = g.next_in(5, 8);
    ASSERT_GE(x, 5u);
    ASSERT_LE(x, 8u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 4u) << "all 4 values should appear in 2000 draws";
}

TEST(Xoshiro256, NextBelowIsRoughlyUniform) {
  Xoshiro256 g(2024);
  constexpr std::uint64_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[g.next_below(kBuckets)];
  for (int c : counts) {
    // Expected 10000 per bucket; 4-sigma ~ 380.
    EXPECT_NEAR(c, kDraws / kBuckets, 500);
  }
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 g(77);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = g.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Xoshiro256, NextBoolMatchesProbability) {
  Xoshiro256 g(31);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) trues += g.next_bool(0.25);
  EXPECT_NEAR(trues, 2500, 200);
}

TEST(Zipf, RanksWithinBounds) {
  Xoshiro256 g(1);
  ZipfGenerator zipf(100, 0.99);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.next(g), 100u);
  }
}

TEST(Zipf, SkewPutsMassOnHeadRanks) {
  Xoshiro256 g(2);
  ZipfGenerator zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.next(g)];
  // With theta = 0.99 the top rank draws far more than mid ranks.
  EXPECT_GT(counts[0], counts[500] * 20);
  // And the head outweighs its immediate successor.
  EXPECT_GT(counts[0], counts[1]);
}

TEST(Zipf, EmpiricalFrequenciesAreMonotoneNonIncreasing) {
  // Rank r must never be (statistically) hotter than rank r-1. Bucket
  // adjacent ranks in powers of two so the comparison is between large
  // counts, immune to per-rank noise.
  Xoshiro256 g(11);
  ZipfGenerator zipf(1 << 10, 0.99);
  std::vector<std::uint64_t> counts(1 << 10, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.next(g)];
  std::uint64_t prev_bucket = ~std::uint64_t{0};
  for (std::size_t lo = 1; lo < counts.size(); lo *= 2) {
    std::uint64_t bucket = 0;
    for (std::size_t r = lo; r < 2 * lo && r < counts.size(); ++r) {
      bucket += counts[r];
    }
    // Mean per-rank mass of [lo, 2lo) <= mean of the previous dyadic block.
    EXPECT_LE(bucket / lo, prev_bucket) << "block starting at rank " << lo;
    prev_bucket = std::max<std::uint64_t>(1, bucket / lo);
  }
  // And the head ranks themselves are ordered (large-count comparison).
  EXPECT_GE(counts[0], counts[1]);
  EXPECT_GE(counts[1], counts[3]);
}

TEST(Zipf, HeadMassMatchesTheoryForTheta099) {
  // P(rank < k) = H_k(theta) / H_n(theta). Check the top-16 head mass of a
  // 64K keyspace against the exact harmonic sums within sampling noise.
  constexpr std::uint64_t kN = 1 << 16;
  constexpr double kTheta = 0.99;
  constexpr int kDraws = 200000;
  constexpr std::uint64_t kHead = 16;
  double h_head = 0.0, h_all = 0.0;
  for (std::uint64_t r = 1; r <= kN; ++r) {
    const double term = 1.0 / std::pow(static_cast<double>(r), kTheta);
    h_all += term;
    if (r <= kHead) h_head += term;
  }
  const double expected = h_head / h_all;
  Xoshiro256 g(12);
  ZipfGenerator zipf(kN, kTheta);
  int head_hits = 0;
  for (int i = 0; i < kDraws; ++i) head_hits += zipf.next(g) < kHead;
  const double observed = static_cast<double>(head_hits) / kDraws;
  // ~3% absolute tolerance: > 5 sigma for a Bernoulli(~0.37) at 200K draws.
  EXPECT_NEAR(observed, expected, 0.03);
  EXPECT_GT(observed, 0.2) << "theta=0.99 must concentrate mass on the head";
}

/// Share of `draws` draws that land on ranks 0, 1 and 2.
std::array<double, 3> head_shares(double theta, int draws) {
  ZipfGenerator zipf(1 << 14, theta);
  Xoshiro256 g(13);
  std::array<int, 3> hits{};
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t r = zipf.next(g);
    if (r < 3) ++hits[r];
  }
  return {static_cast<double>(hits[0]) / draws,
          static_cast<double>(hits[1]) / draws,
          static_cast<double>(hits[2]) / draws};
}

/// Exact P(rank = r) for Zipf(theta) over 2^14 ranks.
double exact_pmf(double theta, std::uint64_t r) {
  double zeta = 0.0;
  for (std::uint64_t i = 1; i <= (1 << 14); ++i) {
    zeta += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return 1.0 / std::pow(static_cast<double>(r + 1), theta) / zeta;
}

TEST(Zipf, AboveOneTheHeadIsExactAndRankTwoIsOverdrawn) {
  // The closed form holds ranks 0 and 1 exact for any theta; past the pole
  // at 1 its tail is approximate. At theta = 2 rank 2 draws 0.080 against
  // the exact 0.068 (the single-dominant-key workload of
  // ActiveRebalanceMutation runs there); theta = 1.5 has the same shape.
  // 400K draws: one sigma is under 0.0005 on every share below.
  constexpr int kDraws = 400000;
  const std::array<double, 3> two = head_shares(2.0, kDraws);
  EXPECT_NEAR(exact_pmf(2.0, 0), 0.608, 0.001);
  EXPECT_NEAR(two[0], exact_pmf(2.0, 0), 0.004);
  EXPECT_NEAR(two[1], exact_pmf(2.0, 1), 0.004);
  EXPECT_NEAR(exact_pmf(2.0, 2), 0.068, 0.001);
  EXPECT_NEAR(two[2], 0.080, 0.004);
  const std::array<double, 3> one_five = head_shares(1.5, kDraws);
  EXPECT_NEAR(one_five[0], exact_pmf(1.5, 0), 0.004);
  EXPECT_NEAR(one_five[1], exact_pmf(1.5, 1), 0.004);
  EXPECT_GT(one_five[2], exact_pmf(1.5, 2) + 0.004);
}

TEST(Zipf, RejectsParametersOutsideItsDomain) {
  // Checked in every build, not by an assert that NDEBUG removes.
  EXPECT_THROW(ZipfGenerator(0, 0.5), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(100, -0.1), std::invalid_argument);
  EXPECT_THROW(ZipfGenerator(100, 1.0), std::invalid_argument)
      << "theta = 1 is the closed form's pole (alpha = 1 / (1 - theta))";
  EXPECT_NO_THROW(ZipfGenerator(1, 0.0));
  EXPECT_NO_THROW(ZipfGenerator(100, 2.0));
}

TEST(Zipf, DeterministicUnderFixedSeed) {
  ZipfGenerator zipf(1 << 12, 0.99);
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(zipf.next(a), zipf.next(b)) << "draw " << i;
  }
  // Two generator instances with identical parameters draw identically.
  ZipfGenerator other(1 << 12, 0.99);
  Xoshiro256 c(99);
  Xoshiro256 d(99);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(zipf.next(c), other.next(d));
}

TEST(Zipf, LowThetaIsNearlyUniform) {
  Xoshiro256 g(3);
  ZipfGenerator zipf(10, 0.01);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.next(g)];
  const auto [min_it, max_it] = std::minmax_element(counts.begin(),
                                                    counts.end());
  EXPECT_LT(*max_it, *min_it * 2) << "theta~0 should be near-uniform";
}

}  // namespace
}  // namespace pimds
