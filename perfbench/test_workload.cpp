// Tests of the benchmark's own workload generators and percentile helper.
// Run with `python3 perfbench/run.py --self-test`.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "workload.hpp"

namespace pimbench {
namespace {

constexpr Workload kClientWorkloads[] = {
    Workload::kQueueMixed, Workload::kSkiplistRead,
    Workload::kSkiplistSkewWrite};

std::vector<Op> take(Workload w, std::uint64_t seed, std::size_t client,
                     std::size_t n) {
  OpStream s(w, seed, client);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < n; ++i) ops.push_back(s.next());
  return ops;
}

TEST(OpStream, SameSeedGivesSameOpSequence) {
  for (Workload w : kClientWorkloads) {
    for (std::size_t client = 0; client < 2; ++client) {
      EXPECT_EQ(take(w, 7, client, 20000), take(w, 7, client, 20000))
          << workload_name(w);
    }
  }
}

TEST(OpStream, SeedAndClientChangeTheSequence) {
  for (Workload w : {Workload::kSkiplistRead, Workload::kSkiplistSkewWrite}) {
    EXPECT_NE(take(w, 7, 0, 1000), take(w, 8, 0, 1000)) << workload_name(w);
    EXPECT_NE(take(w, 7, 0, 1000), take(w, 7, 1, 1000)) << workload_name(w);
  }
}

TEST(OpStream, QueueValuesAreUniqueTagsThatAlternate) {
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t client = 0; client < 2; ++client) {
    const std::vector<Op> ops = take(Workload::kQueueMixed, 3, client, 4000);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i % 2 == 0) {
        ASSERT_EQ(ops[i].kind, OpKind::kEnqueue);
        EXPECT_EQ(ops[i].key >> kTagShift, client + 1);
        EXPECT_TRUE(seen.insert(ops[i].key).second);
      } else {
        ASSERT_EQ(ops[i].kind, OpKind::kDequeue);
      }
    }
  }
}

TEST(OpStream, MixesMatchTheWorkloadDefinitions) {
  constexpr std::size_t kN = 200000;
  const auto shares = [](const std::vector<Op>& ops) {
    std::array<double, kOpKinds> s{};
    for (const Op& op : ops) s[static_cast<std::size_t>(op.kind)] += 1.0;
    for (double& x : s) x /= static_cast<double>(ops.size());
    return s;
  };
  const auto read = shares(take(Workload::kSkiplistRead, 1, 0, kN));
  EXPECT_NEAR(read[static_cast<std::size_t>(OpKind::kContains)], 0.90, 0.01);
  EXPECT_NEAR(read[static_cast<std::size_t>(OpKind::kAdd)], 0.05, 0.01);
  const auto write = shares(take(Workload::kSkiplistSkewWrite, 1, 0, kN));
  EXPECT_NEAR(write[static_cast<std::size_t>(OpKind::kAdd)], 0.25, 0.01);
  EXPECT_NEAR(write[static_cast<std::size_t>(OpKind::kRemove)], 0.25, 0.01);
}

TEST(Prefill, DistinctInRangeAndSeeded) {
  const std::vector<std::uint64_t> a = skiplist_prefill(5);
  EXPECT_EQ(a, skiplist_prefill(5));
  EXPECT_NE(a, skiplist_prefill(6));
  ASSERT_EQ(a.size(), kSkipPrefill);
  EXPECT_EQ(std::unordered_set<std::uint64_t>(a.begin(), a.end()).size(),
            kSkipPrefill);
  for (std::uint64_t k : a) {
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, kSkipKeyMax);
  }
}

double hot_share(Workload w, std::uint64_t seed) {
  const std::vector<Op> ops = take(w, seed, 0, 200000);
  const auto hot = std::count_if(ops.begin(), ops.end(), [](const Op& op) {
    return op.key <= kHotPartitionMax;
  });
  return static_cast<double>(hot) / static_cast<double>(ops.size());
}

// Zipf(0.99) over 2^17 keys puts about 94% of draws in the lower half,
// which vault 0 owns; the stated floor is 0.9.
TEST(Zipf, SkewWorkloadLoadsTheHotPartition) {
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_GT(hot_share(Workload::kSkiplistSkewWrite, seed), 0.90);
  }
}

TEST(Zipf, UniformWorkloadSplitsEvenly) {
  for (std::uint64_t seed : {1, 2, 3}) {
    EXPECT_NEAR(hot_share(Workload::kSkiplistRead, seed), 0.5, 0.01);
  }
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // the helper must not need sorted input
  return v;
}

std::size_t beyond(const std::vector<double>& v, double value) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > value; }));
}

TEST(TailPercentile, ReportsTheRequestedPercentileWhenSamplesSuffice) {
  std::vector<double> v = one_to(1000);
  const Percentile p = tail_percentile(v, 0.99);
  ASSERT_TRUE(p.valid);
  EXPECT_DOUBLE_EQ(p.q, 0.99);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
  EXPECT_EQ(beyond(v, p.value), 10u);
  EXPECT_EQ(p.samples, 1000u);

  std::vector<double> w = one_to(1000);
  EXPECT_DOUBLE_EQ(tail_percentile(w, 0.50).value, 500.0);
}

TEST(TailPercentile, LowersToTheHighestPercentileWithTenSamplesBeyond) {
  for (std::size_t n : {11u, 50u, 500u, 999u}) {
    std::vector<double> v = one_to(n);
    const Percentile p = tail_percentile(v, 0.99);
    ASSERT_TRUE(p.valid) << n;
    EXPECT_LT(p.q, 0.99) << n;
    EXPECT_EQ(beyond(v, p.value), 10u) << n;
    EXPECT_DOUBLE_EQ(p.value, static_cast<double>(n - 10)) << n;
    EXPECT_DOUBLE_EQ(p.q, static_cast<double>(n - 10) / n) << n;
  }
}

TEST(TailPercentile, TooFewSamplesIsInvalid) {
  for (std::size_t n : {0u, 1u, 10u}) {
    std::vector<double> v = one_to(n);
    EXPECT_FALSE(tail_percentile(v, 0.99).valid) << n;
  }
}

}  // namespace
}  // namespace pimbench
