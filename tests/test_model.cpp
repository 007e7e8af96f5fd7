// Tests for the closed-form Section 3/4/5 performance model: internal
// consistency, and every analytic claim the paper states in prose.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/vault_index.hpp"
#include "model/linked_list_model.hpp"
#include "model/queue_model.hpp"
#include "model/skiplist_model.hpp"
#include "runtime/vault.hpp"

namespace pimds::model {
namespace {

const LatencyParams kPaper = LatencyParams::paper_defaults();

TEST(Sp, MatchesDirectFormulaForSmallN) {
  // n = 2: S_p = (1/3)^p + (2/3)^p.
  EXPECT_NEAR(s_p(2, 1), 1.0 / 3 + 2.0 / 3, 1e-12);
  EXPECT_NEAR(s_p(2, 2), 1.0 / 9 + 4.0 / 9, 1e-12);
}

TEST(Sp, SOneIsHalfN) {
  // S_1 = sum i/(n+1) = n/2.
  EXPECT_NEAR(s_p(100, 1), 50.0, 1e-9);
  EXPECT_NEAR(s_p(999, 1), 499.5, 1e-9);
}

TEST(Sp, DecreasesInPAndStaysInBounds) {
  const std::size_t n = 500;
  double prev = s_p(n, 1);
  EXPECT_LE(prev, n / 2.0 + 1e-9);
  for (std::size_t p = 2; p <= 64; p *= 2) {
    const double curr = s_p(n, p);
    EXPECT_LT(curr, prev) << "S_p must decrease in p";
    EXPECT_GT(curr, 0.0);
    prev = curr;
  }
}

TEST(Table1, FineGrainedScalesLinearlyInThreads) {
  const double t1 = fine_grained_lock_list(kPaper, 1000, 1);
  const double t8 = fine_grained_lock_list(kPaper, 1000, 8);
  EXPECT_NEAR(t8 / t1, 8.0, 1e-9);
}

TEST(Table1, PimIsR1TimesFcWithAndWithoutCombining) {
  // Section 4.1: "the PIM-managed linked-list is expected to be r1 times
  // better than the flat-combining linked-list, with or without the
  // combining optimization applied to both."
  EXPECT_NEAR(pim_list_no_combining(kPaper, 777) /
                  fc_list_no_combining(kPaper, 777),
              kPaper.r1, 1e-9);
  EXPECT_NEAR(pim_list_combining(kPaper, 777, 16) /
                  fc_list_combining(kPaper, 777, 16),
              kPaper.r1, 1e-9);
}

TEST(Table1, NaivePimLosesToFineGrainedAtR1Threads) {
  // Section 1: a sequential PIM list is slower than a concurrent list
  // accessed by only three CPU cores (r1 = 3).
  EXPECT_EQ(threads_to_beat_naive_pim(kPaper), 3u);
  EXPECT_GT(fine_grained_lock_list(kPaper, 1000, 3),
            pim_list_no_combining(kPaper, 1000) - 1e-9);
  EXPECT_LT(fine_grained_lock_list(kPaper, 1000, 2),
            pim_list_no_combining(kPaper, 1000));
}

TEST(Table1, CombiningPimBeatsFineGrainedWheneverR1AtLeastTwo) {
  // Section 4.1: since 0 < S_p <= n/2, r1 >= 2 suffices.
  for (std::size_t p : {1u, 2u, 4u, 8u, 16u, 28u}) {
    LatencyParams lp = kPaper;
    lp.r1 = 2.0;
    EXPECT_TRUE(pim_combining_beats_fine_grained(lp, 1000, p)) << p;
    EXPECT_GE(pim_list_combining(lp, 1000, p),
              fine_grained_lock_list(lp, 1000, p) - 1e-6);
  }
}

TEST(Table1, AtPaperDefaultsCombiningPimIsAtLeast1_5xFineGrained) {
  // Section 4.1: "at least 1.5 times the throughput of the linked-list
  // with fine-grained locks" when r1 = 3.
  for (std::size_t p : {1u, 2u, 8u, 28u}) {
    EXPECT_GE(pim_list_combining(kPaper, 1000, p) /
                  fine_grained_lock_list(kPaper, 1000, p),
              1.5 - 1e-9)
        << p;
  }
}

TEST(Table2, BetaEstimateGrowsLogarithmically) {
  EXPECT_NEAR(estimate_beta(1 << 10), 20.0, 1e-9);
  EXPECT_NEAR(estimate_beta(1 << 20), 40.0, 1e-9);
  EXPECT_GE(estimate_beta(1), 1.0);
}

TEST(Table2, FatNodeAccessesGrowLogarithmically) {
  using core::VaultIndex;
  constexpr int kLeaf = VaultIndex::kLeafKeys;
  constexpr int kFan = VaultIndex::kFanout;
  EXPECT_EQ(fat_node_accesses(0, kLeaf, kFan), 1.0);
  EXPECT_EQ(fat_node_accesses(kLeaf, kLeaf, kFan), 1.0);
  EXPECT_EQ(fat_node_accesses(kLeaf + 1, kLeaf, kFan), 2.0);
  // The root takes up to kFan children, each a leaf filled to f.
  const double leaf_fill = kRandomInsertFill * kLeaf;
  EXPECT_EQ(fat_node_accesses(static_cast<std::size_t>(kFan * leaf_fill),
                              kLeaf, kFan),
            2.0);
  EXPECT_EQ(fat_node_accesses(static_cast<std::size_t>(kFan * leaf_fill) + 1,
                              kLeaf, kFan),
            3.0);
  // Every (f * fanout)-fold growth in keys adds one whole level.
  const double f = kRandomInsertFill * kFan;
  EXPECT_EQ(fat_node_accesses(100000, kLeaf, kFan) + 1.0,
            fat_node_accesses(static_cast<std::size_t>(100000 * f), kLeaf,
                              kFan));
}

TEST(Table2, FatNodeAccessesMatchTheVaultIndex) {
  // perfbench's skip-list domain is [1, 2^17] and vault 0 owns its lower
  // half: 8,192 distinct uniform keys in [1, 2^16] after the prefill, the
  // ~14,000 a vault grows to over a skiplist_read run, and 34,000 beyond.
  runtime::Vault vault(0, 16u << 20);
  core::VaultIndex index(vault, 1, std::uint64_t{1} << 17);
  const std::size_t windows = index.windows() / 2;  // vault 0's half
  Xoshiro256 rng(1);
  for (const std::size_t keys : {8192u, 14000u, 34000u}) {
    while (index.size() < keys) index.add(1 + rng.next_below(1u << 16));
    constexpr int kProbes = 10000;
    std::uint64_t steps = 0;
    for (int i = 0; i < kProbes; ++i) {
      index.contains(1 + rng.next_below(1u << 16),
                     [&steps](std::uint64_t n) { steps += n; });
    }
    const double measured = static_cast<double>(steps) / kProbes;
    const double model =
        fat_node_accesses(index.size(), core::VaultIndex::kLeafKeys,
                          core::VaultIndex::kFanout, windows);
    EXPECT_NEAR(measured / model, 1.0, 0.10)
        << keys << " keys: measured " << measured << " model " << model;
    // A 31-key leaf holds a 32-key window at any of these fills bar a
    // nearly full one: a uniform search reads about one node.
    EXPECT_LE(model, 1.05) << keys << " keys";
    EXPECT_LE(measured, 1.05) << keys << " keys";
  }
}

TEST(Table2, PartitioningScalesLinearlyInK) {
  const double beta = 30.0;
  EXPECT_NEAR(fc_skiplist_partitioned(kPaper, beta, 8),
              8 * fc_skiplist(kPaper, beta), 1e-6);
  EXPECT_NEAR(pim_skiplist_partitioned(kPaper, beta, 16),
              16 * pim_skiplist(kPaper, beta), 1e-6);
}

TEST(Table2, PimOverFcApproachesR1ForLargeBeta) {
  // Section 4.2: beta r1 / (beta + r1) ~= r1 when beta >> r1.
  const double ratio =
      pim_skiplist(kPaper, 1000.0) / fc_skiplist(kPaper, 1000.0);
  EXPECT_NEAR(ratio, kPaper.r1, 0.05);
}

TEST(Table2, CrossoverMatchesKGreaterThanPOverR1) {
  // Section 4.2: "k > p / r1 should suffice" for large beta.
  const double beta = 1000.0;
  for (std::size_t p : {6u, 12u, 24u}) {
    const std::size_t k_min = min_partitions_to_beat_lock_free(kPaper, beta, p);
    EXPECT_NEAR(static_cast<double>(k_min),
                static_cast<double>(p) / kPaper.r1 + 1, 1.0)
        << p;
    // And the claim itself: at k_min partitions PIM wins, below it loses.
    EXPECT_GT(pim_skiplist_partitioned(kPaper, beta, k_min),
              lock_free_skiplist(kPaper, beta, p));
    if (k_min > 1) {
      EXPECT_LE(pim_skiplist_partitioned(kPaper, beta, k_min - 1),
                lock_free_skiplist(kPaper, beta, p) + 1e-6);
    }
  }
}

TEST(Sec52, QueueBoundsAtPaperDefaults) {
  // Lpim = 200ns here, so 1/Lpim = 5 Mops/s per side.
  LatencyParams lp = kPaper;
  EXPECT_NEAR(faa_queue(lp), 1e9 / lp.atomic(), 1e-3);
  EXPECT_NEAR(fc_queue(lp), 1e9 / (2 * lp.llc()), 1e-3);
  EXPECT_NEAR(pim_queue_pipelined(lp), 1e9 / lp.pim(), 1e4);
}

TEST(Sec52, PimQueueIsTwiceFcAndThriceFaa) {
  // Section 5.2: "the throughput of our PIM-managed FIFO queue is expected
  // to be twice the throughput of the flat-combining queue and three times
  // that of the F&A queue."
  EXPECT_NEAR(pim_queue_pipelined(kPaper) / fc_queue(kPaper), 2.0, 0.01);
  EXPECT_NEAR(pim_queue_pipelined(kPaper) / faa_queue(kPaper), 3.0, 0.01);
}

TEST(Sec52, CrossoverPredicates) {
  EXPECT_TRUE(pim_beats_fc_queue(kPaper));   // 2 r1 / r2 = 2 > 1
  EXPECT_TRUE(pim_beats_faa_queue(kPaper));  // r1 r3 = 3 > 1
  LatencyParams slow_pim = kPaper;
  slow_pim.r1 = 0.4;  // PIM access SLOWER than CPU: loses both
  EXPECT_FALSE(pim_beats_fc_queue(slow_pim));
  EXPECT_FALSE(pim_beats_faa_queue(slow_pim));
}

TEST(Sec52, SingleSegmentHalvesThroughput) {
  EXPECT_NEAR(pim_queue_single_segment(kPaper),
              pim_queue_pipelined(kPaper) / 2, 1e-6);
}

TEST(Sec52, UnpipelinedPaysMessageLatencyPerRequest) {
  EXPECT_NEAR(pim_queue_unpipelined(kPaper),
              1e9 / (kPaper.pim() + kPaper.message()), 1e-3);
  EXPECT_LT(pim_queue_unpipelined(kPaper), pim_queue_pipelined(kPaper));
}

TEST(Sec52, SaturationNeedsTwoLmsgOverLpimCpus) {
  EXPECT_EQ(min_cpus_to_saturate_pim(kPaper), 6u);  // 2 * 600 / 200
}

}  // namespace
}  // namespace pimds::model
