// Tests for the simulated Section 4.2.1 rebalancing experiment and the
// Section 5.1 fat-node enqueue combining.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/skip_list.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim_test_util.hpp"

namespace pimds::sim {
namespace {

RebalanceConfig quick_config() {
  RebalanceConfig cfg;
  cfg.num_cpus = 12;
  cfg.partitions = 4;
  cfg.key_range = 1 << 14;
  cfg.initial_size = 1 << 13;
  cfg.duration_ns = 30'000'000;
  return cfg;
}

TEST(SimRebalance, MigrationImprovesSkewedThroughput) {
  RebalanceConfig cfg = quick_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const RebalanceResult with = run_pim_skiplist_rebalance(cfg);
  cfg.policy = RebalancePolicy::kNone;
  const RebalanceResult without = run_pim_skiplist_rebalance(cfg);
  EXPECT_TRUE(with.size_consistent);
  EXPECT_TRUE(without.size_consistent);
  EXPECT_GT(with.migrated_keys, 0u);
  EXPECT_EQ(without.migrated_keys, 0u);
  // Before the split both runs are identical-ish; after it, the rebalanced
  // run must clearly beat both its own past and the control.
  EXPECT_GT(with.after.ops_per_sec(), 1.5 * with.before.ops_per_sec());
  EXPECT_GT(with.after.ops_per_sec(), 1.5 * without.after.ops_per_sec());
}

TEST(SimRebalance, NoKeysLostAcrossMigrations) {
  RebalanceConfig cfg = quick_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.mix = {0.4, 0.4};  // heavy churn while ranges move
  const RebalanceResult r = run_pim_skiplist_rebalance(cfg);
  EXPECT_TRUE(r.size_consistent)
      << "final size disagrees with successful add/remove accounting";
}

TEST(SimRebalance, ProtocolPathsAreExercised) {
  RebalanceConfig cfg = quick_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.migrate_chunk = 2;  // slow migration: maximize racing requests
  const RebalanceResult r = run_pim_skiplist_rebalance(cfg);
  EXPECT_TRUE(r.size_consistent);
  // With a crawling migration under a hot workload, some requests must have
  // hit the forwarding path (keys already handed over).
  EXPECT_GT(r.forwarded, 0u);
}

TEST(SimRebalance, Deterministic) {
  RebalanceConfig cfg = quick_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const RebalanceResult a = run_pim_skiplist_rebalance(cfg);
  const RebalanceResult b = run_pim_skiplist_rebalance(cfg);
  EXPECT_EQ(a.before.total_ops, b.before.total_ops);
  EXPECT_EQ(a.after.total_ops, b.after.total_ops);
  EXPECT_EQ(a.migrated_keys, b.migrated_keys);
  EXPECT_EQ(a.final_requests_per_vault, b.final_requests_per_vault);
}

// ---------------------------------------------------------------------------
// Active LoadMap-driven policy (RebalancePolicy::kActiveLoadMap): the sim
// twin of core/auto_rebalancer's closed control loop. These run the full
// protocol with the policy actor deciding from windowed load + the hot-key
// sketch; nothing in the run knows the workload's quantiles.
// ---------------------------------------------------------------------------

RebalanceConfig active_config(std::uint64_t seed) {
  RebalanceConfig cfg;
  cfg.seed = seed;
  cfg.num_cpus = 12;
  cfg.partitions = 4;
  cfg.key_range = 1 << 14;
  cfg.initial_size = 1 << 13;
  cfg.zipf_theta = 0.99;
  cfg.duration_ns = 45'000'000;
  cfg.policy = RebalancePolicy::kActiveLoadMap;
  cfg.policy_period_ns = 1'000'000;
  cfg.trigger.imbalance_enter = 1.2;
  cfg.trigger.cooldown_periods = 1;
  return cfg;
}

TEST(ActiveRebalance, CutsPeakImbalanceAtLeastTwofold) {
  // The headline property across a seed sweep: with no quantile knowledge,
  // the windowed-LoadMap policy must at least halve the peak per-window
  // vault imbalance of the final third relative to the no-intervention
  // control, without losing keys. (The gated CI scenario asserts the
  // stronger >= 2x cut + throughput criterion at bench scale on a pinned
  // seed; this holds the property across seeds at test scale.)
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RebalanceConfig cfg = active_config(seed);
    const Time d = cfg.duration_ns;
    RebalanceConfig control = cfg;
    control.policy = RebalancePolicy::kNone;
    const RebalanceResult with = run_pim_skiplist_rebalance(cfg);
    const RebalanceResult without = run_pim_skiplist_rebalance(control);
    ASSERT_GT(with.migrations, 0u);
    EXPECT_EQ(without.migrations, 0u);
    EXPECT_TRUE(with.size_consistent);
    const double peak_control = without.peak_imbalance(2 * d / 3, d, 200);
    const double peak_active = with.peak_imbalance(2 * d / 3, d, 200);
    ASSERT_GT(peak_active, 0.0) << "final third must have eligible windows";
    EXPECT_GE(peak_control, 2.0 * peak_active)
        << "control peak " << peak_control << " vs active " << peak_active;
  }
}

TEST(ActiveRebalance, ConvergesInsteadOfThrashing) {
  // Hysteresis (enter threshold + per-vault cooldown) must let the layout
  // settle: essentially all migrations belong to the first two thirds of
  // the run. This is the stability assertion the kThrash mutation breaks.
  const RebalanceResult r = run_pim_skiplist_rebalance(active_config(1));
  ASSERT_GT(r.migrations, 0u);
  EXPECT_LE(r.migrations_late, 1u)
      << "a settled policy must not keep migrating in the final third";
  EXPECT_TRUE(r.size_consistent);
}

TEST(ActiveRebalance, DeterministicIncludingWindowSeries) {
  const RebalanceResult a = run_pim_skiplist_rebalance(active_config(2));
  const RebalanceResult b = run_pim_skiplist_rebalance(active_config(2));
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migrations_late, b.migrations_late);
  EXPECT_EQ(a.migrated_keys, b.migrated_keys);
  EXPECT_EQ(a.before.total_ops, b.before.total_ops);
  EXPECT_EQ(a.after.total_ops, b.after.total_ops);
  EXPECT_EQ(a.final_requests_per_vault, b.final_requests_per_vault);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].ops, b.windows[i].ops) << "window " << i;
    EXPECT_EQ(a.windows[i].hottest, b.windows[i].hottest) << "window " << i;
  }
}

TEST(ActiveRebalance, SurvivesChurnWithoutLosingKeys) {
  RebalanceConfig cfg = active_config(3);
  cfg.mix = {0.4, 0.4};  // heavy add/remove churn while ranges move
  const RebalanceResult r = run_pim_skiplist_rebalance(cfg);
  ASSERT_GT(r.migrations, 0u);
  EXPECT_TRUE(r.size_consistent)
      << "final size disagrees with successful add/remove accounting";
}

TEST(ActiveRebalanceMutation, ThrashVariantIsFlaggedByStability) {
  // kThrash removes the enter threshold and the cooldown: the protocol
  // stays correct (no checker violation) but the policy never converges.
  // The harness signature is unmistakable: several times the migration
  // count, and migrations still firing in the final third.
  const RebalanceResult clean = run_pim_skiplist_rebalance(active_config(1));
  RebalanceConfig cfg = active_config(1);
  cfg.fault = RebalanceFault::kThrash;
  const RebalanceResult thrash = run_pim_skiplist_rebalance(cfg);
  EXPECT_GE(thrash.migrations, 2 * clean.migrations)
      << "no-hysteresis variant must migrate far more often";
  EXPECT_GE(thrash.migrations_late, 5u)
      << "no-hysteresis variant must still be migrating at the end";
  EXPECT_LE(clean.migrations_late, 1u);
}

TEST(ActiveRebalanceMutation, SplitOffByOneIsFlaggedByImbalance) {
  // Single-dominant-key workload (theta = 2.0): the clean policy splits at
  // the top key's SUCCESSOR, isolating the hot key in one migration, after
  // which nothing is splittable and the policy converges. The off-by-one
  // mutant splits AT the key, so the hot spot rides along with every
  // migrated suffix: the peak imbalance never falls and migrations never
  // stop — the imbalance-must-fall and stability assertions both flag it.
  RebalanceConfig clean_cfg = active_config(1);
  clean_cfg.zipf_theta = 2.0;
  const Time d = clean_cfg.duration_ns;
  RebalanceConfig mutant_cfg = clean_cfg;
  mutant_cfg.fault = RebalanceFault::kSplitOffByOne;
  const RebalanceResult clean = run_pim_skiplist_rebalance(clean_cfg);
  const RebalanceResult mutant = run_pim_skiplist_rebalance(mutant_cfg);
  // Clean: one successor split isolates the dominant key and settles. The
  // residual imbalance is the hot key itself (one key cannot be divided),
  // strictly below the all-on-one-vault ceiling of `partitions`.
  ASSERT_GT(clean.migrations, 0u);
  EXPECT_LE(clean.migrations_late, 1u);
  EXPECT_LT(clean.peak_imbalance(2 * d / 3, d, 200), 3.0);
  // Mutant: the hot key travels with every split, so the final-third peak
  // stays pinned at the ceiling and migrations keep firing late.
  EXPECT_GE(mutant.migrations, 2 * clean.migrations);
  EXPECT_GT(mutant.migrations_late, 0u);
  EXPECT_GT(mutant.peak_imbalance(2 * d / 3, d, 200), 3.5);
}

TEST(InsertCursor, AscendingInsertsMatchRegularInserts) {
  core::SkipList via_cursor(0);
  core::SkipList regular(0);
  core::SkipList::InsertCursor cursor;
  Xoshiro256 rng(5);
  Xoshiro256 towers(6);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.next_in(1, 2000));
  std::sort(keys.begin(), keys.end());
  std::uint64_t cursor_hops = 0;
  std::uint64_t search_hops = 0;
  for (const std::uint64_t k : keys) {
    const bool a = via_cursor.insert_ascending(
        cursor, k, towers, [&](std::uint64_t n) { cursor_hops += n; });
    const bool b = regular.execute(SetOp::kAdd, k, towers,
                                   [&](std::uint64_t n) { search_hops += n; });
    ASSERT_EQ(a, b) << k;
  }
  ASSERT_EQ(via_cursor.keys(), regular.keys());
  // The fingers amortize the search: far below a full search per key even
  // though the cursor also pays every tower link.
  EXPECT_LT(cursor_hops * 2, search_hops);
}

TEST(InsertCursor, SurvivesInterleavedMutations) {
  core::SkipList list(0);
  core::SkipList::InsertCursor cursor;
  Xoshiro256 towers(7);
  const auto free = [](std::uint64_t) {};
  // Ascending inserts with unrelated mutations in between (which
  // invalidate the fingers and force a re-seed).
  for (std::uint64_t k = 10; k <= 500; k += 10) {
    ASSERT_TRUE(list.insert_ascending(cursor, k, towers, free));
    if (k % 50 == 0) {
      list.execute(SetOp::kAdd, k + 5, towers, free);
      list.execute(SetOp::kRemove, k - 10, towers, free);
    }
  }
  // Spot-check membership.
  EXPECT_TRUE(list.execute(SetOp::kContains, 500, towers, free));
  EXPECT_FALSE(list.execute(SetOp::kContains, 40, towers, free));
  EXPECT_TRUE(list.execute(SetOp::kContains, 55, towers, free));
}

TEST(SkipListExtract, DrainsAscendingAtTwoAccessesPerKey) {
  // The migration source's sweep: each extraction charges a flat 2, an
  // empty tail charges nothing, and the target's ascending re-insert
  // rebuilds the same set.
  core::SkipList source(0);
  core::SkipList target(0);
  core::SkipList::InsertCursor cursor;
  Xoshiro256 rng(9);
  source.populate(rng, 300, 1, 5000);
  const std::vector<std::uint64_t> before = source.keys();
  std::uint64_t hops = 0;
  std::uint64_t extracted = 0;
  std::uint64_t from = 2000;
  while (const auto key = source.extract_first_at_least(
             from, [&](std::uint64_t n) { hops += n; })) {
    ASSERT_GE(*key, from);
    ASSERT_NE(source.first_at_least(*key), key) << "extracted key is gone";
    ASSERT_TRUE(target.insert_ascending(cursor, *key, rng,
                                        [](std::uint64_t) {}));
    from = *key + 1;
    ++extracted;
  }
  EXPECT_EQ(hops, 2 * extracted);
  EXPECT_FALSE(source.first_at_least(from).has_value());
  std::vector<std::uint64_t> merged = source.keys();
  const std::vector<std::uint64_t> moved = target.keys();
  EXPECT_EQ(moved.size(), extracted);
  for (const std::uint64_t k : source.keys()) EXPECT_LT(k, 2000u);
  merged.insert(merged.end(), moved.begin(), moved.end());
  EXPECT_EQ(merged, before);
}

TEST(FatNodeCombining, SpeedsUpTheEnqueueSide) {
  QueueConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.enqueuers = 24;
  cfg.dequeuers = 0;
  cfg.duration_ns = 10'000'000;
  PimQueueOptions plain;
  PimQueueOptions fat;
  fat.enqueue_combining = true;
  const double off = run_pim_queue(cfg, plain).run.ops_per_sec();
  const double on = run_pim_queue(cfg, fat).run.ops_per_sec();
  EXPECT_GT(on, 2.0 * off) << "fat nodes should lift the 1/Lpim ceiling";
}

TEST(FatNodeCombining, PreservesFifoAccounting) {
  QueueConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.enqueuers = 8;
  cfg.dequeuers = 8;
  cfg.duration_ns = 10'000'000;
  PimQueueOptions fat;
  fat.enqueue_combining = true;
  const PimQueueResult r = run_pim_queue(cfg, fat);
  EXPECT_GT(r.run.total_ops, 0u);
  EXPECT_EQ(r.empty_dequeues, 0u);
  // Both sides must still be served (no starvation via the replay queue).
  EXPECT_GT(r.enq_ops, 0u);
  EXPECT_GT(r.deq_ops, 0u);
}

}  // namespace
}  // namespace pimds::sim
