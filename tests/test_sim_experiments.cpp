// Model-vs-simulator agreement tests: the discrete-event simulator, running
// the actual algorithms, must land on the closed-form Table 1 / Table 2 /
// Section 5.2 predictions (within tolerances documented per case), and the
// paper's comparative claims (who beats whom) must hold in simulation.
#include <gtest/gtest.h>

#include "model/linked_list_model.hpp"
#include "model/queue_model.hpp"
#include "model/skiplist_model.hpp"
#include "sim/ds/linked_lists.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim_test_util.hpp"

namespace pimds::sim {
namespace {

ListConfig small_list_config() {
  ListConfig cfg;
  cfg.num_cpus = 8;
  // Equilibrium sizing: with balanced add/remove on uniform keys the set
  // converges to key_range/2 elements, so start it there.
  cfg.key_range = 800;
  cfg.initial_size = 400;
  cfg.duration_ns = 30'000'000;
  return cfg;
}

void expect_within(double measured, double expected, double lo, double hi,
                   const char* what) {
  EXPECT_GE(measured, expected * lo) << what;
  EXPECT_LE(measured, expected * hi) << what;
}

TEST(SimVsModel, Table1FineGrainedList) {
  ListConfig cfg = small_list_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double sim = run_fine_grained_list(cfg).ops_per_sec();
  const double mdl = model::fine_grained_lock_list(cfg.params, 400, 8);
  expect_within(sim, mdl, 0.85, 1.15, "fine-grained list");
}

TEST(SimVsModel, Table1FcListNoCombining) {
  ListConfig cfg = small_list_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double sim = run_fc_list(cfg, false).ops_per_sec();
  const double mdl = model::fc_list_no_combining(cfg.params, 400);
  expect_within(sim, mdl, 0.85, 1.15, "FC list, no combining");
}

TEST(SimVsModel, Table1FcListCombining) {
  ListConfig cfg = small_list_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double sim = run_fc_list(cfg, true).ops_per_sec();
  const double mdl = model::fc_list_combining(cfg.params, 400, 8);
  // Real combining degrees fluctuate below the ideal batch=p, so the lower
  // tolerance is wider here.
  expect_within(sim, mdl, 0.7, 1.15, "FC list, combining");
}

TEST(SimVsModel, Table1PimListNoCombining) {
  ListConfig cfg = small_list_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double sim = run_pim_list(cfg, false).ops_per_sec();
  const double mdl = model::pim_list_no_combining(cfg.params, 400);
  expect_within(sim, mdl, 0.85, 1.15, "PIM list, no combining");
}

TEST(SimVsModel, Table1PimListCombining) {
  ListConfig cfg = small_list_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double sim = run_pim_list(cfg, true).ops_per_sec();
  const double mdl = model::pim_list_combining(cfg.params, 400, 8);
  expect_within(sim, mdl, 0.85, 1.15, "PIM list, combining");
}

TEST(SimClaims, C1NaivePimListCrossoverSitsAtR1Threads) {
  // Table 1 predicts a TIE at p = r1 = 3: fine-grained wins strictly above,
  // loses strictly below.
  ListConfig cfg = small_list_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.num_cpus = 2;
  EXPECT_LT(run_fine_grained_list(cfg).ops_per_sec(),
            run_pim_list(cfg, false).ops_per_sec());
  cfg.num_cpus = 3;
  EXPECT_NEAR(run_fine_grained_list(cfg).ops_per_sec() /
                  run_pim_list(cfg, false).ops_per_sec(),
              1.0, 0.1);
  cfg.num_cpus = 4;
  EXPECT_GT(run_fine_grained_list(cfg).ops_per_sec(),
            run_pim_list(cfg, false).ops_per_sec());
}

TEST(SimClaims, C2CombiningPimListBeatsFineGrained) {
  ListConfig cfg = small_list_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double pim = run_pim_list(cfg, true).ops_per_sec();
  const double fine_grained = run_fine_grained_list(cfg).ops_per_sec();
  EXPECT_GE(pim / fine_grained, 1.4) << "paper claims >= 1.5x at r1 = 3";
}

TEST(SimClaims, C3PimListIsAboutR1TimesFcList) {
  ListConfig cfg = small_list_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double ratio_plain = run_pim_list(cfg, false).ops_per_sec() /
                             run_fc_list(cfg, false).ops_per_sec();
  EXPECT_NEAR(ratio_plain, cfg.params.r1, 0.5);
}

SkipListConfig skip_config(std::size_t cpus) {
  SkipListConfig cfg;
  cfg.num_cpus = cpus;
  cfg.key_range = 1 << 15;
  cfg.initial_size = 1 << 14;
  cfg.duration_ns = 20'000'000;
  return cfg;
}

TEST(SimVsModel, Table2PimSkipListTracksPartitionedFormula) {
  SkipListConfig cfg = skip_config(8);
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double beta = model::estimate_beta(cfg.initial_size);
  const double sim = run_pim_skiplist(cfg, 4).ops_per_sec();
  const double mdl = model::pim_skiplist_partitioned(cfg.params, beta, 4);
  expect_within(sim, mdl, 0.7, 1.4, "PIM skip-list, k=4");
}

TEST(SimVsModel, Table2LockFreeTracksFormula) {
  SkipListConfig cfg = skip_config(8);
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double beta = model::estimate_beta(cfg.initial_size);
  const double sim = run_lockfree_skiplist(cfg).ops_per_sec();
  const double mdl = model::lock_free_skiplist(cfg.params, beta, 8);
  expect_within(sim, mdl, 0.7, 1.3, "lock-free skip-list");
}

TEST(SimClaims, C4NaivePimSkipListLosesToLockFree) {
  SkipListConfig cfg = skip_config(8);
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double naive = run_pim_skiplist(cfg, 1).ops_per_sec();
  const double lock_free = run_lockfree_skiplist(cfg).ops_per_sec();
  EXPECT_GT(lock_free, naive);
}

TEST(SimClaims, C5PartitionedPimSkipListBeatsLockFreeWhenKExceedsPOverR1) {
  // p = 12, r1 = 3: k = 8 > 4 should win, k = 2 should lose.
  SkipListConfig cfg = skip_config(12);
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double lock_free = run_lockfree_skiplist(cfg).ops_per_sec();
  EXPECT_GT(run_pim_skiplist(cfg, 8).ops_per_sec(), lock_free);
  EXPECT_LT(run_pim_skiplist(cfg, 2).ops_per_sec(), lock_free);
}

TEST(SimClaims, C6PimSkipListIsAboutR1TimesFcSkipListAtEqualK) {
  SkipListConfig cfg = skip_config(16);
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double ratio = run_pim_skiplist(cfg, 4).ops_per_sec() /
                       run_fc_skiplist(cfg, 4).ops_per_sec();
  // beta r1/(beta + r1) ~ 2.6-3.0 for observed beta, plus saturation noise.
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.0);
}

TEST(SimClaims, PartitioningImprovesFcSkipList) {
  SkipListConfig cfg = skip_config(16);
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double k1 = run_fc_skiplist(cfg, 1).ops_per_sec();
  const double k4 = run_fc_skiplist(cfg, 4).ops_per_sec();
  const double k8 = run_fc_skiplist(cfg, 8).ops_per_sec();
  EXPECT_GT(k4, 2.0 * k1);
  EXPECT_GT(k8, k4);
}

QueueConfig queue_config() {
  QueueConfig cfg;
  cfg.enqueuers = 12;
  cfg.dequeuers = 12;
  cfg.duration_ns = 20'000'000;
  return cfg;
}

TEST(SimVsModel, Sec52FaaQueueHitsTheAtomicBound) {
  QueueConfig cfg = queue_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double sim = run_faa_queue(cfg).ops_per_sec();
  const double mdl = 2 * model::faa_queue(cfg.params);  // two sides
  expect_within(sim, mdl, 0.95, 1.05, "F&A queue");
}

TEST(SimVsModel, Sec52FcQueueNearTheLlcBound) {
  QueueConfig cfg = queue_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double sim = run_fc_queue(cfg).ops_per_sec();
  const double mdl = 2 * model::fc_queue(cfg.params);
  // The (2p-1) Lllc cost is an asymptotic-in-p bound; at p=12 per side the
  // simulation sits slightly above it.
  expect_within(sim, mdl, 0.9, 1.25, "FC queue");
}

TEST(SimVsModel, Sec52PimQueueApproachesOneOverLpimPerSide) {
  QueueConfig cfg = queue_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const PimQueueResult r = run_pim_queue(cfg, PimQueueOptions{});
  const double mdl = 2 * model::pim_queue_pipelined(cfg.params);
  expect_within(r.run.ops_per_sec(), mdl, 0.9, 1.05, "PIM queue");
  EXPECT_EQ(r.empty_dequeues, 0u) << "long-queue run should never hit empty";

  // Placing each new enqueue segment opposite the dequeue core keeps the
  // two roles on distinct cores at these k, from a half-full pre-filled
  // enqueue segment and from a full one. It does not at every k: in these
  // runs the co-resident ops are 43,009 / 87,812 at k = 2, 44,697 /
  // 88,135 at k = 3 and 2,151 / 111 at k = 7 (63.5K / 64K pre-fill).
  for (const std::size_t k : {4, 5, 6, 8}) {
    for (const std::size_t prefill : {63 * 1024 + 512, 64 * 1024}) {
      QueueConfig c = cfg;
      c.initial_nodes = prefill;
      PimQueueOptions opts;
      opts.num_vaults = k;
      EXPECT_EQ(run_pim_queue(c, opts).co_resident_ops, 0u)
          << "k = " << k << ", prefill = " << prefill;
    }
  }
}

TEST(SimVsModel, Sec52PipeliningDelivers) {
  QueueConfig cfg = queue_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  PimQueueOptions opts;
  opts.pipelining = false;
  const double unpiped = run_pim_queue(cfg, opts).run.ops_per_sec();
  const double mdl = 2 * model::pim_queue_unpipelined(cfg.params);
  expect_within(unpiped, mdl, 0.9, 1.1, "PIM queue, no pipelining");
}

TEST(SimVsModel, Sec52SingleSegmentHalvesThroughput) {
  QueueConfig cfg = queue_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  PimQueueOptions opts;
  opts.num_vaults = 1;
  opts.segment_threshold = ~std::uint64_t{0};
  const double single = run_pim_queue(cfg, opts).run.ops_per_sec();
  const double full =
      run_pim_queue(cfg, PimQueueOptions{}).run.ops_per_sec();
  EXPECT_NEAR(single / full, 0.5, 0.08);
}

TEST(SimClaims, C7PimQueueBeatsFcByTwoAndFaaByThree) {
  QueueConfig cfg = queue_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const double pim = run_pim_queue(cfg, PimQueueOptions{}).run.ops_per_sec();
  const double fc = run_fc_queue(cfg).ops_per_sec();
  const double faa = run_faa_queue(cfg).ops_per_sec();
  EXPECT_NEAR(pim / fc, 2.0, 0.5);
  EXPECT_NEAR(pim / faa, 3.0, 0.4);
}

TEST(SimDeterminism, SameSeedSameResult) {
  QueueConfig cfg = queue_config();
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  const auto a = run_pim_queue(cfg, PimQueueOptions{});
  const auto b = run_pim_queue(cfg, PimQueueOptions{});
  EXPECT_EQ(a.run.total_ops, b.run.total_ops);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.segments_created, b.segments_created);

  ListConfig lcfg = small_list_config();
  lcfg.seed = seed;
  EXPECT_EQ(run_fc_list(lcfg, true).total_ops,
            run_fc_list(lcfg, true).total_ops);
}

}  // namespace
}  // namespace pimds::sim
