// Mutation smoke tests: run the simulator with deliberately broken protocol
// variants (QueueFault, RebalanceFault) and require the linearizability
// checker to flag them — and to stay silent on the identical configurations
// with the fault switched off. A checker that passes its unit tests but
// cannot catch a seeded hand-off or migration bug is decoration; this file
// is the evidence it is not.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "check/history.hpp"
#include "check/linearizability.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim_test_util.hpp"

namespace pimds {
namespace {

/// One PIM-queue run with the given fault, checked. Dequeue-only against a
/// large pre-fill: both queue faults corrupt the SERVE side (reversed
/// segment, re-served head), so dequeuers alone exercise them — and a
/// dequeue-only history keeps refutation cheap. Proving NON-linearizability
/// means exhausting every linearization order; concurrent enqueues make the
/// abstract states diverge per interleaving (no memoization pruning,
/// exponential blow-up), while with a fixed pre-fill the state after k pops
/// is the same no matter which dequeuer did them, so the DFS collapses.
/// Small segments force frequent hand-offs so the faults fire many times.
check::CheckResult run_queue_once(std::uint64_t seed, sim::QueueFault fault) {
  sim::QueueConfig cfg;
  cfg.seed = seed;
  cfg.enqueuers = 0;
  cfg.dequeuers = 3;
  cfg.duration_ns = 200'000;
  cfg.initial_nodes = 1024;  // more than the run can drain: no empty spins
  check::HistoryRecorder recorder(cfg.enqueuers + cfg.dequeuers);
  cfg.recorder = &recorder;
  sim::PimQueueOptions opts;
  opts.segment_threshold = 16;
  sim::run_pim_queue(cfg, opts, fault);
  check::QueueSpec::State initial;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i)
    initial.items.push_back(i);
  return check::check_queue_history(recorder.collect(), std::move(initial));
}

/// One rebalance run with the given fault, checked. A tiny migration chunk
/// stretches the migration window; the skewed mix keeps traffic on the
/// migrating partition.
check::CheckResult run_rebalance_once(std::uint64_t seed,
                                      sim::RebalanceFault fault) {
  sim::RebalanceConfig cfg;
  cfg.seed = seed;
  cfg.num_cpus = 8;
  cfg.partitions = 4;
  cfg.key_range = 1 << 12;
  cfg.initial_size = 1 << 11;
  cfg.duration_ns = 4'000'000;
  cfg.migrate_chunk = 2;
  cfg.fault = fault;
  check::HistoryRecorder recorder(cfg.num_cpus + 1);
  cfg.recorder = &recorder;
  sim::run_pim_skiplist_rebalance(cfg);
  return check::check_set_history(recorder.collect());
}

/// Sweep seeds: the faulty variant must fail at least once, and the clean
/// variant must never fail on the very same seeds.
template <typename RunOnce, typename Fault>
void expect_fault_caught(RunOnce run_once, Fault fault, Fault none,
                         std::uint64_t first_seed, std::uint64_t num_seeds,
                         const char* what) {
  std::uint64_t caught = 0;
  std::string first_error;
  for (std::uint64_t s = first_seed; s < first_seed + num_seeds; ++s) {
    SCOPED_TRACE("seed " + std::to_string(s));
    const auto clean = run_once(s, none);
    EXPECT_TRUE(clean.ok()) << "unfaulted run must check clean: "
                            << clean.error;
    const auto faulty = run_once(s, fault);
    ASSERT_NE(faulty.verdict, check::Verdict::kLimitReached)
        << "mutation histories must stay within the search budget";
    if (!faulty.ok()) {
      ++caught;
      if (first_error.empty()) first_error = faulty.error;
    }
  }
  EXPECT_GT(caught, 0u) << what << ": no seed in [" << first_seed << ", "
                        << first_seed + num_seeds
                        << ") produced a flagged history — the fault is "
                           "invisible to the checker";
  if (caught > 0) {
    EXPECT_FALSE(first_error.empty()) << "violations must carry an error";
  }
}

TEST(QueueMutation, HandoffReorderIsCaught) {
  // Dropped-fence model: the successor dequeue core serves its segment
  // back-to-front after the newDeqSeg hand-off.
  expect_fault_caught(run_queue_once, sim::QueueFault::kHandoffReorder,
                      sim::QueueFault::kNone, /*first_seed=*/1,
                      /*num_seeds=*/4, "handoff reorder");
}

TEST(QueueMutation, DoubleServeIsCaught) {
  // Stale-sentinel model: every 64th dequeue re-serves the front value
  // without popping, so one value reaches two dequeuers.
  expect_fault_caught(run_queue_once, sim::QueueFault::kDoubleServe,
                      sim::QueueFault::kNone, /*first_seed=*/1,
                      /*num_seeds=*/4, "double serve");
}

TEST(RebalanceMutation, StaleServeIsCaught) {
  // The source vault keeps answering for keys it already migrated; updates
  // land on the doomed copy and vanish.
  expect_fault_caught(run_rebalance_once, sim::RebalanceFault::kStaleServe,
                      sim::RebalanceFault::kNone, /*first_seed=*/1,
                      /*num_seeds=*/3, "stale serve during migration");
}

TEST(RebalanceMutation, NoDeferIsCaught) {
  // The target vault answers directly-routed requests from its incomplete
  // copy instead of parking them until the migration-end marker.
  expect_fault_caught(run_rebalance_once, sim::RebalanceFault::kNoDefer,
                      sim::RebalanceFault::kNone, /*first_seed=*/1,
                      /*num_seeds=*/3, "missing defer during migration");
}

TEST(RebalanceMutation, DirectoryBeforeGrantIsCaught) {
  // The execute/reject gate trusts the shared directory, which the source
  // publishes before the target owns the granting node stream: requests
  // are answered from a list missing the in-flight keys. This is the
  // historical runtime bug the oracle caught under TSan, re-seeded.
  expect_fault_caught(run_rebalance_once,
                      sim::RebalanceFault::kDirectoryBeforeGrant,
                      sim::RebalanceFault::kNone, /*first_seed=*/1,
                      /*num_seeds=*/3, "directory updated before grant");
}

}  // namespace
}  // namespace pimds
