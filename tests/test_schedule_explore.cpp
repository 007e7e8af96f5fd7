// The deterministic schedule-exploration driver (check/explore.hpp): seed
// sweeps with bounded delay perturbation over the simulated PIM queue and
// the migration protocol, exact replay of a recorded failure, and the env
// plumbing CI uses for long sweeps (PIMDS_EXPLORE_*).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "check/explore.hpp"
#include "check/history.hpp"
#include "check/linearizability.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"

namespace pimds {
namespace {

/// One PIM-queue trial: simulate at (engine seed, perturbation), record,
/// check, and return the violation text ("" = clean).
///
/// Dequeue-only against a large pre-fill, for the same reason as the
/// mutation smoke tests: the sweep's job is the segment HAND-OFF protocol
/// (the newDeqSeg rotation, which small segments trigger constantly), and a
/// dequeue-only history keeps the checker cheap under every perturbation —
/// with a fixed pre-fill the abstract state after k pops is unique no
/// matter which dequeuer did them, so verification and refutation both
/// collapse under memoization. Concurrent enqueues under perturbed
/// schedules make even PASSING histories exponentially expensive to verify
/// (every interleaving is a distinct queue state); mixed-workload checking
/// is covered at low contention in test_linearizability.cpp.
check::Trial queue_trial(sim::QueueFault fault) {
  return [fault](std::uint64_t seed,
                 const sim::Engine::Perturbation& perturb) -> std::string {
    sim::QueueConfig cfg;
    cfg.seed = seed;
    cfg.perturb = perturb;
    cfg.enqueuers = 0;
    cfg.dequeuers = 3;
    cfg.duration_ns = 150'000;
    cfg.initial_nodes = 1024;  // more than the run can drain
    check::HistoryRecorder recorder(cfg.enqueuers + cfg.dequeuers);
    cfg.recorder = &recorder;
    sim::PimQueueOptions opts;
    opts.segment_threshold = 16;
    sim::run_pim_queue(cfg, opts, fault);
    check::QueueSpec::State initial;
    for (std::size_t i = 0; i < cfg.initial_nodes; ++i)
      initial.items.push_back(i);
    return check::check_queue_history(recorder.collect(), std::move(initial))
        .error;
  };
}

/// One migration trial over the rebalancing skip-list.
check::Trial rebalance_trial(sim::RebalanceFault fault) {
  return [fault](std::uint64_t seed,
                 const sim::Engine::Perturbation& perturb) -> std::string {
    sim::RebalanceConfig cfg;
    cfg.seed = seed;
    cfg.perturb = perturb;
    cfg.num_cpus = 6;
    cfg.partitions = 4;
    cfg.key_range = 1 << 10;
    cfg.initial_size = 1 << 9;
    cfg.duration_ns = 1'500'000;
    cfg.migrate_chunk = 4;
    cfg.fault = fault;
    check::HistoryRecorder recorder(cfg.num_cpus + 1);
    cfg.recorder = &recorder;
    sim::run_pim_skiplist_rebalance(cfg);
    return check::check_set_history(recorder.collect()).error;
  };
}

/// One migration trial with the ACTIVE LoadMap policy driving migrations
/// instead of the scripted operator: every explored schedule must contain
/// at least one policy-triggered migration (a schedule with none exercises
/// nothing and is reported as a failure, so the sweep cannot silently
/// degenerate), keep the add/remove size accounting intact, and linearize.
check::Trial active_rebalance_trial(sim::RebalanceFault fault) {
  return [fault](std::uint64_t seed,
                 const sim::Engine::Perturbation& perturb) -> std::string {
    sim::RebalanceConfig cfg;
    cfg.seed = seed;
    cfg.perturb = perturb;
    cfg.num_cpus = 6;
    cfg.partitions = 4;
    cfg.key_range = 1 << 10;
    cfg.initial_size = 1 << 9;
    cfg.duration_ns = 2'000'000;
    cfg.migrate_chunk = 4;
    cfg.policy = sim::RebalancePolicy::kActiveLoadMap;
    cfg.policy_period_ns = 200'000;
    cfg.trigger.imbalance_enter = 1.2;
    cfg.trigger.cooldown_periods = 1;
    cfg.trigger.min_window_ops = 50;
    cfg.fault = fault;
    check::HistoryRecorder recorder(cfg.num_cpus + 1);
    cfg.recorder = &recorder;
    const auto r = sim::run_pim_skiplist_rebalance(cfg);
    if (r.migrations == 0) {
      return "no active migration fired: the schedule exercised nothing";
    }
    if (fault == sim::RebalanceFault::kNone && !r.size_consistent) {
      return "size accounting broke across active migrations";
    }
    return check::check_set_history(recorder.collect()).error;
  };
}

TEST(ScheduleExplore, CleanQueueSweepFindsNoViolation) {
  // Default: a short sweep suitable for every ctest run. CI's
  // schedule-explore job stretches it via PIMDS_EXPLORE_SEEDS=1000.
  check::ExploreConfig cfg;
  cfg.num_seeds = 8;
  cfg.perturbations_per_seed = 2;
  cfg = cfg.with_env_overrides();
  const auto result = check::explore(
      cfg, queue_trial(sim::QueueFault::kNone),
      "./tests/test_schedule_explore "
      "--gtest_filter=ScheduleExplore.CleanQueueSweepFindsNoViolation");
  EXPECT_TRUE(result.ok()) << result.report("(see test)");
  EXPECT_GE(result.runs, cfg.num_seeds);
}

TEST(ScheduleExplore, CleanMigrationSweepFindsNoViolation) {
  check::ExploreConfig cfg;
  cfg.num_seeds = 4;
  cfg.perturbations_per_seed = 1;
  cfg = cfg.with_env_overrides();
  const auto result = check::explore(
      cfg, rebalance_trial(sim::RebalanceFault::kNone),
      "./tests/test_schedule_explore "
      "--gtest_filter=ScheduleExplore.CleanMigrationSweepFindsNoViolation");
  EXPECT_TRUE(result.ok()) << result.report("(see test)");
}

TEST(ScheduleExplore, ActiveRebalanceSweepLinearizesWithLiveMigrations) {
  // Adversarial coverage for the CLOSED control loop: perturbed schedules,
  // policy-chosen split keys, and the trial itself enforces that every
  // schedule contains a live migration. CI stretches this to 1000 seeds
  // via PIMDS_EXPLORE_SEEDS (>= 200 is the acceptance floor).
  check::ExploreConfig cfg;
  cfg.num_seeds = 6;
  cfg.perturbations_per_seed = 2;
  cfg = cfg.with_env_overrides();
  const auto result = check::explore(
      cfg, active_rebalance_trial(sim::RebalanceFault::kNone),
      "./tests/test_schedule_explore "
      "--gtest_filter="
      "ScheduleExplore.ActiveRebalanceSweepLinearizesWithLiveMigrations");
  EXPECT_TRUE(result.ok()) << result.report("(see test)");
  EXPECT_GE(result.runs, cfg.num_seeds);
}

TEST(ScheduleExplore, ActiveRebalanceSweepCatchesDirectoryBeforeGrant) {
  // The ownership-gate mutation must surface under the ACTIVE policy's
  // perturbed sweep too — and replay bit-exactly from the recorded pair,
  // same as the queue fault below.
  check::ExploreConfig cfg;
  cfg.first_seed = 1;
  cfg.num_seeds = 8;
  cfg.perturbations_per_seed = 1;
  cfg.max_failures = 1;
  const auto trial =
      active_rebalance_trial(sim::RebalanceFault::kDirectoryBeforeGrant);
  const auto result = check::explore(cfg, trial, "replay-hint");
  ASSERT_FALSE(result.ok())
      << "directory-before-grant must be flagged within 8 seeds";
  const check::ExploreFailure& f = result.failures.front();
  EXPECT_FALSE(f.error.empty());
  sim::Engine::Perturbation perturb = cfg.perturb;
  perturb.seed = f.perturb_seed;
  EXPECT_EQ(trial(f.seed, perturb), f.error);
}

TEST(ScheduleExplore, FaultySweepFindsAFailureAndReplaysItExactly) {
  // A seeded protocol bug must (a) surface somewhere in a small sweep and
  // (b) reproduce bit-exactly from the recorded (seed, perturb_seed) pair —
  // the property the whole replay workflow rests on.
  check::ExploreConfig cfg;
  cfg.first_seed = 1;
  cfg.num_seeds = 6;
  cfg.perturbations_per_seed = 1;
  cfg.max_failures = 1;
  const auto trial = queue_trial(sim::QueueFault::kDoubleServe);
  const auto result = check::explore(cfg, trial, "replay-hint");
  ASSERT_FALSE(result.ok())
      << "an injected double-serve must fail within 6 seeds";
  const check::ExploreFailure& f = result.failures.front();
  EXPECT_FALSE(f.error.empty());

  // Replay: same pair -> identical violation text, run after run.
  sim::Engine::Perturbation perturb = cfg.perturb;
  perturb.seed = f.perturb_seed;
  EXPECT_EQ(trial(f.seed, perturb), f.error);
  EXPECT_EQ(trial(f.seed, perturb), f.error);

  // The report carries a paste-able replay command for the pair.
  const std::string report = result.report("replay-hint");
  EXPECT_NE(report.find("PIMDS_EXPLORE_FIRST_SEED=" +
                        std::to_string(f.seed)),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("PIMDS_EXPLORE_PERTURB_SEED=" +
                        std::to_string(f.perturb_seed)),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("replay-hint"), std::string::npos) << report;
}

TEST(ScheduleExplore, PerturbedRunsAreDeterministicPerPair) {
  // The perturbation changes the interleaving but never the determinism:
  // one (seed, perturb_seed) pair is one exact schedule.
  sim::RebalanceConfig cfg;
  cfg.seed = 7;
  cfg.num_cpus = 6;
  cfg.key_range = 1 << 10;
  cfg.initial_size = 1 << 9;
  cfg.duration_ns = 1'500'000;
  cfg.migrate_chunk = 4;
  cfg.perturb.seed = 42;
  const auto a = sim::run_pim_skiplist_rebalance(cfg);
  const auto b = sim::run_pim_skiplist_rebalance(cfg);
  EXPECT_EQ(a.before.total_ops, b.before.total_ops);
  EXPECT_EQ(a.after.total_ops, b.after.total_ops);
  EXPECT_EQ(a.migrated_keys, b.migrated_keys);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_TRUE(a.size_consistent)
      << "perturbation must not break the protocol itself";
}

TEST(ScheduleExplore, EnvOverridesDriveSweepBoundsAndReplay) {
  const auto save = [](const char* name) -> std::string {
    const char* v = std::getenv(name);
    return v == nullptr ? std::string() : std::string(v);
  };
  const std::string old_seeds = save("PIMDS_EXPLORE_SEEDS");
  const std::string old_first = save("PIMDS_EXPLORE_FIRST_SEED");
  const std::string old_perturbs = save("PIMDS_EXPLORE_PERTURBS");
  const std::string old_forced = save("PIMDS_EXPLORE_PERTURB_SEED");

  ::setenv("PIMDS_EXPLORE_SEEDS", "3", 1);
  ::setenv("PIMDS_EXPLORE_FIRST_SEED", "17", 1);
  ::setenv("PIMDS_EXPLORE_PERTURBS", "0", 1);
  ::setenv("PIMDS_EXPLORE_PERTURB_SEED", "99", 1);

  const check::ExploreConfig cfg = check::ExploreConfig{}.with_env_overrides();
  EXPECT_EQ(cfg.num_seeds, 3u);
  EXPECT_EQ(cfg.first_seed, 17u);
  EXPECT_EQ(cfg.perturbations_per_seed, 0u);
  EXPECT_EQ(check::ExploreConfig::forced_perturb_seed(), 99u);
  EXPECT_EQ(check::replay_command("./t", 17, 99),
            "PIMDS_EXPLORE_FIRST_SEED=17 PIMDS_EXPLORE_SEEDS=1 "
            "PIMDS_EXPLORE_PERTURB_SEED=99 ./t");

  const auto restore = [](const char* name, const std::string& value) {
    if (value.empty()) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value.c_str(), 1);
    }
  };
  restore("PIMDS_EXPLORE_SEEDS", old_seeds);
  restore("PIMDS_EXPLORE_FIRST_SEED", old_first);
  restore("PIMDS_EXPLORE_PERTURBS", old_perturbs);
  restore("PIMDS_EXPLORE_PERTURB_SEED", old_forced);
}

}  // namespace
}  // namespace pimds
