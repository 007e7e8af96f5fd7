// Simulated skip-list experiments (Section 4.2, Table 2, Figure 4).
//
// Algorithms, as in Table 2:
//   1. lock-free skip-list                 -> run_lockfree_skiplist
//   2. flat-combining skip-list            -> run_fc_skiplist(k = 1)
//   3. PIM-managed skip-list               -> run_pim_skiplist(k = 1)
//   4. FC skip-list with k partitions      -> run_fc_skiplist(k)
//   5. PIM skip-list with k partitions     -> run_pim_skiplist(k)
//
// As in Table 2, the lock-free list is charged its traversal only, not the
// CAS of an update (the paper: its actual performance "could be even
// worse").
//
// run_pim_skiplist is run_pim_skiplist_rebalance's host with no policy
// (RebalancePolicy::kNone): one simulated PIM skip list, whose cores run
// core::SkipListVault, serves the paper rows and the migration runs.
//
// Partitioning (Figure 3): the key space [1, N] splits into k contiguous
// ranges, each with a max-height sentinel pinned at its lower bound; a CPU
// routes each operation by comparing against the (cached) sentinels.
#pragma once

#include <cstddef>

#include "core/rebalance_step.hpp"
#include "sim/workload.hpp"

namespace pimds::sim {

struct SkipListConfig : SimConfig {
  std::uint64_t key_range = 1u << 17;  ///< N
  std::size_t initial_size = 16384;    ///< skip-list size
  SetOpMix mix{};
  /// > 0: draw keys Zipf(theta) instead of uniform (rank 0 -> key 1, so
  /// partition 0 is the hot vault). Used by the --skew telemetry scenario
  /// on the table2/fig4 paths; 0 keeps the paper's uniform workload and
  /// the committed baselines bit-identical.
  double zipf_theta = 0.0;
};

/// Partition index of `key` among k equal ranges of [1, N].
constexpr std::size_t partition_of(std::uint64_t key, std::uint64_t n,
                                   std::size_t k) noexcept {
  const std::uint64_t idx = (key - 1) * k / n;
  return idx >= k ? k - 1 : static_cast<std::size_t>(idx);
}

/// Sentinel key (lower bound, exclusive for operations) of partition i.
constexpr std::uint64_t partition_sentinel(std::size_t i, std::uint64_t n,
                                           std::size_t k) noexcept {
  return i * n / k;
}

RunResult run_lockfree_skiplist(const SkipListConfig& cfg);
RunResult run_fc_skiplist(const SkipListConfig& cfg, std::size_t partitions);
RunResult run_pim_skiplist(const SkipListConfig& cfg, std::size_t partitions);

/// Deliberately broken migration variants (Section 4.2.1) for checker
/// mutation testing; each MUST be flagged by the linearizability checker.
/// kStaleServe, kNoDefer and kDirectoryBeforeGrant act through
/// core::SkipListVault's Fault hook, so they break the shipped handler;
/// kThrash and kSplitOffByOne act through core::RebalanceStep's, so they
/// break the shipped policy.
enum class RebalanceFault : std::uint8_t {
  kNone,
  /// The source vault keeps serving ALL keys locally during migration —
  /// including already-migrated ones it should forward. Updates to a
  /// migrated key land on the stale copy and are lost when the target's
  /// copy becomes authoritative.
  kStaleServe,
  /// Notify-first hand-off without the defer rule: the directory is updated
  /// at migration START (so CPUs route directly to the target while nodes
  /// are still streaming over), and the target answers those requests from
  /// its incomplete local list instead of parking them until kMigEnd.
  /// Reads miss keys that exist. (The early notify alone would be safe —
  /// that is the paper's design point — it is skipping the defer that
  /// breaks; with the correct completion-time update the FIFO mailbox means
  /// no direct request can ever overtake the final migrated node.)
  kNoDefer,
  /// Active-policy mutation: no cooldown, no enter threshold — the policy
  /// fires a migration on EVERY eligible window. Linearizability holds
  /// (the protocol is intact), but the policy never converges: it keeps
  /// migrating to the end of the run. The harness flags it by the
  /// stability assertion (no migrations in the final third once the
  /// layout has settled).
  kThrash,
  /// Active-policy mutation: when a single hot key dominates the sketch,
  /// split at the hot key itself instead of its successor — the hot key
  /// travels WITH the migrated suffix, so every migration relocates the
  /// hot spot wholesale instead of dividing the load. Flagged by the
  /// imbalance-must-fall / stability assertions, not the checker.
  kSplitOffByOne,
  /// The execute/reject gate consults the SHARED directory instead of the
  /// vault-local owned-ranges view — the historical bug the
  /// linearizability oracle caught in the runtime skip list: the source
  /// publishes the new owner in the directory before the target has
  /// processed the granting kMigBegin/kMigNode/kMigEnd stream (in the
  /// runtime, per-sender lanes let a direct request overtake that stream;
  /// the fault publishes at migration start to recreate the overtake under
  /// the sim's in-order delivery), so a direct request passes the broken
  /// gate and is answered from a list missing the in-flight nodes.
  /// MUST be flagged by the checker.
  kDirectoryBeforeGrant,
};

/// Who drives migrations in run_pim_skiplist_rebalance.
enum class RebalancePolicy : std::uint8_t {
  /// No migrations: the static partitions of Section 4.2 (run_pim_skiplist
  /// and the no-rebalance controls).
  kNone,
  /// Operator actor with workload-quantile knowledge splits the hot range
  /// at t = duration/3 (the historical scripted scenario).
  kOracle,
  /// core/auto_rebalancer's active mode: a policy actor feeds an
  /// obs::LoadMap window to core::RebalanceStep every policy_period_ns and
  /// drives kMigStart on its decisions (hysteresis and split-key rules in
  /// core/rebalance_step.hpp).
  kActiveLoadMap,
};

/// The skip-list workload of SkipListConfig with a Zipf-skewed default,
/// plus the migration settings.
struct RebalanceConfig : SkipListConfig {
  RebalanceConfig() {
    num_cpus = 16;
    duration_ns = 60'000'000;
    key_range = 1 << 16;
    initial_size = 1 << 15;
    zipf_theta = 0.99;
    trigger.min_window_ops = 200;
  }

  std::size_t partitions = 4;
  std::size_t migrate_chunk = 32;  ///< keys moved per migration step
  RebalanceFault fault = RebalanceFault::kNone;  ///< mutation testing only
  RebalancePolicy policy = RebalancePolicy::kOracle;
  /// Active-policy window length (virtual ns); also the sampling period of
  /// the per-window imbalance series in RebalanceResult::windows.
  Time policy_period_ns = 1'500'000;
  /// The active policy's gates (the runtime AutoRebalancer's options).
  core::RebalanceOptions trigger;
};

/// One sampled window of the per-vault load series (every policy_period_ns,
/// for every policy — also the basis of the imbalance assertions).
struct RebalanceWindow {
  Time t_end = 0;            ///< window end (virtual ns)
  std::uint64_t ops = 0;     ///< total requests served in the window
  std::size_t hottest = 0;   ///< vault with the largest window share
  double imbalance = 0.0;    ///< hottest / mean (0 for an empty window)
};

struct RebalanceResult {
  RunResult all;     ///< every op completed, over duration_ns
  RunResult before;  ///< ops completed in [0, duration/3)
  RunResult after;   ///< ops completed in [2*duration/3, duration)
  std::vector<std::uint64_t> final_requests_per_vault;
  std::uint64_t migrated_keys = 0;
  std::uint64_t rejections = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t deferred = 0;
  std::uint64_t migrations = 0;       ///< accepted kMigStart count
  std::uint64_t migrations_late = 0;  ///< ...of those, started in the last third
  std::vector<RebalanceWindow> windows;
  bool size_consistent = false;  ///< final size == successful adds - removes

  /// Peak windowed imbalance over windows ending in [from, to) with at
  /// least min_ops total ops (noise floor, mirrors telemetry_report.py).
  double peak_imbalance(Time from, Time to,
                        std::uint64_t min_ops = 1) const noexcept {
    double peak = 0.0;
    for (const RebalanceWindow& w : windows) {
      if (w.t_end >= from && w.t_end < to && w.ops >= min_ops &&
          w.imbalance > peak) {
        peak = w.imbalance;
      }
    }
    return peak;
  }
};

/// Section 4.2.1 at full scale: the PIM skip-list under a Zipf-skewed
/// workload, with the non-blocking node-migration protocol (source keeps
/// serving: not-yet-migrated keys locally, already-migrated keys by
/// forwarding; target defers racing direct requests until the hand-over
/// completes; CPUs re-route after rejection).
RebalanceResult run_pim_skiplist_rebalance(const RebalanceConfig& cfg);

}  // namespace pimds::sim
