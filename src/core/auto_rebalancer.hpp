// Automatic rebalancing policy thread for the PIM skip-list (Section 4.2.1
// left the trigger policy open: "we expect that rebalancing will not happen
// very frequently"). Once per period the thread takes the skip-list
// LoadMap's windowed HotVaultReport and asks the decision step
// (core/rebalance_step.hpp — the same step the simulator's active policy
// runs) whether to migrate:
//
//  - active (default): a decision drives the Section 4.2.1 migration
//    protocol via PimSkipList::migrate(split, coldest); an accepted one
//    starts its source's cooldown. The step holds the hysteresis (enter
//    threshold, per-vault cooldown, noise floor, one migration at a time);
//    this thread adds the EXIT side of the band: the system only counts as
//    settled again below `imbalance_exit` (the `rebalancer.settled` gauge).
//  - observe-only: same decisions, but LOG would-trigger lines
//    (`rebalancer.would_trigger` counter + stderr) without migrating —
//    the staging mode for trusting the policy before flipping it on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>

#include "core/pim_skiplist.hpp"
#include "core/rebalance_step.hpp"
#include "obs/loadmap.hpp"

namespace pimds::core {

class AutoRebalancer {
 public:
  struct Options {
    /// The decision step's gates: enter threshold, cooldown, noise floor,
    /// migration cap.
    RebalanceOptions trigger;
    /// The EXIT side: the system reports settled only once imbalance falls
    /// below this. Inside [exit, enter) nothing changes state — no flapping
    /// around a single threshold.
    double imbalance_exit = 1.5;
    std::chrono::milliseconds period{50};
    /// Decide from the LoadMap and log would-trigger lines, never migrate.
    bool observe_only = false;
    /// Print one stderr line per trigger / would-trigger decision.
    bool log_decisions = true;
  };

  AutoRebalancer(PimSkipList& list, Options options);
  explicit AutoRebalancer(PimSkipList& list);
  ~AutoRebalancer() { stop(); }

  AutoRebalancer(const AutoRebalancer&) = delete;
  AutoRebalancer& operator=(const AutoRebalancer&) = delete;

  /// Start the policy thread (idempotent).
  void start();
  /// Stop and join (idempotent; also called by the destructor).
  void stop();

  /// Migrations actually triggered (also `rebalancer.triggered` in the
  /// metrics registry; `rebalancer.migrated_keys` carries the key count).
  std::size_t migrations_triggered() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }

  /// Observe-only decisions so far (also `rebalancer.would_trigger` in the
  /// metrics registry, so the telemetry stream carries them per window).
  std::size_t would_trigger_count() const noexcept {
    return would_trigger_.load(std::memory_order_relaxed);
  }

  /// Last window's imbalance was below the EXIT threshold (hysteresis has
  /// re-armed; also the `rebalancer.settled` gauge).
  bool settled() const noexcept {
    return settled_.load(std::memory_order_relaxed);
  }

  /// Copy of the LoadMap report of the latest window the step judged
  /// (at least min_window_ops ops).
  obs::LoadMap::HotVaultReport last_report() const;

 private:
  void tick();
  void account_migrated_keys();

  PimSkipList& list_;
  Options options_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> migrations_{0};
  std::atomic<std::size_t> would_trigger_{0};
  std::atomic<bool> settled_{true};
  RebalanceStep<> step_;
  std::uint64_t last_migrated_keys_ = 0;
  mutable std::mutex report_mu_;
  obs::LoadMap::HotVaultReport last_report_;
  std::thread thread_;
  bool started_ = false;
};

}  // namespace pimds::core
