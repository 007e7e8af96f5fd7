// The rebalancing policy's decision, written once for both substrates
// (DESIGN §5l). Section 4.2.1 gives the migration protocol but leaves the
// trigger open ("we expect that rebalancing will not happen very
// frequently"); this step answers it from one LoadMap window. The runtime
// AutoRebalancer's thread and the simulator's active policy actor each take
// a HotVaultReport once per period and call decide(); the caller drives the
// migration and reports an accepted one back through migrated().
//
// The gates, in order; any miss is a no-op for the window:
//  - every vault's cooldown ticks down once per window;
//  - the noise floor: a window with fewer than `min_window_ops` ops is not
//    judged;
//  - a hottest vault distinct from the coldest, at >= `imbalance_enter` x
//    the mean (the ENTER side of the hysteresis band);
//  - the hottest vault is not cooling down: for `cooldown_periods` windows
//    after it sourced a migration its windows still mix pre-migration
//    traffic, and re-triggering on them is how a rebalancer thrashes;
//  - no migration in flight (the Section 4.2.1 one-at-a-time guard, polled,
//    never queued against);
//  - a split key (suggest_split) that leaves a non-empty prefix of its
//    partition on the hot vault: moving a whole partition relocates the hot
//    spot instead of dividing it.
// A decision is "migrate [split, end of its partition) from the hottest
// vault to the coldest".
//
// `Fault` is the mutation-testing hook (sim::RebalanceFault's kThrash and
// kSplitOffByOne); the default NoPolicyFault has no state and folds away.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/sentinel_directory.hpp"
#include "obs/loadmap.hpp"

namespace pimds::core {

/// The decision's gates (see the file comment).
struct RebalanceOptions {
  /// Trigger when the hottest vault served at least this many times the
  /// mean over a window.
  double imbalance_enter = 2.0;
  /// Windows a vault is barred as a migration source after sourcing one.
  std::size_t cooldown_periods = 2;
  /// Windows with fewer total ops are noise, never judged.
  std::uint64_t min_window_ops = 100;
};

/// Migrate [split, end of split's partition) from `source` to `target`.
struct RebalanceMove {
  std::uint64_t split = 0;
  std::size_t source = 0;
  std::size_t target = 0;
};

struct NoPolicyFault {
  /// kThrash: skip the enter threshold and the cooldown.
  static constexpr bool ignore_hysteresis() noexcept { return false; }
  /// kSplitOffByOne: split AT the dominant key, not at its successor, so
  /// the hot key rides along with the migrated suffix.
  static constexpr bool split_at_hot_key() noexcept { return false; }
};

template <typename Fault = NoPolicyFault>
class RebalanceStep {
 public:
  using Report = obs::LoadMap::HotVaultReport;

  explicit RebalanceStep(RebalanceOptions options, Fault fault = {})
      : options_(options), fault_(fault) {}

  /// One window. `dir` is the live layout, `key_max` the largest key (the
  /// last partition ends at key_max + 1), `migration_busy` the guard.
  std::optional<RebalanceMove> decide(const Report& rep,
                                      const SentinelDirectory& dir,
                                      std::uint64_t key_max,
                                      bool migration_busy) {
    if (cooldown_.size() != rep.per_vault_ops.size()) {
      cooldown_.assign(rep.per_vault_ops.size(), 0);
    }
    for (auto& c : cooldown_) {
      if (c > 0) --c;
    }
    if (rep.window_ops < options_.min_window_ops) return std::nullopt;
    if (rep.hottest == rep.coldest) return std::nullopt;
    if (!fault_.ignore_hysteresis() &&
        (rep.imbalance_ratio < options_.imbalance_enter ||
         cooldown_[rep.hottest] > 0)) {
      return std::nullopt;
    }
    if (migration_busy) return std::nullopt;
    const auto split = suggest_split(rep, rep.hottest, dir, key_max, fault_);
    if (!split) return std::nullopt;
    return RebalanceMove{*split, rep.hottest, rep.coldest};
  }

  /// The caller's migration for `move` was accepted: count it and cool its
  /// source down.
  void migrated(const RebalanceMove& move) {
    ++migrations_;
    cooldown_[move.source] = options_.cooldown_periods;
  }

  std::size_t migrations() const noexcept { return migrations_; }

  /// Split key for vault `hot`, or none if nothing it owns is splittable.
  /// Preference order:
  ///  1. the SUCCESSOR of the hot vault's top sketch key, when that key
  ///     holds at least half the sketch's mass and lies in a partition the
  ///     hot vault owns: a midpoint split would either leave the hot key
  ///     where it is or relocate the whole hot spot, while splitting just
  ///     above it isolates the key and sheds the rest of the partition;
  ///  2. the midpoint of the hottest window range whose midpoint the hot
  ///     vault owns, above its partition's sentinel;
  ///  3. the midpoint of the hot vault's widest partition (width >= 2).
  static std::optional<std::uint64_t> suggest_split(
      const Report& rep, std::size_t hot, const SentinelDirectory& dir,
      std::uint64_t key_max, const Fault& fault = {}) {
    if (!rep.hot_keys.empty()) {
      std::uint64_t mass = 0;
      for (const auto& k : rep.hot_keys) mass += k.count;
      const obs::LoadMap::KeyLoad& top = rep.hot_keys[0];
      const SentinelDirectory::Range p = dir.partition_of(top.key);
      const std::uint64_t split =
          fault.split_at_hot_key() ? top.key : top.key + 1;
      if (mass > 0 && top.count * 2 >= mass && p.vault == hot &&
          split < p.hi && split <= key_max) {
        return split;
      }
    }
    for (const auto& r : rep.hot_ranges) {
      const std::uint64_t mid = r.lo + (r.hi - r.lo) / 2;
      const SentinelDirectory::Range p = dir.partition_of(mid);
      if (p.vault == hot && mid > p.lo) return mid;
    }
    const std::vector<SentinelDirectory::Entry> layout = dir.snapshot();
    std::uint64_t best_lo = 0;
    std::uint64_t best_hi = 0;
    for (std::size_t i = 0; i < layout.size(); ++i) {
      if (layout[i].vault != hot) continue;
      const std::uint64_t lo = layout[i].sentinel;
      const std::uint64_t hi =
          i + 1 < layout.size() ? layout[i + 1].sentinel : key_max + 1;
      if (hi - lo > best_hi - best_lo) {
        best_lo = lo;
        best_hi = hi;
      }
    }
    if (best_hi - best_lo < 2) return std::nullopt;
    return best_lo + (best_hi - best_lo) / 2;
  }

 private:
  RebalanceOptions options_;
  Fault fault_;
  std::vector<std::size_t> cooldown_;  ///< per vault, windows remaining
  std::size_t migrations_ = 0;
};

}  // namespace pimds::core
