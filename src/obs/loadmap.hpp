// Per-vault / per-key-range load accounting + heavy-hitter sketch: the
// input of the rebalancing policy (core/rebalance_step.hpp, run by the
// runtime's AutoRebalancer and the simulator's active policy), also
// exported through the metrics registry / telemetry JSONL.
//
// Hot path (`record(vault, key)`, called on the vault service path):
//  - one relaxed fetch_add on the vault's op Counter (registered with the
//    Registry as "<prefix>.vault<k>.ops", so the telemetry sampler exports
//    per-vault load without extra plumbing) — telemetry only, so it counts
//    only while metrics_enabled(),
//  - one relaxed fetch_add on the key-range bucket covering `key`
//    (fixed equal-width grid over [key_min, key_max]),
//  - a SpaceSaving-style top-k sketch update for the owning vault.
// The range cells and the sketch are the policy's input, so they count
// whether or not metrics are on. Allocation-free.
//
// Concurrency contract: each vault's slots are written by that vault's
// single service thread (the runtime gives every vault one core thread),
// so the sketch needs no CAS loops; all cells are relaxed atomics so
// concurrent readers (the report path, the telemetry sampler via the
// registry) are TSan-clean. Racy reads may see a sketch entry mid-replace;
// heavy-hitter counts are approximate by construction, so that is fine.
//
// report() answers windowed questions — it diffs the range cells against
// their counts at the previous report() call (cold-path mutex) and returns
// a HotVaultReport: per-vault window ops (the sum of the vault's range
// cells), hottest/coldest vault, imbalance ratio (hottest / mean), every
// range the window touched and the hottest vault's hot keys.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "obs/metrics.hpp"

namespace pimds::obs {

class LoadMap {
 public:
  struct Options {
    std::size_t num_vaults = 1;
    std::uint64_t key_min = 0;
    std::uint64_t key_max = ~std::uint64_t{0};
    /// Fixed key-range buckets across [key_min, key_max].
    std::size_t num_ranges = 64;
    /// Registry prefix for the per-vault op counters ("<prefix>.vault<k>.ops");
    /// empty disables registration (pure in-memory use, e.g. unit tests).
    std::string registry_prefix = "loadmap";
  };

  /// SpaceSaving slots per vault (top hot keys tracked).
  static constexpr std::size_t kSketchEntries = 8;

  struct RangeLoad {
    std::uint64_t lo = 0;  // inclusive
    std::uint64_t hi = 0;  // inclusive
    std::uint64_t ops = 0;
  };

  struct KeyLoad {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  // approximate (SpaceSaving over-estimate)
  };

  struct HotVaultReport {
    std::uint64_t window_ops = 0;
    std::size_t hottest = 0;
    std::size_t coldest = 0;
    std::uint64_t hottest_ops = 0;
    std::uint64_t coldest_ops = 0;
    double mean_ops = 0.0;
    /// hottest / mean; 0 when the window saw no traffic.
    double imbalance_ratio = 0.0;
    std::vector<std::uint64_t> per_vault_ops;
    /// Every range with window ops, hottest first (ties: lower keys first).
    std::vector<RangeLoad> hot_ranges;
    /// The hottest vault's sketch (cumulative), hottest first (ties: slot
    /// order); its counts sum to every op that vault ever recorded.
    std::vector<KeyLoad> hot_keys;
    std::string summary() const;        // one human-readable line
  };

  explicit LoadMap(Options opts);

  LoadMap(const LoadMap&) = delete;
  LoadMap& operator=(const LoadMap&) = delete;

  /// Hot path; `vault` out of range is clamped, any key accepted.
  void record(std::size_t vault, std::uint64_t key) noexcept {
    if (vault >= opts_.num_vaults) vault = opts_.num_vaults - 1;
    Shard& s = *shards_[vault];
    s.ops.add(1);  // telemetry only: Counter::add checks metrics_enabled()
    ranges_[vault * opts_.num_ranges + range_of(key)].value.fetch_add(
        1, std::memory_order_relaxed);
    sketch_update(s, key);
  }

  /// Windowed report relative to the previous report() call (cold path).
  HotVaultReport report();

  /// Cumulative ops for one vault (the counter telemetry exports; it stays
  /// at zero while metrics are off).
  std::uint64_t vault_ops(std::size_t vault) const noexcept {
    return vault < opts_.num_vaults ? shards_[vault]->ops.value() : 0;
  }

  const Options& options() const noexcept { return opts_; }

  /// Bucket of `key` on the fixed range grid (public for tests). Exact
  /// 128-bit arithmetic so range_lo/range_hi tile the key space with no
  /// boundary drift: range_of(k) == b  iff  range_lo(b) <= k <= range_hi(b).
  std::size_t range_of(std::uint64_t key) const noexcept {
    if (key <= opts_.key_min) return 0;
    if (key >= opts_.key_max) return opts_.num_ranges - 1;
    const unsigned __int128 off = key - opts_.key_min;
    const unsigned __int128 slots =
        static_cast<unsigned __int128>(opts_.key_max - opts_.key_min) + 1;
    return static_cast<std::size_t>(off * opts_.num_ranges / slots);
  }

  /// Inclusive bounds of range bucket `idx`.
  std::uint64_t range_lo(std::size_t idx) const noexcept;
  std::uint64_t range_hi(std::size_t idx) const noexcept;

 private:
  struct SketchEntry {
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> count{0};
  };

  /// Per-vault state: op counter + single-writer SpaceSaving slots.
  /// Heap-allocated (unique_ptr) so vector storage never moves shards.
  struct Shard {
    Counter ops;
    std::array<SketchEntry, kSketchEntries> sketch;
  };

  void sketch_update(Shard& s, std::uint64_t key) noexcept;

  Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<CachePadded<std::atomic<std::uint64_t>>[]> ranges_;
  std::vector<Registry::Handle> reg_handles_;

  std::mutex report_mu_;
  std::vector<std::uint64_t> last_range_ops_;
};

}  // namespace pimds::obs
