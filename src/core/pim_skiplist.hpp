// PIM-managed skip-list with partitioning and non-blocking node migration
// (Sections 4.2 and 4.2.1).
//
// The key space splits into one partition per vault initially; CPUs route
// each operation through the sentinel directory to the owning vault's PIM
// core. migrate() moves a suffix of a partition to another vault using the
// paper's protocol: the source keeps serving requests during the migration
// (keys not yet migrated are served locally, already-migrated keys are
// forwarded to the target), the directory is updated when the hand-over
// completes, and stale requests are rejected so the CPU re-routes. Each
// vault keeps its keys in a fat-node VaultIndex (core/vault_index.hpp)
// windowed over [key_min, key_max], so an operation's beta is the height of
// its key's window tree rather than a skip-list search.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/cacheline.hpp"
#include "core/sentinel_directory.hpp"
#include "core/vault_index.hpp"
#include "obs/loadmap.hpp"
#include "runtime/combiner.hpp"
#include "runtime/system.hpp"

namespace pimds::core {

class PimSkipList {
 public:
  struct Options {
    std::uint64_t key_min = 1;            ///< smallest usable key
    std::uint64_t key_max = 1u << 20;     ///< largest usable key
    std::size_t migrate_chunk = 32;       ///< nodes moved per migration step
  };

  /// Installs handlers on ALL vaults of `system`; construct before start().
  /// Partition i initially covers an equal share of [key_min, key_max].
  PimSkipList(runtime::PimSystem& system, Options options);
  explicit PimSkipList(runtime::PimSystem& system);

  PimSkipList(const PimSkipList&) = delete;
  PimSkipList& operator=(const PimSkipList&) = delete;

  bool add(std::uint64_t key);
  bool remove(std::uint64_t key);
  bool contains(std::uint64_t key);

  /// Section 4.2.1 rebalancing primitive: move every key in
  /// [split_key, end of split_key's partition) to `to_vault`, concurrently
  /// with ongoing operations. Returns false (without side effects) if
  /// another migration is still in flight, `to_vault` already owns the
  /// range, or `split_key` is out of bounds. Completion is asynchronous:
  /// poll migration_active().
  bool migrate(std::uint64_t split_key, std::size_t to_vault);
  bool migration_active() const noexcept {
    return migration_busy_.value.load(std::memory_order_acquire);
  }

  /// Racy per-vault statistics (request counts drive rebalancing policy).
  struct VaultStats {
    std::uint64_t keys = 0;
    std::uint64_t requests = 0;
  };
  std::vector<VaultStats> vault_stats() const;

  std::vector<SentinelDirectory::Entry> partitions() const {
    return directory_.snapshot();
  }

  /// Per-vault / per-key-range load accounting fed from the vault service
  /// path ("skiplist.vault<k>.ops" in the registry); report() answers
  /// hot-vault questions for the rebalancer's observe-only mode.
  obs::LoadMap& loadmap() noexcept { return loadmap_; }

  /// Cumulative keys handed over by migrations (one per kMigNode sent).
  /// The auto-rebalancer exports the windowed delta as
  /// `rebalancer.migrated_keys`.
  std::uint64_t migrated_keys() const noexcept {
    return migrated_keys_.value.load(std::memory_order_relaxed);
  }

  /// Contention-adaptive combining (keyed off the same LoadMap grid the
  /// rebalancer reads): ops whose key falls in a flagged range bucket are
  /// published to the owning vault's RequestCombiner and travel as one fat
  /// kOpBatch message; unflagged ranges keep the one-message-per-op direct
  /// path. The vault decodes each batch entry back into a plain op and runs
  /// it through the normal execute/forward/defer/reject gate, so migration
  /// semantics (and the CPU's reject-retry loop) are unchanged — a batch
  /// routed on a stale directory read simply gets its member ops rejected
  /// individually.
  void set_range_combining(std::size_t range_idx, bool on) noexcept {
    if (range_idx < loadmap_.options().num_ranges) {
      combine_range_[range_idx].store(on ? 1 : 0, std::memory_order_relaxed);
    }
  }
  bool range_combining(std::uint64_t key) const noexcept {
    return combine_range_[loadmap_.range_of(key)].load(
               std::memory_order_relaxed) != 0;
  }
  std::size_t combining_ranges() const noexcept {
    std::size_t n = 0;
    for (std::size_t i = 0; i < loadmap_.options().num_ranges; ++i) {
      n += combine_range_[i].load(std::memory_order_relaxed) != 0;
    }
    return n;
  }
  /// Fat batches shipped / ops carried by them, summed over vault combiners.
  std::uint64_t combined_batches() const noexcept;
  std::uint64_t combined_ops() const noexcept;

  std::size_t size() const noexcept;

  const Options& options() const noexcept { return options_; }

 private:
  enum Kind : std::uint32_t {
    kAdd = 1,
    kRemove = 2,
    kContains = 3,
    kMigStart = 4,  ///< CPU -> source: begin migration (key=split, value=hi)
    kMigBegin = 5,  ///< source -> target: incoming range announcement
    kMigNode = 6,   ///< source -> target: one migrated key
    kMigEnd = 7,    ///< source -> target: hand-over complete
    kFwdAdd = 8,    ///< source -> target: forwarded operations
    kFwdRemove = 9,
    kFwdContains = 10,
    kOpBatch = 11,  ///< CPU -> vault: combined fat batch of direct ops
  };

  struct OpReply {
    bool accepted = false;
    bool result = false;
  };

  struct Migration {
    bool active = false;
    bool outgoing = false;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::size_t peer = 0;
    std::uint64_t cursor = 0;  ///< next key to migrate (ascending)
  };

  struct VaultState {
    std::unique_ptr<VaultIndex> list;
    Migration mig;
    /// Target-side fingers: kMigNode keys arrive ascending, so inserts are
    /// amortized O(1) (dual of the source's amortized extraction).
    VaultIndex::InsertCursor incoming_cursor;
    /// Direct requests for an incoming range, deferred until kMigEnd so
    /// they cannot overtake in-flight kMigNode messages.
    std::deque<runtime::Message> deferred;
    /// This core's OWN view of the ranges it serves (lo -> hi, exclusive),
    /// advanced only by events this core has already processed: its own
    /// hand-over completion removes a range, processing kMigEnd adds one.
    /// The execute/reject decision must consult this view and never the
    /// shared directory: the source updates the directory before the target
    /// has processed the granting kMigBegin/kMigNode/kMigEnd stream, so a
    /// request already queued ahead of that stream would pass a directory
    /// check and be answered from a list missing the in-flight nodes.
    std::map<std::uint64_t, std::uint64_t> owned;
    CachePadded<std::atomic<std::uint64_t>> requests{0};
    CachePadded<std::atomic<std::uint64_t>> keys{0};
  };

  void handle(runtime::PimCoreApi& api, const runtime::Message& m);
  void handle_op(runtime::PimCoreApi& api, const runtime::Message& m,
                 bool forwarded);
  void execute_and_reply(runtime::PimCoreApi& api, const runtime::Message& m);
  /// Move up to migrate_chunk nodes; finishes the migration when drained.
  bool step_migration(runtime::PimCoreApi& api);
  bool submit(Kind kind, std::uint64_t key);
  static bool owns_locally(const VaultState& vs, std::uint64_t key);
  static Kind forward_kind(std::uint32_t op) {
    return static_cast<Kind>(op + 7);  // kAdd->kFwdAdd etc.
  }

  runtime::PimSystem& system_;
  Options options_;
  SentinelDirectory directory_;
  obs::LoadMap loadmap_;
  std::vector<std::unique_ptr<VaultState>> vaults_;
  /// One combiner per destination vault (combining is per crossbar link).
  std::vector<std::unique_ptr<runtime::RequestCombiner>> combiners_;
  /// LoadMap range grid -> combine flag; written by the rebalancer thread,
  /// read on every submit().
  std::unique_ptr<std::atomic<std::uint8_t>[]> combine_range_;
  CachePadded<std::atomic<std::uint64_t>> migrated_keys_{0};
  CachePadded<std::atomic<bool>> migration_busy_{false};
};

}  // namespace pimds::core
