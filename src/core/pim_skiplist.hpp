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
// core runs that protocol through the shared core::SkipListVault
// (core/skip_list_vault.hpp); this class is the CPU side and the runtime's
// message decoding. Each vault keeps its keys in a fat-node VaultIndex
// (core/vault_index.hpp) windowed over [key_min, key_max], so an
// operation's beta is the height of its key's window tree rather than a
// skip-list search.
//
// Every op has one request path: it rides the owning vault's
// RequestCombiner (Section 4.1's combining) and travels in a fat kOpBatch
// message, alone or beside co-located ops. The vault runs each entry
// through SkipListVault's execute/forward/defer/reject gate on its own, so
// an entry routed on a stale directory read is rejected and re-routed by
// itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/cacheline.hpp"
#include "core/sentinel_directory.hpp"
#include "core/skip_list_vault.hpp"
#include "core/vault_index.hpp"
#include "obs/loadmap.hpp"
#include "runtime/combiner.hpp"
#include "runtime/system.hpp"

namespace pimds::core {

class PimSkipList {
 public:
  struct Options {
    std::uint64_t key_min = 1;            ///< smallest usable key
    /// Largest usable key. Each vault's index stores keys as 32-bit
    /// offsets into 4,096 windows, so key_max - key_min must stay below
    /// VaultIndex::kMaxKeySpan (2^44); the constructor throws
    /// std::invalid_argument otherwise.
    std::uint64_t key_max = 1u << 20;
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
    std::uint64_t requests = 0;  ///< ops executed: each op counts once
  };
  std::vector<VaultStats> vault_stats() const;

  std::vector<SentinelDirectory::Entry> partitions() const {
    return directory_.snapshot();
  }
  const SentinelDirectory& directory() const noexcept { return directory_; }

  /// Per-vault / per-key-range load accounting fed from the vault service
  /// path ("skiplist.vault<k>.ops" in the registry); report() answers
  /// hot-vault questions for the rebalancer's observe-only mode.
  obs::LoadMap& loadmap() noexcept { return loadmap_; }

  /// Cumulative keys handed over by migrations (one per kMigNode sent).
  /// The auto-rebalancer exports the windowed delta as
  /// `rebalancer.migrated_keys`.
  std::uint64_t migrated_keys() const noexcept;

  /// Fat batches shipped / ops carried by them (every op, retries
  /// included), summed over vault combiners.
  std::uint64_t combined_batches() const noexcept;
  std::uint64_t combined_ops() const noexcept;

  std::size_t size() const noexcept;

  const Options& options() const noexcept { return options_; }

 private:
  enum Kind : std::uint32_t {
    kOpBatch = 1,   ///< CPU -> vault: combined fat batch of ops
    kMigStart = 2,  ///< CPU -> source: key = split, value = hi, sender = to
    kSignal = 3,    ///< vault -> vault: kSignal + SkipListSignal::Kind
  };

  using Requester = runtime::ResponseSlot<SkipListReply>*;
  using Vault = SkipListVault<VaultIndex, Requester>;
  struct VaultCtx;

  void handle(VaultCtx& ctx, const runtime::Message& m);
  bool submit(SetOp op, std::uint64_t key);

  runtime::PimSystem& system_;
  Options options_;
  SentinelDirectory directory_;
  obs::LoadMap loadmap_;
  std::vector<std::unique_ptr<Vault>> vaults_;
  /// One combiner per destination vault (combining is per crossbar link).
  std::vector<std::unique_ptr<runtime::RequestCombiner>> combiners_;
  CachePadded<std::atomic<bool>> migration_busy_{false};
};

}  // namespace pimds::core
