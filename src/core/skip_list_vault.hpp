// Section 4.2.1's vault side, written once for both substrates (DESIGN
// §5k). A migration moves the suffix [lo, hi) of one core's key range to
// another core without blocking either:
//  - the source serves the keys it has not moved yet (key >= cursor) and
//    forwards moved ones on the channel that carried their kMigNode, so
//    per-channel FIFO delivers the node first;
//  - the target defers direct requests for the range until kMigEnd, so
//    none overtakes an in-flight node;
//  - the source publishes the new owner in the CPU-visible directory after
//    its last node, then sends kMigEnd. A request routed on the old layout
//    is rejected and the CPU re-routes it.
// The execute/reject gate reads this core's own owned-ranges map, never
// the shared directory: the directory names the target before the target
// has processed the granting stream, so a directory check would answer a
// request queued ahead of that stream from an index missing the in-flight
// nodes (the race the linearizability oracle caught under TSan). A
// rejected request re-enters the mailbox behind the grant.
//
// The runtime skip list (core::PimSkipList, over VaultIndex) and the
// simulator (sim::run_pim_skiplist_rebalance, over the one-key
// core::SkipList) each decode their messages into the calls below and pass
// a vault context (a member-function template parameter): self(),
// send(vault, SkipListSignal), charge(n local accesses), reply(requester,
// SkipListReply), record(key) (the load map), publish_range(lo, vault)
// (the directory) and migration_done() (the one-migration guard). The
// index takes DESIGN §5j's hop-cost hook: execute(op, key, charge),
// first_at_least(key), extract_first_at_least(key, charge) and
// insert_ascending(cursor, key, charge).
//
// An op counts (requests, load map) when it executes, so it counts once
// however often it was deferred, forwarded or rejected. `Fault` is the
// mutation-testing hook (sim::RebalanceFault); the default
// NoMigrationFault has no state and folds away.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/cacheline.hpp"
#include "core/sentinel_directory.hpp"
#include "core/set_op.hpp"

namespace pimds::core {

/// accepted = false: this core does not own the key; re-route and resend.
struct SkipListReply {
  bool accepted = false;
  bool result = false;
};

/// Core-to-core messages of Section 4.2.1.
template <typename Requester>
struct SkipListSignal {
  enum class Kind : std::uint8_t {
    kForward,   ///< an op on a key the source has handed over
    kMigBegin,  ///< incoming range [key, hi)
    kMigNode,   ///< one migrated key
    kMigEnd,    ///< hand-over complete
  };
  Kind kind = Kind::kMigEnd;
  SetOp op = SetOp::kContains;  ///< kForward
  std::uint64_t key = 0;  ///< the op's key, the range's lo, or the node's key
  std::uint64_t hi = 0;   ///< kMigBegin
  Requester requester{};  ///< kForward
};

/// No mutation. A fault returns true to: serve a key the source has
/// handed over; answer a direct request for an incoming range at once;
/// execute a request the directory routes to `self`, whatever this core
/// owns; publish the new owner at kMigStart instead of at hand-over.
struct NoMigrationFault {
  static constexpr bool serve_moved() noexcept { return false; }
  static constexpr bool serve_incoming() noexcept { return false; }
  static constexpr bool directory_grants(std::size_t, std::uint64_t) {
    return false;
  }
  static constexpr bool publish_at_start() noexcept { return false; }
};

/// Per-vault counters: written only by the owning vault, readable (racily)
/// from any thread.
struct SkipListVaultStats {
  std::atomic<std::uint64_t> requests{0};  ///< ops executed here
  std::atomic<std::uint64_t> keys{0};      ///< keys held
  std::atomic<std::uint64_t> migrated_keys{0};  ///< kMigNode sent
  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> deferred{0};
  std::atomic<std::uint64_t> rejected{0};
};

template <typename Index, typename Requester,
          typename Fault = NoMigrationFault>
class alignas(kCacheLineSize) SkipListVault {
 public:
  using Signal = SkipListSignal<Requester>;

  /// `index_args` construct the vault's index.
  template <typename... IndexArgs>
  SkipListVault(std::size_t migrate_chunk, Fault fault,
                IndexArgs&&... index_args)
      : index_(std::forward<IndexArgs>(index_args)...),
        fault_(fault),
        migrate_chunk_(migrate_chunk) {}

  SkipListVault(const SkipListVault&) = delete;
  SkipListVault& operator=(const SkipListVault&) = delete;

  /// Seed every vault's owned ranges from the directory's initial layout,
  /// before service starts. `at(v)` is vault v's handler.
  template <typename At>
  static void assign_initial(const SentinelDirectory& directory, At&& at) {
    const auto entries = directory.snapshot();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const std::uint64_t hi = i + 1 < entries.size() ? entries[i + 1].sentinel
                                                      : ~std::uint64_t{0};
      at(entries[i].vault).owned_.emplace(entries[i].sentinel, hi);
    }
  }

  Index& index() noexcept { return index_; }
  const SkipListVaultStats& stats() const noexcept { return stats_; }
  bool migrating_out() const noexcept { return mig_.active && mig_.outgoing; }

  /// A direct request from a CPU: execute, forward, defer or reject.
  template <typename Ctx>
  void request(Ctx& ctx, SetOp op, std::uint64_t key, Requester requester) {
    const Request r{op, key, requester};
    if (fault_.directory_grants(ctx.self(), key)) {
      execute(ctx, r);
    } else if (mig_.active && key >= mig_.lo && key < mig_.hi) {
      if (mig_.outgoing) {
        if (key >= mig_.cursor || fault_.serve_moved()) {
          execute(ctx, r);  // not moved yet: still ours
        } else {
          ctx.send(mig_.peer, Signal{Signal::Kind::kForward, op, key, 0,
                                     requester});
          add(stats_.forwarded, 1);
        }
      } else if (fault_.serve_incoming()) {
        execute(ctx, r);
      } else {
        deferred_.push_back(r);
        add(stats_.deferred, 1);
      }
    } else if (owns(key)) {
      execute(ctx, r);
    } else {
      ctx.reply(requester, SkipListReply{false, false});
      add(stats_.rejected, 1);
    }
  }

  /// kMigStart from a CPU: hand [lo, hi) to vault `peer`. Rejected while
  /// this core migrates or if it does not own `lo` (defensive: the
  /// migration guard is released only after the previous grant).
  template <typename Ctx>
  void start_migration(Ctx& ctx, std::uint64_t lo, std::uint64_t hi,
                       std::size_t peer, Requester requester) {
    if (mig_.active || !owns(lo)) {
      ctx.reply(requester, SkipListReply{false, false});
      return;
    }
    mig_ = Migration{true, /*outgoing=*/true, lo, hi, peer, lo};
    if (fault_.publish_at_start()) ctx.publish_range(lo, peer);
    ctx.send(peer, Signal{Signal::Kind::kMigBegin, SetOp::kContains, lo, hi});
    ctx.reply(requester, SkipListReply{true, true});
  }

  /// A core-to-core message from vault `from`.
  template <typename Ctx>
  void receive(Ctx& ctx, std::size_t from, const Signal& s) {
    switch (s.kind) {
      case Signal::Kind::kForward:
        // The source forwards only keys it has handed over, and the
        // kMigNode carrying each arrived first on the same channel.
        execute(ctx, Request{s.op, s.key, s.requester});
        break;
      case Signal::Kind::kMigBegin:
        assert(!mig_.active);
        mig_ = Migration{true, /*outgoing=*/false, s.key, s.hi, from, s.key};
        cursor_ = typename Index::InsertCursor{};
        break;
      case Signal::Kind::kMigNode: {
        [[maybe_unused]] const bool inserted =
            index_.insert_ascending(cursor_, s.key, charger(ctx));
        assert(inserted && "migrated key already present at target");
        add(stats_.keys, 1);
        break;
      }
      case Signal::Kind::kMigEnd:
        assert(mig_.active && !mig_.outgoing);
        owned_.emplace(mig_.lo, mig_.hi);  // the grant takes effect
        mig_.active = false;
        for (const Request& r : deferred_) execute(ctx, r);
        deferred_.clear();
        ctx.migration_done();
        break;
    }
  }

  /// Move up to migrate_chunk keys of an outgoing migration, or hand over
  /// once none is left in [lo, hi). False if there is no outgoing
  /// migration.
  template <typename Ctx>
  bool step_migration(Ctx& ctx) {
    if (!migrating_out()) return false;
    for (std::size_t moved = 0; moved < migrate_chunk_; ++moved) {
      const std::optional<std::uint64_t> key =
          index_.first_at_least(mig_.cursor);
      if (!key.has_value() || *key >= mig_.hi) {
        hand_over(ctx);
        return true;
      }
      index_.extract_first_at_least(mig_.cursor, charger(ctx));
      add(stats_.keys, ~std::uint64_t{0});  // minus one
      add(stats_.migrated_keys, 1);
      ctx.send(mig_.peer,
               Signal{Signal::Kind::kMigNode, SetOp::kContains, *key});
      mig_.cursor = *key + 1;
    }
    return true;
  }

 private:
  struct Request {
    SetOp op;
    std::uint64_t key;
    Requester requester;
  };

  struct Migration {
    bool active = false;
    bool outgoing = false;
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    std::size_t peer = 0;
    std::uint64_t cursor = 0;  ///< next key to move (ascending)
  };

  template <typename Ctx>
  static auto charger(Ctx& ctx) {
    return [&ctx](std::uint64_t n) { ctx.charge(n); };
  }

  template <typename Ctx>
  void execute(Ctx& ctx, const Request& r) {
    add(stats_.requests, 1);
    ctx.record(r.key);
    const bool result = index_.execute(r.op, r.key, charger(ctx));
    if (result && r.op == SetOp::kAdd) add(stats_.keys, 1);
    if (result && r.op == SetOp::kRemove) add(stats_.keys, ~std::uint64_t{0});
    ctx.reply(r.requester, SkipListReply{true, result});
  }

  /// Every key of [lo, hi) is sent: drop the range from this core's own
  /// view, redirect the CPUs (the paper notifies them before telling the
  /// target), then tell the target, whose kMigEnd grants the range,
  /// releases its deferred requests and the migration guard.
  template <typename Ctx>
  void hand_over(Ctx& ctx) {
    auto it = std::prev(owned_.upper_bound(mig_.lo));
    assert(it->first <= mig_.lo && mig_.hi <= it->second);
    const std::uint64_t old_hi = it->second;
    if (it->first == mig_.lo) {
      owned_.erase(it);
    } else {
      it->second = mig_.lo;
    }
    if (mig_.hi < old_hi) owned_.emplace(mig_.hi, old_hi);
    ctx.publish_range(mig_.lo, mig_.peer);
    mig_.active = false;
    ctx.send(mig_.peer,
             Signal{Signal::Kind::kMigEnd, SetOp::kContains, mig_.lo});
  }

  bool owns(std::uint64_t key) const {
    auto it = owned_.upper_bound(key);
    if (it == owned_.begin()) return false;
    return key < std::prev(it)->second;
  }

  /// Single-writer increment (wrapping): no read-modify-write needed.
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  Index index_;
  [[no_unique_address]] Fault fault_;
  std::size_t migrate_chunk_;
  Migration mig_;
  /// Target side: kMigNode keys arrive ascending, so each insert is
  /// amortized O(1) (the dual of the source's extraction sweep).
  typename Index::InsertCursor cursor_;
  /// Direct requests for an incoming range, held until kMigEnd.
  std::vector<Request> deferred_;
  /// This core's own view of the ranges it serves (lo -> hi, exclusive).
  std::map<std::uint64_t, std::uint64_t> owned_;
  SkipListVaultStats stats_;
};

}  // namespace pimds::core
