// The sequential skip list of Section 4.2, once for every user: the
// simulated lock-free, flat-combining and PIM skip lists (including the
// Section 4.2.1 migration experiment) and the FC baseline
// (baselines::FcSkipList).
//
// One key per node with geometric tower heights, so the per-operation
// access count beta = Theta(log N) emerges from the structure rather than
// being assumed. The structure is plain (non-atomic): each user runs it from
// one thread at a time. Every charged operation takes a hop-cost hook
// `charge(n)` bound to the caller's latency class (Lcpu for a CPU-side
// traversal, Lpim for a PIM core). The charge rules:
//  - a search pays one access per level it reads plus one per node hop,
//    starting at the highest populated level (a real skip list keeps its
//    height in the head), in ONE charge call;
//  - extract_first_at_least pays a flat 2 (see there);
//  - insert_ascending pays its finger steps plus the tower links.
// Tower heights come from the RNG the caller passes: a fair coin per level,
// capped at kMaxHeight. Nodes live on the heap.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/set_op.hpp"

namespace pimds::core {

class SkipList {
 private:
  struct Node;

 public:
  static constexpr int kMaxHeight = 24;

  /// @param sentinel_key  key of the always-present max-height head;
  ///        partitioned deployments (Figure 3) give each partition a
  ///        sentinel at the lower bound of its key range. Operation keys
  ///        must exceed it.
  explicit SkipList(std::uint64_t sentinel_key = 0);
  ~SkipList();

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Insert distinct uniform keys from [lo, hi] until `target_size` nodes
  /// (setup phase: nothing charged).
  void populate(Xoshiro256& rng, std::size_t target_size, std::uint64_t lo,
                std::uint64_t hi);

  /// Setup-phase single insert (nothing charged). Returns false if the key
  /// was already present.
  bool insert_for_setup(Xoshiro256& rng, std::uint64_t key);

  /// One set operation; the search is charged as one `charge(steps)` call.
  template <typename Charge>
  bool execute(SetOp op, std::uint64_t key, Xoshiro256& rng,
               Charge&& charge) {
    std::uint64_t steps = 0;
    const bool result = apply(op, key, rng, steps);
    charge(steps);
    return result;
  }

  /// Smallest key >= `key`, if any (migration cursor scans; nothing
  /// charged — the caller charges the removal that follows).
  std::optional<std::uint64_t> first_at_least(std::uint64_t key) const;

  /// Unlink and return the smallest key >= `key` (nullopt if none). Charges
  /// 2 accesses: a range migration sweeps the bottom level in ascending
  /// order while carrying per-level predecessor fingers, so tower
  /// unlinking amortizes to O(1) accesses per extracted node — unlike an
  /// independent remove, which would pay a full beta-step search per key.
  template <typename Charge>
  std::optional<std::uint64_t> extract_first_at_least(std::uint64_t key,
                                                      Charge&& charge) {
    const std::optional<std::uint64_t> out = unlink_first_at_least(key);
    if (out.has_value()) charge(2);
    return out;
  }

  /// Finger cursor for ascending bulk inserts (the migration target's dual
  /// of extract_first_at_least: migrated keys arrive in ascending order, so
  /// per-level predecessor fingers make each insert amortized O(1) instead
  /// of a full beta-step search). The cursor self-invalidates when any
  /// other operation mutates the list (e.g. a forwarded op landing mid-
  /// migration), falling back to one full search to re-seed the fingers.
  class InsertCursor {
   public:
    InsertCursor() = default;

   private:
    friend class SkipList;
    Node* preds[kMaxHeight] = {};
    std::uint64_t epoch = 0;
    bool valid = false;
  };

  /// Insert `key`, which must be >= every key previously inserted through
  /// `cursor`. Returns false if already present.
  template <typename Charge>
  bool insert_ascending(InsertCursor& cursor, std::uint64_t key,
                        Xoshiro256& rng, Charge&& charge) {
    std::uint64_t steps = 0;
    const bool inserted = link_ascending(cursor, key, rng, steps);
    charge(steps);
    return inserted;
  }

  std::size_t size() const noexcept { return size_; }

  /// Keys in ascending order.
  std::vector<std::uint64_t> keys() const;

 private:
  struct Node {
    std::uint64_t key;
    int height;
    Node** next;  ///< `height` links, stored right after the node
  };

  static Node* make_node(std::uint64_t key, int height);
  static void free_node(Node* node) noexcept;
  static int random_height(Xoshiro256& rng);

  /// Search from the head, filling `preds` with each level's last node
  /// with key < `key`. Returns the steps a charged search pays.
  std::uint64_t search(std::uint64_t key, Node** preds) const;
  /// Link a new node for `key` after `preds`; returns its height.
  int link(std::uint64_t key, Node** preds, Xoshiro256& rng);
  /// Unlink `victim` from every level where `preds` points at it.
  void unlink(Node* victim, Node** preds);

  bool apply(SetOp op, std::uint64_t key, Xoshiro256& rng,
             std::uint64_t& steps);
  std::optional<std::uint64_t> unlink_first_at_least(std::uint64_t key);
  bool link_ascending(InsertCursor& cursor, std::uint64_t key,
                      Xoshiro256& rng, std::uint64_t& steps);

  Node* head_;
  std::size_t size_ = 0;
  /// Bumped by every structural mutation outside insert_ascending, so a
  /// live InsertCursor knows its fingers may dangle.
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace pimds::core
