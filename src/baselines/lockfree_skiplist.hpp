// Lock-free skip-list (Herlihy & Shavit, "The Art of Multiprocessor
// Programming" — the paper's citation [27]), with epoch-based reclamation
// of unlinked nodes (common/ebr.hpp).
//
// Deleted nodes are marked (low tag bit on each forward pointer) before
// being physically unlinked by helping traversals; contains() is wait-free.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/ebr.hpp"
#include "common/latency.hpp"
#include "common/rng.hpp"

namespace pimds::baselines {

class LockFreeSkipList {
 public:
  static constexpr int kMaxHeight = 16;

  LockFreeSkipList();
  ~LockFreeSkipList();

  LockFreeSkipList(const LockFreeSkipList&) = delete;
  LockFreeSkipList& operator=(const LockFreeSkipList&) = delete;

  /// Keys must be in (0, UINT64_MAX) — the sentinels take the extremes.
  bool add(std::uint64_t key);
  bool remove(std::uint64_t key);
  bool contains(std::uint64_t key);

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

  EbrDomain& reclaimer() noexcept { return reclaim_; }

 private:
  struct Node;

  /// Tagged pointer: bit 0 marks the *containing* node as logically deleted
  /// at that level.
  static Node* ptr_of(std::uintptr_t v) noexcept {
    return reinterpret_cast<Node*>(v & ~std::uintptr_t{1});
  }
  static bool marked(std::uintptr_t v) noexcept { return (v & 1) != 0; }
  static std::uintptr_t tag(Node* p, bool mark) noexcept {
    return reinterpret_cast<std::uintptr_t>(p) |
           static_cast<std::uintptr_t>(mark);
  }

  struct Node {
    std::uint64_t key;
    std::int32_t top_level;  // links exist on [0, top_level]
    // Parties that may still link or unlink the node: its tower builder
    // (only while top_level > 0) and the remover that wins level 0. The
    // last to let go unlinks every level and retires the node (release()).
    std::atomic<std::uint32_t> holds;
    std::atomic<std::uintptr_t> next[1];
  };

  static Node* make_node(std::uint64_t key, int top_level);
  static void free_node(void* p);

  /// Herlihy-Shavit find(): fills preds/succs on every level, physically
  /// unlinking marked nodes along the way. Returns true if an unmarked node
  /// with `key` sits at level 0. The caller must hold a guard.
  bool find(std::uint64_t key, Node** preds, Node** succs);

  /// Links `node` (already spliced at level 0) on levels 1..top_level
  /// through the windows its find produced, stopping at the first level
  /// that cannot be linked as found.
  void build_tower(Node* node, Node* const* preds, Node* const* succs);

  /// Drops one hold on `node`; the last holder unlinks it from every level
  /// and retires it. A node must be unreachable when it is retired, and a
  /// tower build that lost the race to a remover can still link a level
  /// after the remover's unlinking find — so neither side retires alone.
  void release(EbrDomain::Guard& guard, Node* node);

  int random_height();

  Node* head_;
  Node* tail_;
  std::atomic<std::size_t> size_{0};
  EbrDomain reclaim_{"baselines.lockfree_skiplist"};
};

}  // namespace pimds::baselines
