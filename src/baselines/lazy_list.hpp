// Lazy synchronization list (Heller, Herlihy, Luchangco, Moir, Scherer,
// Shavit — the paper's citation [24] for "linked-list with fine-grained
// locks").
//
// Lock-free contains; add/remove lock only the two affected nodes and
// re-validate. Removal marks before unlinking, so traversals that hold a
// reference to a victim still see a consistent (marked) node; unlinked
// nodes are reclaimed by epoch-based reclamation (common/ebr.hpp).
#pragma once

#include <atomic>
#include <cstdint>

#include "baselines/spinlock.hpp"
#include "common/ebr.hpp"
#include "common/latency.hpp"

namespace pimds::baselines {

class LazyList {
 public:
  LazyList();
  ~LazyList();

  LazyList(const LazyList&) = delete;
  LazyList& operator=(const LazyList&) = delete;

  bool add(std::uint64_t key);
  bool remove(std::uint64_t key);
  bool contains(std::uint64_t key);

  std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

  EbrDomain& reclaimer() noexcept { return reclaim_; }

 private:
  struct Node {
    std::uint64_t key;
    std::atomic<Node*> next;
    std::atomic<bool> marked{false};
    Spinlock lock;

    Node(std::uint64_t k, Node* n) : key(k), next(n) {}
  };

  static bool validate(const Node* prev, const Node* curr) {
    return !prev->marked.load(std::memory_order_acquire) &&
           !curr->marked.load(std::memory_order_acquire) &&
           prev->next.load(std::memory_order_acquire) == curr;
  }

  /// Unsynchronized search; the caller must hold a guard, which keeps
  /// every node reachable at guard entry allocated.
  void locate(std::uint64_t key, Node*& prev, Node*& curr) const;

  Node* head_;
  std::atomic<std::size_t> size_{0};
  EbrDomain reclaim_{"baselines.lazy_list"};
};

}  // namespace pimds::baselines
