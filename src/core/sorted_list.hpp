// The sequential sorted linked list of Section 4.1, once for every user:
// the simulated fine-grained, flat-combining and PIM lists, the FC baseline
// (baselines::FcLinkedList) and the runtime PIM list (PimLinkedList).
//
// The structure is plain (non-atomic): each user runs it from one thread at
// a time — a combiner, a PIM core, or a simulator actor inside its slice.
// What differs between users is who pays for a node hop, so every operation
// takes a hop-cost hook `charge(n)` bound to the caller's latency class
// (Lcpu for a CPU-side traversal, Lpim for a PIM core). The charge rule is
// one access for reading the head, then one per node hop, charged one hop
// at a time as the traversal moves.
//
// Nodes come from a store with `create<Node>(node)` / `destroy(node)`: the
// heap (HeapNodes) or a runtime::Vault.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/set_op.hpp"

namespace pimds::core {

/// Node store of the heap-backed structures (stateless).
struct HeapNodes {
  template <typename T>
  T* create(const T& value) {
    return new T(value);
  }
  template <typename T>
  void destroy(T* p) noexcept {
    delete p;
  }

  static HeapNodes& instance() noexcept {
    static HeapNodes store;
    return store;
  }
};

template <typename Store = HeapNodes>
class SortedList {
 public:
  explicit SortedList(Store& store = HeapNodes::instance())
      : store_(store), head_(store_.template create<Node>(Node{0, nullptr})) {}

  ~SortedList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      store_.destroy(n);
      n = next;
    }
  }

  SortedList(const SortedList&) = delete;
  SortedList& operator=(const SortedList&) = delete;

  /// Insert distinct keys drawn uniformly from [1, key_range] until the
  /// list holds `target_size` nodes (setup phase: nothing charged).
  void populate(Xoshiro256& rng, std::size_t target_size,
                std::uint64_t key_range) {
    const auto free = [](std::uint64_t) {};
    while (size_ < target_size) {
      const std::uint64_t key = rng.next_in(1, key_range);
      apply(SetOp::kAdd, key, walk(head_, key, free));
    }
  }

  /// One operation with its own traversal from the head. Keys must be >= 1
  /// (0 is the dummy head).
  template <typename Charge>
  bool execute(SetOp op, std::uint64_t key, Charge&& charge) {
    assert(key >= 1 && "key 0 is reserved for the dummy head");
    charge(1);  // reading the head
    return apply(op, key, walk(head_, key, charge));
  }

  /// The Section 4.1 combined batch: stably sort the requests by key (equal
  /// keys are served in arrival order), then serve them all in ONE
  /// traversal that walks only as far as the largest key. `results[i]`
  /// receives the outcome of `batch[i]`.
  template <typename Results, typename Charge>
  void execute_batch(std::span<const SetRequest> batch, Results& results,
                     Charge&& charge) {
    std::vector<std::size_t> order(batch.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return batch[a].key < batch[b].key;
                     });
    charge(1);  // reading the head
    Node* prev = head_;
    for (const std::size_t i : order) {
      assert(batch[i].key >= 1 && "key 0 is reserved for the dummy head");
      // apply() leaves prev->next at the first node with key >= the served
      // key (an inserted node carries exactly that key), so the walk
      // resumes correctly for the next, not smaller, key.
      prev = walk(prev, batch[i].key, charge);
      results[i] = apply(batch[i].op, batch[i].key, prev);
    }
  }

  std::size_t size() const noexcept { return size_; }

  /// Keys in ascending order.
  std::vector<std::uint64_t> keys() const {
    std::vector<std::uint64_t> out;
    out.reserve(size_);
    for (const Node* n = head_->next; n != nullptr; n = n->next) {
      out.push_back(n->key);
    }
    return out;
  }

 private:
  struct Node {
    std::uint64_t key;
    Node* next;
  };

  /// Walk from `prev` until its successor is the first node with key >=
  /// `key`, charging one access per hop.
  template <typename Charge>
  static Node* walk(Node* prev, std::uint64_t key, Charge& charge) {
    while (prev->next != nullptr && prev->next->key < key) {
      charge(1);
      prev = prev->next;
    }
    return prev;
  }

  /// Apply `op` at the insertion point after `prev`.
  bool apply(SetOp op, std::uint64_t key, Node* prev) {
    Node* curr = prev->next;
    const bool present = curr != nullptr && curr->key == key;
    switch (op) {
      case SetOp::kContains:
        return present;
      case SetOp::kAdd:
        if (present) return false;
        prev->next = store_.template create<Node>(Node{key, curr});
        ++size_;
        return true;
      case SetOp::kRemove:
        if (!present) return false;
        prev->next = curr->next;
        store_.destroy(curr);
        --size_;
        return true;
    }
    return false;
  }

  Store& store_;
  Node* head_;  // dummy head with key 0
  std::size_t size_ = 0;
};

}  // namespace pimds::core
