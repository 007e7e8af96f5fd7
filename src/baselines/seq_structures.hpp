// Plain sequential structures wrapped by the flat-combining baselines.
// Latency hooks charge one CPU DRAM access per node hop when injection is
// enabled (the combiner is an ordinary CPU thread).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/latency.hpp"
#include "common/rng.hpp"

namespace pimds::baselines {

/// Sorted singly-linked list with a dummy head (key 0).
class SeqList {
 public:
  SeqList() : head_(new Node{0, nullptr}) {}
  ~SeqList() {
    Node* n = head_;
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }

  SeqList(const SeqList&) = delete;
  SeqList& operator=(const SeqList&) = delete;

  struct Cursor {
    void* prev = nullptr;  ///< opaque resume point for ascending batches
  };

  bool add(std::uint64_t key) { return add_from(nullptr, key); }
  bool remove(std::uint64_t key) { return remove_from(nullptr, key); }
  bool contains(std::uint64_t key) const;

  /// Batched variants resuming from `cursor` (combining optimization):
  /// requests must arrive in ascending key order.
  bool add_from(Cursor* cursor, std::uint64_t key);
  bool remove_from(Cursor* cursor, std::uint64_t key);
  bool contains_from(Cursor* cursor, std::uint64_t key) const;

  std::size_t size() const noexcept { return size_; }

 private:
  struct Node {
    std::uint64_t key;
    Node* next;
  };

  Node* resume_point(Cursor* cursor) const {
    if (cursor != nullptr && cursor->prev != nullptr) {
      return static_cast<Node*>(cursor->prev);
    }
    return head_;
  }

  /// Walk from `start` until the successor has key >= key.
  Node* walk(Node* start, std::uint64_t key) const {
    Node* prev = start;
    charge_cpu_access();
    while (prev->next != nullptr && prev->next->key < key) {
      charge_cpu_access();
      prev = prev->next;
    }
    return prev;
  }

  Node* head_;
  std::size_t size_ = 0;
};

/// Sequential skip-list, one key per node on the heap: the paper's layout,
/// as sim/ds/skiplist_common.hpp's SimSkipList keeps it for the simulator.
class SeqSkipList {
 public:
  static constexpr int kMaxHeight = 16;

  explicit SeqSkipList(std::uint64_t sentinel_key = 0,
                       std::uint64_t seed = 0x5eed);
  ~SeqSkipList();

  SeqSkipList(const SeqSkipList&) = delete;
  SeqSkipList& operator=(const SeqSkipList&) = delete;

  bool add(std::uint64_t key);
  bool remove(std::uint64_t key);
  bool contains(std::uint64_t key) const;

  std::size_t size() const noexcept { return size_; }

 private:
  struct Node {
    std::uint64_t key;
    std::int32_t height;
    Node* next[1];
  };

  Node* make_node(std::uint64_t key, int height);
  Node* locate(std::uint64_t key, Node** preds) const;

  Node* head_;
  std::size_t size_ = 0;
  Xoshiro256 rng_;
};

}  // namespace pimds::baselines
