// Flat-combining data structures used as baselines throughout the paper:
// the FC linked-list (with and without the combining optimization,
// Section 4.1 / Figure 2), the FC skip-list with k partitions
// (Section 4.2 / Figure 4), and the FC FIFO queue with separate enqueue and
// dequeue combiner locks (Section 5.2).
//
// The lists run the shared sequential cores (core/sorted_list.hpp,
// core/skip_list.hpp). The combiner is an ordinary CPU thread, so each node
// access charges one CPU DRAM access when latency injection is enabled.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/flat_combining.hpp"
#include "common/rng.hpp"
#include "core/skip_list.hpp"
#include "core/sorted_list.hpp"

namespace pimds::baselines {

using core::SetOp;
using core::SetRequest;

/// Flat-combining sorted linked-list.
class FcLinkedList {
 public:
  /// @param combining serve each batch in one ascending traversal
  ///        (Section 4.1) instead of one traversal per request.
  explicit FcLinkedList(bool combining = true) : combining_(combining) {}

  bool add(std::uint64_t key);
  bool remove(std::uint64_t key);
  bool contains(std::uint64_t key);

  std::size_t size() const noexcept { return list_.size(); }
  std::size_t max_combined() const noexcept { return fc_.max_combined(); }

 private:
  bool execute(SetRequest req);

  bool combining_;
  core::SortedList<> list_;
  FlatCombiner<SetRequest, bool> fc_;
};

/// Flat-combining skip-list, statically partitioned into k key ranges with
/// one combiner (and one sequential skip-list) per partition.
class FcSkipList {
 public:
  /// Keys must lie in [1, key_range].
  FcSkipList(std::uint64_t key_range, std::size_t partitions);

  bool add(std::uint64_t key);
  bool remove(std::uint64_t key);
  bool contains(std::uint64_t key);

  std::size_t size() const noexcept;
  std::size_t partitions() const noexcept { return parts_.size(); }

 private:
  struct Partition {
    /// Sentinel at the partition's lower bound minus one (keys start at 1).
    Partition(std::uint64_t sentinel, std::uint64_t seed)
        : list(sentinel), rng(seed) {}

    core::SkipList list;
    Xoshiro256 rng;  ///< tower heights
    FlatCombiner<SetRequest, bool> fc;
  };

  bool execute(SetRequest req);
  std::size_t route(std::uint64_t key) const;

  std::uint64_t key_range_;
  std::vector<std::unique_ptr<Partition>> parts_;
};

/// Flat-combining FIFO queue with two combiner locks, one for enqueues and
/// one for dequeues (the Section 5.2 variant: both sides proceed in
/// parallel, like the F&A and PIM queues).
class FcQueue {
 public:
  void enqueue(std::uint64_t value);
  std::optional<std::uint64_t> dequeue();

  std::size_t size() const noexcept { return items_.size(); }

 private:
  std::deque<std::uint64_t> items_;
  // The deque is shared by both combiners; enqueues touch the back,
  // dequeues the front. A tiny lock arbitrates the (rare) structural
  // overlap — the paper's simplified FC queue assumes a long queue where
  // the two ends never meet.
  Spinlock ends_lock_;
  FlatCombiner<std::uint64_t, bool> enq_fc_;
  FlatCombiner<int, std::optional<std::uint64_t>> deq_fc_;
};

}  // namespace pimds::baselines
