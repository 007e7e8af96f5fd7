// Flat-combining data structures used as baselines throughout the paper:
// the FC linked-list (with and without the combining optimization,
// Section 4.1 / Figure 2), the FC skip-list with k partitions
// (Section 4.2 / Figure 4), and the FC FIFO queue with separate enqueue and
// dequeue combiner locks (Section 5.2).
//
// Flat combining (Hendler, Incze, Shavit, Tzafrir [25]) and the runtime's
// Section 4.1 request combining are one protocol: publish, win the combiner
// role, gather, then serve or ship the batch, then release the waiters. So
// the FC structures submit through runtime::RequestCombiner, and their
// leader serves the gathered batch in place (combine_in_place) where the
// PIM structures' leader ships it to a vault.
//
// The lists run the shared sequential cores (core/sorted_list.hpp,
// core/skip_list.hpp). The combiner is an ordinary CPU thread, so each node
// access charges one CPU DRAM access when latency injection is enabled.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "baselines/spinlock.hpp"
#include "common/latency.hpp"
#include "common/rng.hpp"
#include "core/skip_list.hpp"
#include "core/sorted_list.hpp"
#include "runtime/combiner.hpp"
#include "runtime/fat_arena.hpp"

namespace pimds::baselines {

using core::SetOp;
using core::SetRequest;

/// The result a combined request's `slot` points at: the requester's own
/// result on its stack.
template <typename Res>
Res& result_of(const runtime::FatEntry& entry) noexcept {
  return *static_cast<Res*>(entry.slot);
}

/// Run `entry` through `combiner` and return its result. The leader's send
/// callback serves the gathered batch in place: `serve` gets the batch's
/// entries and writes each requester's result through `result_of<Res>`.
/// RequestCombiner releases a requester only after the callback returns
/// (a release store), so each requester reads a finished result.
///
/// Section 5.2's LLC charges: one access to compete for the combiner role,
/// two per served entry (the combiner reads the request and writes the
/// result).
template <typename Res, typename ServeFn>
Res combine_in_place(runtime::RequestCombiner& combiner,
                     runtime::FatEntry entry, ServeFn&& serve) {
  Res result{};
  entry.slot = &result;
  charge_llc_access();  // competing for the combiner role
  combiner.submit(entry, [&serve](runtime::Message& m) {
    const std::span<const runtime::FatEntry> batch(runtime::fat_entries(m),
                                                   m.fat_count);
    for (std::size_t i = 0; i < batch.size(); ++i) charge_llc_access();
    serve(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) charge_llc_access();
    runtime::release_fat_payload(m);
  });
  return result;
}

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
  std::uint64_t max_combined() const noexcept { return fc_.max_batch(); }

 private:
  bool execute(SetOp op, std::uint64_t key);

  bool combining_;
  core::SortedList<> list_;
  runtime::RequestCombiner fc_;
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
    runtime::RequestCombiner fc;
  };

  bool execute(SetOp op, std::uint64_t key);
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
  runtime::RequestCombiner enq_fc_;
  runtime::RequestCombiner deq_fc_;
};

}  // namespace pimds::baselines
