// F&A-based FIFO queue — the paper's citation [41] (Morrison & Afek) is
// LCRQ; this is the FAAArrayQueue simplification of the same idea (Correia
// & Ramalhete): each segment holds a cell array with fetch-and-add enqueue
// and dequeue tickets, so the hot path is one F&A on a shared counter plus
// one (usually uncontended) cell operation, rather than a CAS retry loop.
// Segments chain like a Michael-Scott queue and are reclaimed by
// epoch-based reclamation (common/ebr.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/cacheline.hpp"
#include "common/ebr.hpp"
#include "common/latency.hpp"

namespace pimds::baselines {

class FaaQueue {
 public:
  static constexpr std::size_t kSegmentCells = 1024;

  FaaQueue();
  ~FaaQueue();

  FaaQueue(const FaaQueue&) = delete;
  FaaQueue& operator=(const FaaQueue&) = delete;

  /// `value` must not equal the reserved markers ~0 (empty) or ~1 (taken).
  void enqueue(std::uint64_t value);
  std::optional<std::uint64_t> dequeue();

  EbrDomain& reclaimer() noexcept { return reclaim_; }

 private:
  // Cell protocol: kEmpty -> value (enqueuer claims it), or
  // kEmpty -> kTaken (a dequeuer overtook its enqueuer: the cell is burned
  // and both sides move on to fresh tickets).
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kTaken = ~std::uint64_t{1};

  struct Segment {
    Segment();

    CachePadded<std::atomic<std::uint64_t>> enq_idx{0};
    CachePadded<std::atomic<std::uint64_t>> deq_idx{0};
    std::atomic<Segment*> next{nullptr};
    std::atomic<std::uint64_t> cells[kSegmentCells];
  };

  CachePadded<std::atomic<Segment*>> head_;
  CachePadded<std::atomic<Segment*>> tail_;
  EbrDomain reclaim_{"baselines.faa_queue"};
};

}  // namespace pimds::baselines
