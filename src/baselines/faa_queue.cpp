#include "baselines/faa_queue.hpp"

#include <algorithm>
#include <cassert>

namespace pimds::baselines {

FaaQueue::Segment::Segment() {
  for (auto& cell : cells) cell.store(kEmpty, std::memory_order_relaxed);
}

FaaQueue::FaaQueue() {
  Segment* initial = new Segment();
  head_.value.store(initial, std::memory_order_relaxed);
  tail_.value.store(initial, std::memory_order_relaxed);
}

FaaQueue::~FaaQueue() {
  reclaim_.reclaim_all_unsafe();
  Segment* s = head_.value.load(std::memory_order_relaxed);
  while (s != nullptr) {
    Segment* next = s->next.load(std::memory_order_relaxed);
    delete s;
    s = next;
  }
}

void FaaQueue::enqueue(std::uint64_t value) {
  assert(value != kEmpty && value != kTaken);
  EbrDomain::Guard guard(reclaim_);
  for (;;) {
    Segment* t = tail_.value.load(std::memory_order_acquire);
    const std::uint64_t i =
        t->enq_idx.value.fetch_add(1, std::memory_order_acq_rel);
    charge_atomic();
    if (i < kSegmentCells) {
      std::uint64_t expected = kEmpty;
      if (t->cells[i].compare_exchange_strong(expected, value,
                                              std::memory_order_acq_rel)) {
        charge_cpu_access();  // the cell write
        return;
      }
      continue;  // a dequeuer burned this cell; take a fresh ticket
    }
    // Segment full: append a new one (or help whoever already did).
    Segment* next = t->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      Segment* fresh = new Segment();
      fresh->enq_idx.value.store(1, std::memory_order_relaxed);
      fresh->cells[0].store(value, std::memory_order_relaxed);
      Segment* expected_next = nullptr;
      if (t->next.compare_exchange_strong(expected_next, fresh,
                                          std::memory_order_acq_rel)) {
        tail_.value.compare_exchange_strong(t, fresh,
                                            std::memory_order_acq_rel);
        charge_atomic();
        return;
      }
      delete fresh;
    } else {
      tail_.value.compare_exchange_strong(t, next, std::memory_order_acq_rel);
    }
  }
}

std::optional<std::uint64_t> FaaQueue::dequeue() {
  EbrDomain::Guard guard(reclaim_);
  for (;;) {
    Segment* h = head_.value.load(std::memory_order_acquire);
    // Empty probe before consuming a ticket, so an idle dequeuer does not
    // burn cells forever on an empty queue.
    const std::uint64_t deq = h->deq_idx.value.load(std::memory_order_acquire);
    const std::uint64_t enq = std::min<std::uint64_t>(
        h->enq_idx.value.load(std::memory_order_acquire), kSegmentCells);
    if (deq >= enq && h->next.load(std::memory_order_acquire) == nullptr) {
      return std::nullopt;
    }
    const std::uint64_t i =
        h->deq_idx.value.fetch_add(1, std::memory_order_acq_rel);
    charge_atomic();
    if (i < kSegmentCells) {
      const std::uint64_t v =
          h->cells[i].exchange(kTaken, std::memory_order_acq_rel);
      charge_cpu_access();  // the cell read
      if (v != kEmpty) return v;
      continue;  // overtook the enqueuer: cell burned, try the next ticket
    }
    // Segment drained: advance the head and retire the old segment. The
    // tail must be helped off `h` first — otherwise an enqueuer entering
    // after h was retired could still load tail_ == h and touch freed
    // memory.
    Segment* next = h->next.load(std::memory_order_acquire);
    if (next == nullptr) return std::nullopt;
    Segment* t = tail_.value.load(std::memory_order_acquire);
    if (t == h) {
      tail_.value.compare_exchange_strong(t, next, std::memory_order_acq_rel);
    }
    if (head_.value.compare_exchange_strong(h, next,
                                            std::memory_order_acq_rel)) {
      guard.retire(h);
    }
  }
}

}  // namespace pimds::baselines
