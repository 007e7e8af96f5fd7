#include "baselines/ms_queue.hpp"

namespace pimds::baselines {

MsQueue::MsQueue() {
  Node* dummy = new Node(0);
  head_.value.store(dummy, std::memory_order_relaxed);
  tail_.value.store(dummy, std::memory_order_relaxed);
}

MsQueue::~MsQueue() {
  reclaim_.reclaim_all_unsafe();
  Node* n = head_.value.load(std::memory_order_relaxed);
  while (n != nullptr) {
    Node* next = n->next.load(std::memory_order_relaxed);
    delete n;
    n = next;
  }
}

void MsQueue::enqueue(std::uint64_t value) {
  EbrDomain::Guard guard(reclaim_);
  Node* node = new Node(value);
  charge_cpu_access();  // the node write
  for (;;) {
    Node* last = tail_.value.load(std::memory_order_acquire);
    Node* next = last->next.load(std::memory_order_acquire);
    if (last != tail_.value.load(std::memory_order_acquire)) continue;
    if (next == nullptr) {
      if (last->next.compare_exchange_weak(next, node,
                                           std::memory_order_acq_rel)) {
        charge_atomic();
        tail_.value.compare_exchange_strong(last, node,
                                            std::memory_order_acq_rel);
        return;
      }
    } else {
      // Help a lagging enqueuer swing the tail.
      tail_.value.compare_exchange_strong(last, next,
                                          std::memory_order_acq_rel);
    }
  }
}

std::optional<std::uint64_t> MsQueue::dequeue() {
  EbrDomain::Guard guard(reclaim_);
  for (;;) {
    Node* first = head_.value.load(std::memory_order_acquire);
    Node* last = tail_.value.load(std::memory_order_acquire);
    Node* next = first->next.load(std::memory_order_acquire);
    // Consistent snapshot: head_ still equals first, so `next` is first's
    // successor as of now (Michael & Scott's dequeue).
    if (first != head_.value.load(std::memory_order_acquire)) continue;
    if (next == nullptr) return std::nullopt;  // empty
    if (first == last) {
      // Tail lagging behind a half-finished enqueue: help it.
      tail_.value.compare_exchange_strong(last, next,
                                          std::memory_order_acq_rel);
      continue;
    }
    charge_cpu_access();  // reading the node
    const std::uint64_t value = next->value;
    if (head_.value.compare_exchange_weak(first, next,
                                          std::memory_order_acq_rel)) {
      charge_atomic();
      guard.retire(first);
      return value;
    }
  }
}

}  // namespace pimds::baselines
