#include "baselines/fc_structures.hpp"

#include <cassert>
#include <mutex>

namespace pimds::baselines {

namespace {
using Records = std::vector<FlatCombiner<SetRequest, bool>::Record*>;

/// Hop-cost hook of the FC structures: one CPU DRAM access per node.
void charge_cpu_hops(std::uint64_t n) {
  for (; n > 0; --n) charge_cpu_access();
}
}  // namespace

bool FcLinkedList::execute(SetRequest req) {
  return fc_.execute(req, [this](Records& batch) {
    if (combining_) {
      // One ascending traversal serves the whole batch (Section 4.1).
      std::vector<SetRequest> requests;
      requests.reserve(batch.size());
      for (const auto* rec : batch) requests.push_back(rec->req);
      std::vector<bool> results(batch.size());
      list_.execute_batch(requests, results, charge_cpu_hops);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->res = results[i];
      }
      return;
    }
    for (auto* rec : batch) {
      rec->res = list_.execute(rec->req.op, rec->req.key, charge_cpu_hops);
    }
  });
}

bool FcLinkedList::add(std::uint64_t key) {
  return execute({SetOp::kAdd, key});
}
bool FcLinkedList::remove(std::uint64_t key) {
  return execute({SetOp::kRemove, key});
}
bool FcLinkedList::contains(std::uint64_t key) {
  return execute({SetOp::kContains, key});
}

FcSkipList::FcSkipList(std::uint64_t key_range, std::size_t partitions)
    : key_range_(key_range) {
  assert(partitions >= 1);
  parts_.reserve(partitions);
  for (std::size_t i = 0; i < partitions; ++i) {
    parts_.push_back(std::make_unique<Partition>(i * key_range / partitions,
                                                 0x5eedULL + i));
  }
}

std::size_t FcSkipList::route(std::uint64_t key) const {
  const std::size_t idx = static_cast<std::size_t>(
      (key - 1) * parts_.size() / key_range_);
  return idx >= parts_.size() ? parts_.size() - 1 : idx;
}

bool FcSkipList::execute(SetRequest req) {
  assert(req.key >= 1 && req.key <= key_range_);
  Partition& part = *parts_[route(req.key)];
  return part.fc.execute(req, [&part](Records& batch) {
    // No combining for skip-lists: distant keys share no traversal prefix
    // (Section 4.2), so the combiner executes requests one by one.
    for (auto* rec : batch) {
      rec->res = part.list.execute(rec->req.op, rec->req.key, part.rng,
                                   charge_cpu_hops);
    }
  });
}

bool FcSkipList::add(std::uint64_t key) {
  return execute({SetOp::kAdd, key});
}
bool FcSkipList::remove(std::uint64_t key) {
  return execute({SetOp::kRemove, key});
}
bool FcSkipList::contains(std::uint64_t key) {
  return execute({SetOp::kContains, key});
}

std::size_t FcSkipList::size() const noexcept {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p->list.size();
  return total;
}

void FcQueue::enqueue(std::uint64_t value) {
  enq_fc_.execute(value, [this](auto& batch) {
    const std::scoped_lock ends(ends_lock_);
    for (auto* rec : batch) {
      charge_cpu_access();  // queue-node write
      items_.push_back(rec->req);
      rec->res = true;
    }
  });
}

std::optional<std::uint64_t> FcQueue::dequeue() {
  return deq_fc_.execute(0, [this](auto& batch) {
    const std::scoped_lock ends(ends_lock_);
    for (auto* rec : batch) {
      charge_cpu_access();  // queue-node read
      if (items_.empty()) {
        rec->res = std::nullopt;
      } else {
        rec->res = items_.front();
        items_.pop_front();
      }
    }
  });
}

}  // namespace pimds::baselines
