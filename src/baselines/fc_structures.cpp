#include "baselines/fc_structures.hpp"

#include <cassert>
#include <mutex>

namespace pimds::baselines {

namespace {
using runtime::FatEntry;
using Batch = std::span<const FatEntry>;

/// Hop-cost hook of the FC structures: one CPU DRAM access per node.
void charge_cpu_hops(std::uint64_t n) {
  for (; n > 0; --n) charge_cpu_access();
}

FatEntry set_entry(SetOp op, std::uint64_t key) {
  FatEntry e{};
  e.kind = static_cast<std::uint32_t>(op);
  e.key = key;
  return e;
}

SetOp op_of(const FatEntry& e) { return static_cast<SetOp>(e.kind); }
}  // namespace

bool FcLinkedList::execute(SetOp op, std::uint64_t key) {
  return combine_in_place<bool>(fc_, set_entry(op, key), [this](Batch batch) {
    if (combining_) {
      // One ascending traversal serves the whole batch (Section 4.1).
      SetRequest requests[runtime::RequestCombiner::kMaxCombine];
      bool results[runtime::RequestCombiner::kMaxCombine];
      for (std::size_t i = 0; i < batch.size(); ++i) {
        requests[i] = SetRequest{op_of(batch[i]), batch[i].key};
      }
      list_.execute_batch(std::span<const SetRequest>(requests, batch.size()),
                          results, charge_cpu_hops);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        result_of<bool>(batch[i]) = results[i];
      }
      return;
    }
    for (const FatEntry& e : batch) {
      result_of<bool>(e) = list_.execute(op_of(e), e.key, charge_cpu_hops);
    }
  });
}

bool FcLinkedList::add(std::uint64_t key) { return execute(SetOp::kAdd, key); }
bool FcLinkedList::remove(std::uint64_t key) {
  return execute(SetOp::kRemove, key);
}
bool FcLinkedList::contains(std::uint64_t key) {
  return execute(SetOp::kContains, key);
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

bool FcSkipList::execute(SetOp op, std::uint64_t key) {
  assert(key >= 1 && key <= key_range_);
  Partition& part = *parts_[route(key)];
  const auto serve = [&part](Batch batch) {
    // No combining for skip-lists: distant keys share no traversal prefix
    // (Section 4.2), so the combiner executes requests one by one.
    for (const FatEntry& e : batch) {
      result_of<bool>(e) =
          part.list.execute(op_of(e), e.key, part.rng, charge_cpu_hops);
    }
  };
  return combine_in_place<bool>(part.fc, set_entry(op, key), serve);
}

bool FcSkipList::add(std::uint64_t key) { return execute(SetOp::kAdd, key); }
bool FcSkipList::remove(std::uint64_t key) {
  return execute(SetOp::kRemove, key);
}
bool FcSkipList::contains(std::uint64_t key) {
  return execute(SetOp::kContains, key);
}

std::size_t FcSkipList::size() const noexcept {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p->list.size();
  return total;
}

void FcQueue::enqueue(std::uint64_t value) {
  FatEntry e{};
  e.value = value;
  combine_in_place<bool>(enq_fc_, e, [this](Batch batch) {
    const std::scoped_lock ends(ends_lock_);
    for (const FatEntry& rec : batch) {
      charge_cpu_access();  // queue-node write
      items_.push_back(rec.value);
    }
  });
}

std::optional<std::uint64_t> FcQueue::dequeue() {
  using Res = std::optional<std::uint64_t>;
  return combine_in_place<Res>(deq_fc_, FatEntry{}, [this](Batch batch) {
    const std::scoped_lock ends(ends_lock_);
    for (const FatEntry& rec : batch) {
      charge_cpu_access();  // queue-node read
      if (!items_.empty()) {
        result_of<Res>(rec) = items_.front();
        items_.pop_front();
      }
    }
  });
}

}  // namespace pimds::baselines
