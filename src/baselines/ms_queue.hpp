// Michael-Scott lock-free FIFO queue, with epoch-based reclamation of
// dequeued nodes (common/ebr.hpp).
// Classic CAS-based baseline: both ends contend on a single cache line
// each, so throughput flattens under load — the motivating pathology for
// Section 5's contended-structure discussion.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/cacheline.hpp"
#include "common/ebr.hpp"
#include "common/latency.hpp"

namespace pimds::baselines {

class MsQueue {
 public:
  MsQueue();
  ~MsQueue();

  MsQueue(const MsQueue&) = delete;
  MsQueue& operator=(const MsQueue&) = delete;

  void enqueue(std::uint64_t value);
  std::optional<std::uint64_t> dequeue();

  EbrDomain& reclaimer() noexcept { return reclaim_; }

 private:
  struct Node {
    std::uint64_t value;
    std::atomic<Node*> next{nullptr};

    explicit Node(std::uint64_t v) : value(v) {}
  };

  CachePadded<std::atomic<Node*>> head_;  // dummy-node convention
  CachePadded<std::atomic<Node*>> tail_;
  EbrDomain reclaim_{"baselines.ms_queue"};
};

}  // namespace pimds::baselines
