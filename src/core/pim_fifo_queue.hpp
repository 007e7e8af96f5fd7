// PIM-managed FIFO queue (Section 5, Algorithm 1) on the real-thread
// runtime.
//
// The vault side of the protocol (segment chain, enqueue/dequeue roles,
// newEnqSeg/newDeqSeg hand-off, rejection, fat-node charging) is
// core::QueueVault (core/queue_vault.hpp), shared with the simulator. This
// class is its runtime host: it decodes each drained message batch into
// QueueVault calls through a vault context over runtime::PimCoreApi, and
// runs the CPU side.
//
// The message path batches at both crossings (Section 5.1 / 5.2):
//  - CPU side: co-located enqueue (and dequeue) requests combine so up to
//    RequestCombiner::kMaxCombine ride one crossbar message;
//  - PIM side: the core receives a whole drained batch from the runtime,
//    serves it as fat nodes (one local access per fat node written or read
//    under injection), and pipelines the replies with a shared delivery
//    time (one fat response message).
//
// CPUs learn role locations from a shared directory (standing in for the
// paper's notification broadcast); a stale read leads to a rejected request
// and a retry — the protocol's correctness does not depend on freshness.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/cacheline.hpp"
#include "core/queue_vault.hpp"
#include "runtime/combiner.hpp"
#include "runtime/system.hpp"

namespace pimds::core {

class PimFifoQueue {
 public:
  struct Options {
    /// Segment length threshold (Algorithm 1 line 13).
    std::uint64_t segment_threshold = 1024;
    /// Section 5.1's further optimization (default on): the vault packs
    /// the enqueues of a drained batch into fat nodes of
    /// QueueVault::kFatNodeCapacity values, charging one local access per
    /// fat node written and, on the dequeue side, per fat node read under
    /// latency injection. Off: one access per value.
    bool enqueue_combining = true;
    /// CPU-side request combining: co-located waiting requests ride one
    /// crossbar message (off = one message per request, the seed path).
    bool cpu_combining = true;
  };

  /// Installs handlers on ALL vaults of `system`; construct before start().
  PimFifoQueue(runtime::PimSystem& system, Options options);
  explicit PimFifoQueue(runtime::PimSystem& system);

  PimFifoQueue(const PimFifoQueue&) = delete;
  PimFifoQueue& operator=(const PimFifoQueue&) = delete;

  /// Blocking in the bounded-retry sense: resends on stale-directory
  /// rejections until the owning core accepts.
  void enqueue(std::uint64_t value);

  /// Returns nullopt when the queue is observed empty.
  std::optional<std::uint64_t> dequeue();

  /// Racy stats snapshots.
  std::uint64_t rejections() const noexcept {
    return rejections_.value.load(std::memory_order_relaxed);
  }
  std::uint64_t segments_created() const noexcept {
    return sum(&QueueVaultStats::segments_created);
  }
  std::uint64_t segments_destroyed() const noexcept {
    return sum(&QueueVaultStats::segments_destroyed);
  }
  /// Segments currently resident in the vaults: the initial segment plus
  /// every hand-off-created one, minus those destroyed when exhausted.
  /// After the system quiesces this is exactly what the vaults' net
  /// alloc−free balance must account for (nodes all freed on dequeue), so
  /// the shutdown balance assertion compares against it.
  std::uint64_t live_segments() const noexcept {
    return 1 + segments_created() - segments_destroyed();
  }
  /// Largest enqueue batch combined into one fat node so far.
  std::uint64_t max_enqueue_batch() const noexcept {
    std::uint64_t most = 0;
    for (const auto& v : vaults_) {
      most = std::max(most, v->stats().max_enq_batch.load(
                                std::memory_order_relaxed));
    }
    return most;
  }
  /// Largest CPU-side request batch shipped in one message (diagnostics).
  std::uint64_t max_request_batch() const noexcept {
    return std::max(enq_combiner_.max_batch(), deq_combiner_.max_batch());
  }

 private:
  /// The vault-side protocol; a requester is its ResponseSlot<QueueReply>.
  using Vault = QueueVault<void*>;
  struct VaultCtx;

  /// Message opcodes. A request message carries one op, or a CPU-combined
  /// batch of the same kind in its fat payload.
  enum Kind : std::uint32_t { kEnq = 1, kDeq, kNewEnqSeg, kNewDeqSeg };

  void handle_batch(runtime::PimCoreApi& api, const runtime::Message* msgs,
                    std::size_t n);
  /// The CPU side of one operation: send to the role's current core until
  /// a core accepts.
  QueueReply request(bool is_enq, std::uint64_t value);

  std::uint64_t sum(std::atomic<std::uint64_t> QueueVaultStats::*stat) const {
    std::uint64_t total = 0;
    for (const auto& v : vaults_) {
      total += (v->stats().*stat).load(std::memory_order_relaxed);
    }
    return total;
  }

  runtime::PimSystem& system_;
  Options options_;
  std::vector<std::unique_ptr<Vault>> vaults_;
  runtime::RequestCombiner enq_combiner_;
  runtime::RequestCombiner deq_combiner_;

  // CPU-visible role directory.
  CachePadded<std::atomic<std::size_t>> enq_cid_{0};
  CachePadded<std::atomic<std::size_t>> deq_cid_{0};

  CachePadded<std::atomic<std::uint64_t>> rejections_{0};
};

}  // namespace pimds::core
