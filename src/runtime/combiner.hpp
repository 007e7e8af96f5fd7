// CPU-side request combining: the one real-thread combining harness. It
// runs the Section 4.1 combining optimization on the runtime's request path
// and is the flat combiner (Hendler et al. [25]) of the FC baselines, whose
// leader serves the batch in place instead of shipping it
// (baselines::combine_in_place). The simulator keeps its own virtual-time
// harness, sim/flat_combining.hpp (DESIGN §5j).
//
// Co-located CPU threads targeting the same PIM core publish their requests
// into a shared queue; whoever wins the (try-lock) combiner role gathers up
// to kMaxCombine published requests into one fat Message and ships the
// whole batch across the crossbar as ONE message — the batch-per-crossing
// shape. The PIM core serves every entry and publishes each requester's
// response slot with one shared ready_ns: the batch's single fat response
// message.
//
// The batch travels zero-copy inside the Message itself (runtime/
// message.hpp): up to kMessageInlineFat entries ride inline (SBO), larger
// batches borrow a pooled FatArena block — either way the flush path does
// no per-op heap allocation. Each entry carries its requester's req_id, so
// combined ops keep their trace correlation.
//
// A requester whose record was picked up by another thread's flush just
// waits on its own slot; a requester left behind (batch filled up) keeps
// competing for the combiner role until its record has been shipped, so no
// request can be stranded.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>

#include "common/cacheline.hpp"
#include "common/mpmc_queue.hpp"
#include "common/spinwait.hpp"
#include "runtime/fat_arena.hpp"
#include "runtime/message.hpp"

namespace pimds::runtime {

class RequestCombiner {
 public:
  /// Cap on requests per crossbar message. 16 keys the batch at a few cache
  /// lines — the "fat node" regime of Section 5.1.
  static constexpr std::size_t kMaxCombine = kMaxFatEntries;

  /// One combined request: the fat-message entry itself (zero-copy — what
  /// a requester submits is exactly what the PIM core decodes).
  using Entry = FatEntry;

  explicit RequestCombiner(std::size_t queue_capacity = 1024)
      : queue_(queue_capacity) {}

  RequestCombiner(const RequestCombiner&) = delete;
  RequestCombiner& operator=(const RequestCombiner&) = delete;

  /// Publish `entry` and return once it has been shipped in some batch
  /// (ours or another thread's). The caller then awaits its response slot.
  /// `send` receives a Message whose fat payload holds the batch; it must
  /// set the opcode and transmit it (payload ownership moves with it — the
  /// receiver releases any spill via release_fat_payload).
  template <typename SendFn>
  void submit(const Entry& entry, SendFn&& send) {
    Record rec{};
    rec.entry = entry;
    queue_.push(&rec);
    SpinWait spin;
    while (!rec.shipped.value.load(std::memory_order_acquire)) {
      if (try_lock()) {
        flush(send);
        unlock();
        spin.reset();
      } else {
        spin.wait();
      }
    }
  }

  /// Diagnostics.
  std::uint64_t batches_sent() const noexcept {
    return batches_.value.load(std::memory_order_relaxed);
  }
  std::uint64_t requests_combined() const noexcept {
    return combined_.value.load(std::memory_order_relaxed);
  }
  std::uint64_t max_batch() const noexcept {
    return max_batch_.value.load(std::memory_order_relaxed);
  }

 private:
  struct Record {
    Entry entry;
    CachePadded<std::atomic<bool>> shipped{false};
  };

  bool try_lock() noexcept {
    return !lock_.value.exchange(true, std::memory_order_acquire);
  }
  void unlock() noexcept { lock_.value.store(false, std::memory_order_release); }

  template <typename SendFn>
  void flush(SendFn&& send) {
    Record* picked[kMaxCombine];
    std::uint32_t n = 0;
    while (n < kMaxCombine) {
      std::optional<Record*> r = queue_.try_pop();
      if (!r) break;
      picked[n++] = *r;
    }
    if (n == 0) return;
    Message m;
    m.fat_count = static_cast<std::uint16_t>(n);
    FatEntry* entries = m.fat.inline_;
    if (n > kMessageInlineFat) {
      m.fat_spilled = 1;
      m.fat.spill = FatArena::instance().acquire();
      entries = m.fat.spill;
    }
    for (std::uint32_t i = 0; i < n; ++i) entries[i] = picked[i]->entry;
    send(m);  // payload ownership moves to the PIM core
    // Only after the batch is on the wire may the requesters stop waiting
    // (their records are stack-allocated in submit()).
    for (std::uint32_t i = 0; i < n; ++i) {
      picked[i]->shipped.value.store(true, std::memory_order_release);
    }
    batches_.value.fetch_add(1, std::memory_order_relaxed);
    combined_.value.fetch_add(n, std::memory_order_relaxed);
    std::uint64_t seen = max_batch_.value.load(std::memory_order_relaxed);
    while (n > seen && !max_batch_.value.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }

  MpmcQueue<Record*> queue_;
  CachePadded<std::atomic<bool>> lock_{false};
  CachePadded<std::atomic<std::uint64_t>> batches_{0};
  CachePadded<std::atomic<std::uint64_t>> combined_{0};
  CachePadded<std::atomic<std::uint64_t>> max_batch_{0};
};

}  // namespace pimds::runtime
