// Arena for spilled fat-message payloads (runtime/message.hpp).
//
// A combined batch larger than kMessageInlineFat cannot ride inside the
// message, so the combiner borrows a fixed-size block of kMaxFatEntries
// FatEntry slots here, fills it, and ships the pointer. The serving PIM
// core returns the block after decoding (release_fat_payload). Blocks
// cycle through a lock-free pool, so once the pool holds the peak number
// of batches in flight the request path does no heap allocation.
//
// release() pushes the block straight back into the pool. That is safe
// because every caller releases after the block's last read, and the pool
// is a bounded MPMC ring with per-cell sequence numbers
// (common/mpmc_queue.hpp), not a pointer freelist, so recycling has no ABA
// problem. A release that finds the pool full frees the block.
//
// outstanding() (acquired minus released) is the leak detector the
// shutdown balance assertions use: after a system quiesces it must be zero
// or a spilled batch was dropped without being served.
#pragma once

#include <cstdint>

#include "common/mpmc_queue.hpp"
#include "obs/metrics.hpp"
#include "runtime/message.hpp"

namespace pimds::runtime {

class FatArena {
 public:
  /// Pool capacity: blocks released while the pool is full are freed
  /// instead of recycled.
  static constexpr std::size_t kPoolCapacity = 1024;

  static FatArena& instance();

  /// Process-exit teardown: frees every pooled block, so leak checkers see
  /// the pool released.
  ~FatArena();

  FatArena(const FatArena&) = delete;
  FatArena& operator=(const FatArena&) = delete;

  /// Borrow a block of kMaxFatEntries entries (pool hit or heap growth).
  FatEntry* acquire();

  /// Return a block after its last read. Safe from any thread.
  void release(FatEntry* block);

  /// Blocks acquired but not yet released. Zero once every fat message has
  /// been served — the shutdown-time leak check.
  std::uint64_t outstanding() const noexcept {
    return acquires_.value() - releases_.value();
  }

  /// Heap allocations (pool misses); steady state stops growing this.
  std::uint64_t heap_allocs() const noexcept { return heap_allocs_.value(); }

 private:
  FatArena();

  MpmcQueue<FatEntry*> pool_;
  // Registry-owned (runtime.fat_arena.*): process-wide like the arena.
  obs::Counter& acquires_;
  obs::Counter& releases_;
  obs::Counter& heap_allocs_;
};

/// Return a message's spilled payload (if any) to the arena. Call exactly
/// once per received fat message, after its entries are decoded.
inline void release_fat_payload(const Message& m) {
  if (m.fat_spilled) FatArena::instance().release(m.fat.spill);
}

}  // namespace pimds::runtime
