// Arena for spilled fat-message payloads (runtime/message.hpp).
//
// A combined batch larger than kMessageInlineFat cannot ride inside the
// message, so the combiner borrows a fixed-size block of kMaxFatEntries
// FatEntry slots here, fills it, and ships the pointer. The serving PIM
// core returns the block after decoding (release_fat_payload). Blocks
// cycle through a lock-free pool, so the steady-state request path does no
// heap allocation — the pool only grows to the peak number of batches in
// flight.
//
// Reclamation runs through the pluggable seam (common/reclaim.hpp):
// release() retires the block instead of recycling it immediately, so a
// block can never re-enter the pool — and be handed to another sender —
// while any thread still inside a read-side guard could be reading it.
// That makes the recycling ABA-free without a tagged-pointer freelist.
// The arena retires through EBR.
//
// outstanding() (acquired minus released) is the leak detector the
// shutdown balance assertions use: after a system quiesces it must be zero
// or a spilled batch was dropped without being served.
#pragma once

#include <cstdint>
#include <memory>

#include "common/mpmc_queue.hpp"
#include "common/reclaim.hpp"
#include "obs/metrics.hpp"
#include "runtime/message.hpp"

namespace pimds::runtime {

class FatArena {
 public:
  /// Pool capacity: blocks beyond this many simultaneously retired fall
  /// back to the heap deleter instead of recycling.
  static constexpr std::size_t kPoolCapacity = 1024;

  static FatArena& instance();

  /// Process-exit teardown: frees every retired and pooled block, so leak
  /// checkers see the pool released.
  ~FatArena();

  FatArena(const FatArena&) = delete;
  FatArena& operator=(const FatArena&) = delete;

  /// Borrow a block of kMaxFatEntries entries (pool hit or heap growth).
  FatEntry* acquire();

  /// Return a block. Safe from any thread; the block re-enters the pool
  /// only after the reclaimer proves no reader can still reference it.
  void release(FatEntry* block);

  /// Blocks acquired but not yet released. Zero once every fat message has
  /// been served — the shutdown-time leak check.
  std::uint64_t outstanding() const noexcept {
    return acquires_.value() - releases_.value();
  }

  /// Heap allocations (pool misses); steady state stops growing this.
  std::uint64_t heap_allocs() const noexcept { return heap_allocs_.value(); }

  /// The arena's reclamation domain (metrics name "reclaim.fat_arena.*").
  Reclaimer& reclaimer() noexcept { return *reclaim_; }

 private:
  FatArena();

  static void recycle(void* p);  ///< deferred deleter: pool push or delete[]

  MpmcQueue<FatEntry*> pool_;
  std::unique_ptr<Reclaimer> reclaim_;
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
