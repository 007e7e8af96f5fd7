// Epoch-based memory reclamation (EBR) for the lock-free baselines.
//
// Classic 3-epoch scheme (Fraser): readers pin the global epoch on entry;
// retired nodes are freed once every pinned reader has observed a newer
// epoch (two global epoch advances). The read side is as cheap as it gets
// — a guard pins the epoch and individual pointers need no protection, so
// a traversal inside a guard is plain acquire loads — at the cost of
// unbounded garbage while any reader stalls inside a guard.
//
//   EbrDomain::Guard guard(domain);          // RAII critical section
//   Node* n = head.load(std::memory_order_acquire);
//   ...traverse n...
//   guard.retire(victim);                    // deferred free (inside guard)
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cacheline.hpp"

namespace pimds {

namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// Point-in-time accounting for one reclamation domain.
struct ReclaimStats {
  std::uint64_t retired = 0;       ///< nodes handed to retire() so far
  std::uint64_t freed = 0;         ///< nodes whose deleter has run
  std::uint64_t in_flight = 0;     ///< retired - freed (the backlog)
  std::uint64_t slots_in_use = 0;  ///< per-thread participant slots claimed
  std::uint64_t scans = 0;         ///< epoch-advance attempts
  std::uint64_t stalls = 0;        ///< advances blocked by a lagging reader
};

/// One reclamation domain. Threads participate via thread-local slots
/// claimed on first use; at most kMaxThreads threads may ever enter, and
/// the kMaxThreads+1'th participant aborts with a diagnostic instead of
/// corrupting a neighbor's slot.
class EbrDomain {
  struct ThreadSlot;

 public:
  static constexpr std::size_t kMaxThreads = 256;
  /// Retired nodes buffered per thread before attempting an epoch advance.
  static constexpr std::size_t kRetireBatch = 64;

  /// `domain` names this domain's metrics in the obs registry
  /// (`reclaim.<domain>.ebr.*`); empty skips metric registration (anonymous
  /// short-lived domains in tests/benches).
  explicit EbrDomain(std::string domain = "");
  ~EbrDomain() { reclaim_all_unsafe(); }

  EbrDomain(const EbrDomain&) = delete;
  EbrDomain& operator=(const EbrDomain&) = delete;

  /// RAII read-side critical section. Stack-only. While alive, nodes
  /// retired by any thread in the current epoch will not be freed.
  class Guard {
   public:
    explicit Guard(EbrDomain& domain) noexcept
        : domain_(domain), slot_(domain.enter()) {}
    ~Guard();

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    /// Defer `delete p` until no reader can hold a reference.
    template <typename T>
    void retire(T* p) {
      retire(p, [](void* q) { delete static_cast<T*>(q); });
    }
    void retire(void* p, void (*deleter)(void*)) {
      domain_.retire(slot_, p, deleter);
    }

   private:
    EbrDomain& domain_;
    ThreadSlot& slot_;
  };

  /// Tries to advance the epoch and drain the calling thread's limbo lists
  /// (one pass per epoch bucket). Bounds the backlog after a stall clears.
  void flush();

  /// Frees everything immediately. Only safe when no thread is inside a
  /// Guard (e.g. single-threaded teardown).
  void reclaim_all_unsafe();

  ReclaimStats stats() const;

  /// Number of retired-but-unreclaimed nodes owned by the calling thread.
  std::size_t pending_local() const;

  /// Participant slots claimed over this domain's lifetime.
  std::size_t slots_in_use() const noexcept {
    return slots_claimed_.load(std::memory_order_relaxed);
  }

  /// Epoch advances that found a reader pinned to an older epoch (the
  /// "one stalled reader defers everything" signature).
  std::uint64_t epoch_stalls() const noexcept {
    return stalls_.load(std::memory_order_relaxed);
  }

 private:
  struct Retired {
    void* ptr;
    void (*deleter)(void*);
  };

  struct alignas(kCacheLineSize) ThreadSlot {
    // Bit 0: active flag; bits 1..: epoch the thread pinned.
    std::atomic<std::uint64_t> state{0};
    std::atomic<bool> claimed{false};
    std::array<std::vector<Retired>, 3> limbo{};
    std::uint64_t limbo_epoch[3] = {0, 0, 0};
  };

  /// Pins the calling thread's slot to the current epoch (Guard entry).
  ThreadSlot& enter() noexcept;
  void retire(ThreadSlot& slot, void* p, void (*deleter)(void*));

  std::size_t my_slot_index();
  void try_advance_and_reclaim(ThreadSlot& slot);
  void note_freed(std::size_t n) noexcept;

  static std::uint64_t next_domain_id() noexcept;

  /// Distinguishes domains so a thread's cached slot claims cannot alias a
  /// new domain constructed at a recycled address.
  const std::uint64_t id_ = next_domain_id();
  CachePadded<std::atomic<std::uint64_t>> global_epoch_{1};
  std::array<ThreadSlot, kMaxThreads> slots_{};
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::size_t> slots_claimed_{0};

  // Accounting (ReclaimStats; relaxed, read by stats()).
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> scans_{0};
  std::atomic<std::uint64_t> stalls_{0};

  // Obs-registry mirrors; null when the domain is anonymous.
  obs::Counter* m_retired_ = nullptr;
  obs::Counter* m_freed_ = nullptr;
  obs::Counter* m_stalls_ = nullptr;
  obs::Gauge* m_in_flight_ = nullptr;
  obs::Gauge* m_slots_ = nullptr;
  obs::Histogram* m_scan_ns_ = nullptr;
};

inline EbrDomain::Guard::~Guard() {
  slot_.state.store(0, std::memory_order_release);
}

}  // namespace pimds
