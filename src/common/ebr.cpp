#include "common/ebr.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "common/timing.hpp"
#include "obs/metrics.hpp"

namespace pimds {

namespace {

// Per-thread cache of (domain -> slot index) claims. A thread typically
// touches one or two domains, so a flat vector beats a hash map.
struct SlotClaim {
  std::uint64_t domain_id;
  std::size_t index;
};
thread_local std::vector<SlotClaim> t_claims;

}  // namespace

EbrDomain::EbrDomain(std::string domain) {
  if (!domain.empty()) {
    auto& reg = obs::Registry::instance();
    const std::string base = "reclaim." + domain + ".ebr.";
    m_retired_ = &reg.counter(base + "retired");
    m_freed_ = &reg.counter(base + "freed");
    m_stalls_ = &reg.counter(base + "epoch_stall");
    m_in_flight_ = &reg.gauge(base + "in_flight");
    m_slots_ = &reg.gauge(base + "slots_in_use");
    m_scan_ns_ = &reg.histogram(base + "scan_ns");
  }
}

std::uint64_t EbrDomain::next_domain_id() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::size_t EbrDomain::my_slot_index() {
  for (const auto& claim : t_claims) {
    if (claim.domain_id == id_) return claim.index;
  }
  for (std::size_t i = 0; i < kMaxThreads; ++i) {
    bool expected = false;
    if (!slots_[i].claimed.load(std::memory_order_relaxed) &&
        slots_[i].claimed.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
      t_claims.push_back({id_, i});
      // Track the highest claimed slot so epoch scans stay short.
      std::size_t hw = high_water_.load(std::memory_order_relaxed);
      while (hw < i + 1 && !high_water_.compare_exchange_weak(
                               hw, i + 1, std::memory_order_relaxed)) {
      }
      const std::size_t used =
          slots_claimed_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (m_slots_ != nullptr) m_slots_->record_max(used);
      return i;
    }
  }
  // Guard entry is noexcept, so a throw here would terminate without a
  // message anyway; fail loudly instead of corrupting a neighbor's slot.
  std::fprintf(stderr,
               "EbrDomain: participant cap exhausted (%zu threads have "
               "claimed slots; kMaxThreads=%zu). Slots are claimed per "
               "(thread, domain) on first guard entry and never recycled — "
               "reuse worker threads or raise kMaxThreads.\n",
               slots_claimed_.load(std::memory_order_relaxed), kMaxThreads);
  std::abort();
}

EbrDomain::ThreadSlot& EbrDomain::enter() noexcept {
  ThreadSlot& slot = slots_[my_slot_index()];
  const std::uint64_t e = global_epoch_.value.load(std::memory_order_acquire);
  slot.state.store((e << 1) | 1, std::memory_order_relaxed);
  // The pin must be visible before any read of shared structure; a seq_cst
  // fence pairs with the scan in try_advance_and_reclaim.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  return slot;
}

void EbrDomain::note_freed(std::size_t n) noexcept {
  if (n == 0) return;
  freed_.fetch_add(n, std::memory_order_relaxed);
  if (m_freed_ != nullptr) m_freed_->add(n);
  if (m_in_flight_ != nullptr) {
    m_in_flight_->set(retired_.load(std::memory_order_relaxed) -
                      freed_.load(std::memory_order_relaxed));
  }
}

void EbrDomain::retire(ThreadSlot& slot, void* p, void (*deleter)(void*)) {
  assert((slot.state.load(std::memory_order_relaxed) & 1) &&
         "retire() requires an active Guard");
  retired_.fetch_add(1, std::memory_order_relaxed);
  if (m_retired_ != nullptr) m_retired_->add(1);
  const std::uint64_t e = global_epoch_.value.load(std::memory_order_acquire);
  auto& list = slot.limbo[e % 3];
  if (slot.limbo_epoch[e % 3] != e) {
    // The resident list is from epoch e-3 or older (two epochs behind e-1),
    // so every reader that could see those nodes has unpinned: free it.
    for (const Retired& r : list) r.deleter(r.ptr);
    note_freed(list.size());
    list.clear();
    slot.limbo_epoch[e % 3] = e;
  }
  list.push_back({p, deleter});
  if (list.size() >= kRetireBatch) try_advance_and_reclaim(slot);
}

void EbrDomain::try_advance_and_reclaim(ThreadSlot& slot) {
  scans_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t t0 = m_scan_ns_ != nullptr ? now_ns() : 0;
  const std::uint64_t e = global_epoch_.value.load(std::memory_order_acquire);
  const std::size_t hw = high_water_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < hw; ++i) {
    const std::uint64_t s = slots_[i].state.load(std::memory_order_acquire);
    if ((s & 1) && (s >> 1) != e) {
      // A reader lags behind epoch e: nothing can be freed this pass. This
      // is the EBR pathology the soak test watches — a single parked guard
      // stalls reclamation for every thread in the domain.
      stalls_.fetch_add(1, std::memory_order_relaxed);
      if (m_stalls_ != nullptr) m_stalls_->add(1);
      return;
    }
  }
  std::uint64_t expected = e;
  global_epoch_.value.compare_exchange_strong(expected, e + 1,
                                              std::memory_order_acq_rel);
  const std::uint64_t now = global_epoch_.value.load(std::memory_order_acquire);
  std::size_t n_freed = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    if (!slot.limbo[i].empty() && slot.limbo_epoch[i] + 2 <= now) {
      for (const Retired& r : slot.limbo[i]) r.deleter(r.ptr);
      n_freed += slot.limbo[i].size();
      slot.limbo[i].clear();
    }
  }
  note_freed(n_freed);
  if (m_scan_ns_ != nullptr) m_scan_ns_->record(now_ns() - t0);
}

void EbrDomain::flush() {
  ThreadSlot& slot = slots_[my_slot_index()];
  // Each successful pass advances one epoch; three passes age every limbo
  // bucket past the two-epoch survival window when no reader is pinned.
  for (int i = 0; i < 3; ++i) try_advance_and_reclaim(slot);
}

void EbrDomain::reclaim_all_unsafe() {
  const std::size_t hw = high_water_.load(std::memory_order_acquire);
  std::size_t n_freed = 0;
  for (std::size_t i = 0; i < hw; ++i) {
    for (auto& list : slots_[i].limbo) {
      for (const Retired& r : list) r.deleter(r.ptr);
      n_freed += list.size();
      list.clear();
    }
  }
  note_freed(n_freed);
}

ReclaimStats EbrDomain::stats() const {
  ReclaimStats s;
  s.retired = retired_.load(std::memory_order_relaxed);
  s.freed = freed_.load(std::memory_order_relaxed);
  s.in_flight = s.retired - s.freed;
  s.slots_in_use = slots_claimed_.load(std::memory_order_relaxed);
  s.scans = scans_.load(std::memory_order_relaxed);
  s.stalls = stalls_.load(std::memory_order_relaxed);
  return s;
}

std::size_t EbrDomain::pending_local() const {
  for (const auto& claim : t_claims) {
    if (claim.domain_id == id_) {
      const ThreadSlot& slot = slots_[claim.index];
      return slot.limbo[0].size() + slot.limbo[1].size() +
             slot.limbo[2].size();
    }
  }
  return 0;
}

}  // namespace pimds
