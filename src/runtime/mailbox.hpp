// PIM-core mailbox: many CPU/PIM senders, one PIM-core receiver.
//
// Transport: cache-line-padded per-sender lock-free SPSC lanes
// (common/spsc_ring.hpp). The first time a thread sends to a mailbox it
// claims a private lane (lazily allocated, capacity = the full mailbox
// capacity) and caches the binding thread-locally, so the steady-state send
// is one SPSC push — no CAS, no cross-sender cache-line traffic. Senders
// beyond the lane supply share a Vyukov MPMC overflow ring (counted, so
// saturating the lane table is visible in stats). The receiver drains the
// lanes in a fair round-robin sweep, a bounded chunk per lane per pass, so
// one chatty sender cannot starve the others.
//
// Messages are timestamped at send; when latency injection is enabled a
// message becomes *deliverable* at send_time + Lmessage, emulating the
// crossbar transfer without blocking the sender.
//
// The receiver-side API is built around batch drain + deferred delivery
// (the Section 5.2 pipelining substrate):
//  - drain() pops every already-deliverable message in one pass and parks
//    not-yet-deliverable ones in a small pending min-heap instead of
//    spinning the core. The core never stalls head-of-line on a message
//    that is still "in flight" — it serves whatever is ready, which is what
//    lets its service rate approach 1/Lpim instead of 1/(Lmessage + Lpim).
//  - poll() keeps the legacy per-message semantics (block until the next
//    message's delivery time) for the ablation/compat path.
//
// FIFO per sender-receiver pair holds across all of these: a sender's lane
// preserves its program order, the round-robin sweep consumes each lane in
// order, and under injection every lane is parked into the pending heap
// before delivery-time ordering applies — the heap orders by (ready_ns,
// arrival) where ready_ns is monotone per sender (send_time is monotone,
// Lmessage is constant). The thread-local lane binding is stable while a
// thread's working set of mailboxes stays within kSenderCacheCap (far
// above any fan-out here); an evicted-and-rebound sender still gets FIFO
// under injection via the monotone ready_ns ordering.
//
// Thread-safety: send() is safe from any number of threads; drain()/poll()/
// drain_all()/empty() are receiver-only (the owning PIM-core thread).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/backoff.hpp"
#include "common/latency.hpp"
#include "common/mpmc_queue.hpp"
#include "common/spinwait.hpp"
#include "common/spsc_ring.hpp"
#include "common/timing.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "runtime/message.hpp"

namespace pimds::runtime {

class Mailbox {
 public:
  /// Per-sender lanes before senders fall back to the overflow ring.
  static constexpr std::size_t kDefaultLanes = 32;
  /// Messages consumed per lane per round-robin pass (fairness bound).
  static constexpr std::size_t kLaneChunk = 8;
  /// Mailbox bindings cached per sender thread before LRU eviction.
  static constexpr std::size_t kSenderCacheCap = 64;

  explicit Mailbox(std::size_t capacity = 4096,
                   std::size_t max_lanes = kDefaultLanes)
      : capacity_(capacity < 2 ? 2 : capacity),
        max_lanes_(max_lanes < 1 ? 1 : max_lanes),
        id_(next_mailbox_id()),
        lanes_(new Lane[max_lanes < 1 ? 1 : max_lanes]),
        overflow_(capacity_) {}

  ~Mailbox() {
    const std::size_t nl = claimed_lanes();
    for (std::size_t i = 0; i < nl; ++i) {
      delete lanes_[i].ring.load(std::memory_order_acquire);
    }
    delete[] lanes_;
    // Stale thread-local bindings to this mailbox are harmless: ids are
    // process-unique and never reused, so they can only miss, never alias.
  }

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueue a message onto the calling thread's private lane (claimed on
  /// first send). Backs off (bounded exponential) while the lane is full
  /// and counts the stalls, so saturation shows up in stats instead of as
  /// a mystery CPU burn.
  void send(Message m) {
    m.send_time_ns = now_ns();
    if (SpscRing<Message>* lane = sender_lane()) {
      if (lane->try_push(m)) return;
      Backoff backoff;
      do {
        send_full_spins_.add(1);
        backoff.pause();
      } while (!lane->try_push(m));
      return;
    }
    // Lane table exhausted: shared MPMC overflow path.
    overflow_sends_.add(1);
    if (overflow_.try_push(m)) return;
    Backoff backoff;
    do {
      send_full_spins_.add(1);
      backoff.pause();
    } while (!overflow_.try_push(m));
  }

  /// Pop every deliverable message (up to `max_n`) into `out` in one pass.
  /// Messages whose delivery time has not arrived are parked in the pending
  /// heap rather than blocking the caller. Returns the number appended.
  std::size_t drain(std::vector<Message>& out, std::size_t max_n) {
    auto& injector = LatencyInjector::instance();
    std::size_t n = 0;
    if (!injector.enabled()) {
      // No injection: everything is deliverable the moment it is popped.
      while (n < max_n && !pending_.empty()) {
        out.push_back(pop_pending());
        ++n;
      }
      n += sweep(out, max_n - n);
      if (n > 0) drain_batch_.record(n);
      return n;
    }
    // Park every lane into the pending heap first so an earlier-sent
    // parked message can never be overtaken by a later lane arrival.
    park_all(static_cast<std::uint64_t>(injector.params().message()));
    const std::uint64_t now = now_ns();
    while (n < max_n && !pending_.empty() &&
           pending_.front().ready_ns <= now) {
      out.push_back(pop_pending());
      ++n;
    }
    if (n > 0) drain_batch_.record(n);
    return n;
  }

  /// Legacy per-message receive: pop the next message and busy-wait until
  /// its delivery time. Kept for the seed-path ablation (the head-of-line
  /// stall this models is exactly what drain() removes).
  std::optional<Message> poll() {
    auto& injector = LatencyInjector::instance();
    if (injector.enabled()) {
      park_all(static_cast<std::uint64_t>(injector.params().message()));
    }
    if (!pending_.empty()) {
      const std::uint64_t ready = pending_.front().ready_ns;
      Message m = pop_pending();
      while (now_ns() < ready) cpu_relax();
      return m;
    }
    return pop_one();
  }

  /// Drain everything regardless of delivery time (shutdown: the backlog
  /// must be processed, not lost). Returns the number appended.
  std::size_t drain_all(std::vector<Message>& out) {
    std::size_t n = 0;
    while (!pending_.empty()) {
      out.push_back(pop_pending());
      ++n;
    }
    n += sweep(out, std::numeric_limits<std::size_t>::max());
    return n;
  }

  /// Delivery time of the earliest parked message, or 0 if none is parked
  /// (receiver-only; lets an idle core size its wait).
  std::uint64_t next_pending_ready_ns() const noexcept {
    return pending_.empty() ? 0 : pending_.front().ready_ns;
  }

  /// True when nothing is queued or parked (exact only on the receiver
  /// thread with senders quiesced).
  bool empty() const noexcept {
    if (!pending_.empty() || !overflow_.empty()) return false;
    const std::size_t nl = claimed_lanes();
    for (std::size_t i = 0; i < nl; ++i) {
      SpscRing<Message>* ring = lanes_[i].ring.load(std::memory_order_acquire);
      if (ring != nullptr && !ring->empty()) return false;
    }
    return true;
  }

  /// Total backoff pauses taken by senders that found their lane (or the
  /// overflow ring) full.
  std::uint64_t send_full_spins() const noexcept {
    return send_full_spins_.value();
  }

  /// High-water mark of the pending (in-flight) heap size.
  std::uint64_t pending_high_water() const noexcept {
    return pending_hwm_.value();
  }

  /// Lanes claimed by distinct sender threads so far.
  std::size_t active_lanes() const noexcept { return claimed_lanes(); }

  /// Sends routed through the shared overflow ring (lane table full).
  std::uint64_t overflow_sends() const noexcept {
    return overflow_sends_.value();
  }

  /// Per-instance metrics, exposed so an owner (PimSystem) can register
  /// them with the process-wide obs::Registry under vault-scoped names.
  const obs::Counter& send_full_spins_counter() const noexcept {
    return send_full_spins_;
  }
  const obs::Gauge& pending_hwm_gauge() const noexcept {
    return pending_hwm_;
  }
  const obs::Histogram& drain_batch_histogram() const noexcept {
    return drain_batch_;
  }
  const obs::Gauge& lane_depth_hwm_gauge() const noexcept {
    return lane_depth_hwm_;
  }
  const obs::Gauge& active_lanes_gauge() const noexcept {
    return active_lanes_;
  }
  const obs::Counter& overflow_sends_counter() const noexcept {
    return overflow_sends_;
  }

 private:
  struct alignas(kCacheLineSize) Lane {
    std::atomic<SpscRing<Message>*> ring{nullptr};
  };

  struct Pending {
    std::uint64_t ready_ns;
    std::uint64_t seq;  ///< arrival order, breaks ready_ns ties FIFO
    Message msg;
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const noexcept {
      if (a.ready_ns != b.ready_ns) return a.ready_ns > b.ready_ns;
      return a.seq > b.seq;
    }
  };

  /// A sender thread's cached mailbox→lane binding (nullptr ring = this
  /// thread is an overflow sender for that mailbox).
  struct LaneBinding {
    std::uint64_t box_id;
    SpscRing<Message>* ring;
  };

  static std::uint64_t next_mailbox_id() noexcept {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  std::size_t claimed_lanes() const noexcept {
    return std::min(next_lane_.load(std::memory_order_acquire), max_lanes_);
  }

  /// The calling thread's lane into this mailbox, claiming one on first
  /// use. MRU-ordered thread-local cache: the common case (a CPU thread
  /// ping-ponging between a couple of vault mailboxes) hits in the first
  /// probe or two.
  SpscRing<Message>* sender_lane() {
    thread_local std::vector<LaneBinding> cache;
    for (std::size_t i = 0; i < cache.size(); ++i) {
      if (cache[i].box_id == id_) {
        SpscRing<Message>* ring = cache[i].ring;
        if (i > 0) std::swap(cache[i], cache[i - 1]);  // age toward MRU
        return ring;
      }
    }
    SpscRing<Message>* ring = nullptr;
    const std::size_t lane =
        next_lane_.fetch_add(1, std::memory_order_acq_rel);
    if (lane < max_lanes_) {
      ring = new SpscRing<Message>(capacity_);
      lanes_[lane].ring.store(ring, std::memory_order_release);
      active_lanes_.record_max(lane + 1);
    }
    if (cache.size() >= kSenderCacheCap) cache.pop_back();  // evict LRU
    cache.insert(cache.begin(), LaneBinding{id_, ring});
    return ring;
  }

  /// Receiver-only round-robin sweep over the lanes + overflow ring,
  /// kLaneChunk per lane per pass. Rotates the starting lane across calls
  /// so no lane is structurally favored.
  std::size_t sweep(std::vector<Message>& out, std::size_t max_n) {
    if (max_n == 0) return 0;
    const std::size_t nl = claimed_lanes();
    std::size_t n = 0;
    bool progress = true;
    while (n < max_n && progress) {
      progress = false;
      for (std::size_t i = 0; i < nl && n < max_n; ++i) {
        SpscRing<Message>* ring =
            lanes_[(rr_ + i) % nl].ring.load(std::memory_order_acquire);
        if (ring == nullptr) continue;
        lane_depth_hwm_.record_max(ring->size());
        const std::size_t got = ring->consume(
            [&](Message&& m) { out.push_back(std::move(m)); },
            std::min(kLaneChunk, max_n - n));
        if (got > 0) {
          n += got;
          progress = true;
        }
      }
      while (n < max_n) {
        std::optional<Message> m = overflow_.try_pop();
        if (!m) break;
        out.push_back(*m);
        ++n;
        progress = true;
      }
    }
    if (nl > 0) rr_ = (rr_ + 1) % nl;
    return n;
  }

  /// Receiver-only single pop (no delivery-time handling).
  std::optional<Message> pop_one() {
    const std::size_t nl = claimed_lanes();
    for (std::size_t i = 0; i < nl; ++i) {
      SpscRing<Message>* ring =
          lanes_[(rr_ + i) % nl].ring.load(std::memory_order_acquire);
      if (ring == nullptr) continue;
      if (std::optional<Message> m = ring->try_pop()) {
        rr_ = (rr_ + i + 1) % nl;
        return m;
      }
    }
    return overflow_.try_pop();
  }

  /// Move every queued message into the pending heap with its delivery
  /// time. Per-sender FIFO survives the heap because ready_ns is monotone
  /// per sender and seq preserves each lane's consume order.
  void park_all(std::uint64_t lmsg) {
    const std::size_t nl = claimed_lanes();
    for (std::size_t i = 0; i < nl; ++i) {
      SpscRing<Message>* ring = lanes_[i].ring.load(std::memory_order_acquire);
      if (ring == nullptr) continue;
      lane_depth_hwm_.record_max(ring->size());
      ring->consume(
          [&](Message&& m) { park(std::move(m), lmsg); },
          std::numeric_limits<std::size_t>::max());
    }
    while (std::optional<Message> m = overflow_.try_pop()) park(*m, lmsg);
    pending_hwm_.record_max(pending_.size());
  }

  void park(Message m, std::uint64_t lmsg) {
    pending_.push_back(Pending{m.send_time_ns + lmsg, pending_seq_++, m});
    std::push_heap(pending_.begin(), pending_.end(), PendingLater{});
  }

  Message pop_pending() {
    std::pop_heap(pending_.begin(), pending_.end(), PendingLater{});
    Message m = pending_.back().msg;
    pending_.pop_back();
    return m;
  }

  std::size_t capacity_;   ///< per-lane (and overflow) ring capacity
  std::size_t max_lanes_;
  std::uint64_t id_;       ///< process-unique, never reused
  Lane* lanes_;            ///< fixed table; rings allocated lazily on claim
  std::atomic<std::size_t> next_lane_{0};
  MpmcQueue<Message> overflow_;
  std::size_t rr_ = 0;     ///< round-robin sweep start; receiver-only
  std::vector<Pending> pending_;  ///< min-heap by (ready_ns, seq); receiver-only
  std::uint64_t pending_seq_ = 0;
  obs::Counter send_full_spins_;
  obs::Counter overflow_sends_;
  obs::Gauge pending_hwm_;
  obs::Gauge lane_depth_hwm_;
  obs::Gauge active_lanes_;
  obs::Histogram drain_batch_;
};

/// Longest sleep step of ResponseSlot::await's publish wait: Lmessage / 2
/// while latency injection is on, so no step sleeps through the whole
/// flight of a reply published just after it began; SpinWait's default cap
/// otherwise. The core loop's idle wait keeps the default cap: capping it
/// too cost oversubscribed runs more in wakeups than it saved (DESIGN §5b).
inline std::uint32_t reply_wait_cap_ns() noexcept {
  const LatencyInjector& injector = LatencyInjector::instance();
  if (!injector.enabled()) return SpinWait::kMaxSleepNs;
  const double half = injector.params().message() / 2;
  return half < SpinWait::kMaxSleepNs ? static_cast<std::uint32_t>(half)
                                      : SpinWait::kMaxSleepNs;
}

/// One-shot response slot a CPU thread waits on. Single producer (the PIM
/// core serving the request), single consumer (the requesting CPU), reused
/// across requests by the same CPU.
template <typename R>
class ResponseSlot {
 public:
  /// Producer: publish a response that becomes visible at `ready_ns`
  /// (pass 0 for "immediately"). The publish instant is stamped so the
  /// consumer can attribute the measured flight time (publish → delivery)
  /// instead of the modeled constant.
  void publish(R value, std::uint64_t ready_ns = 0) {
    value_ = std::move(value);
    ready_ns_.value.store(ready_ns, std::memory_order_relaxed);
    pub_ns_.store(obs::metrics_enabled() ? now_ns() : 0,
                  std::memory_order_relaxed);
    full_.value.store(true, std::memory_order_release);
  }

  /// Consumer: wait until a response is published AND its delivery time has
  /// passed, then consume it. The publish wait escalates to yielding and
  /// then sleeping (SpinWait, steps capped by reply_wait_cap_ns) so
  /// oversubscribed runs (threads > cores) cannot livelock the publisher;
  /// the post-publish delivery wait has a known deadline, so it
  /// escalates further — spin, then yield, then sleep through long in-flight
  /// windows (wait_until_ns) instead of churning the scheduler.
  ///
  /// Latency attribution (single-timestamp discipline: one now_ns() per
  /// transition, shared across the phase boundary):
  ///  - response_flight = delivery instant − publish stamp, the *measured*
  ///    crossing (varies with where in the batch the publish landed);
  ///  - cpu_receive = consumer wakeup instant − delivery instant, the only
  ///    phase the requester itself can observe.
  R await() {
    SpinWait spin(SpinWait::kDefaultSpinLimit, reply_wait_cap_ns());
    while (!full_.value.load(std::memory_order_acquire)) spin.wait();
    const bool obs_on = obs::metrics_enabled();
    const std::uint64_t ready = ready_ns_.value.load(std::memory_order_relaxed);
    std::uint64_t t_wake = (obs_on || ready != 0) ? now_ns() : 0;
    if (ready != 0 && t_wake < ready) {
      wait_until_ns(ready);
      t_wake = now_ns();
    }
    if (obs_on) {
      const std::uint64_t t_pub = pub_ns_.load(std::memory_order_relaxed);
      // Consumable at the later of "published" and "off the wire".
      const std::uint64_t t_deliver = std::max(t_pub, std::min(ready, t_wake));
      if (ready != 0) {
        obs::record_runtime_phase(
            obs::Phase::kResponseFlight,
            t_deliver > t_pub ? t_deliver - t_pub : 0);
      }
      obs::record_runtime_phase(obs::Phase::kCpuReceive,
                                t_wake > t_deliver ? t_wake - t_deliver : 0);
    }
    R out = std::move(value_);
    full_.value.store(false, std::memory_order_release);
    return out;
  }

 private:
  R value_{};
  CachePadded<std::atomic<std::uint64_t>> ready_ns_{0};
  /// Publish stamp; producer-written before the full_ release like
  /// ready_ns_, consumer-read after the acquire (relaxed suffices).
  std::atomic<std::uint64_t> pub_ns_{0};
  CachePadded<std::atomic<bool>> full_{false};
};

}  // namespace pimds::runtime
