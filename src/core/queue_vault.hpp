// Algorithm 1's vault side (Section 5), written once for both substrates.
//
// The queue is a chain of segments, each resident in some vault. Two roles
// travel along the chain: the ENQUEUE segment accepts new nodes and the
// DEQUEUE segment surrenders them, so with the roles on different vaults two
// PIM cores serve enqueues and dequeues in parallel. A segment past the
// threshold hands the enqueue role to the core opposite the dequeue core,
// (deq + k/2) mod k (newEnqSeg); a drained dequeue segment hands the
// dequeue role to the core holding the next segment (newDeqSeg). A request
// reaching a core that no longer holds its role is rejected, and the CPU
// retries against the role directory.
//
// The opposite-core rule keeps the two roles apart at k = 4, 5, 6 and 8
// vaults in the Section 5.2 runs (0 ops served by a core holding both),
// but not at every k: at k = 2 and 3 the roles still meet for tens of
// thousands of ops, and at k = 7 for about a thousand (DESIGN §5i).
//
// QueueVault is one vault's share of the protocol, run by both the runtime
// queue (core::PimFifoQueue) and the simulator (sim::run_pim_queue). Each
// decodes its own messages into the calls below and passes its vault
// context (a member-function template parameter): self(), deq_role_owner(),
// send(vault, QueueSignal), charge(n local accesses), reply(requesters,
// replies, n) as one fat response, create<T>/destroy (the vault allocator)
// and publish_enq_role()/publish_deq_role() (the role directory).
//
// A drain pass feeds requests with enqueue()/dequeue(), closes each request
// message with end_message(), applies core-to-core messages with signal(),
// and ends with serve(). With enqueue_combining (Section 5.1's fat nodes)
// the whole pass is gathered, and its n enqueues are packed into
// ceil(n / kFatNodeCapacity) fat nodes, one access each. A dequeue batch
// costs one access per fat node it reads from, so dequeued values are as
// cheap as the enqueue groups that packed them, and each fat node's values
// are answered as soon as it is read. Without combining each message is
// served on its own and every value is its own node: one access per value,
// enqueued or dequeued. Gathering reorders a request only behind other
// senders' requests, which are concurrent with it (a CPU has one request
// in flight), so it stays linearizable.
//
// `Fault` is the mutation-testing hook (sim::QueueFault); the default
// NoQueueFault has no state and folds away.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cacheline.hpp"
#include "obs/metrics.hpp"

namespace pimds::core {

/// accepted = false: wrong core, re-read the directory and resend. A
/// dequeue that found the queue empty is accepted without a value.
struct QueueReply {
  bool accepted = false;
  bool has_value = false;
  std::uint64_t value = 0;

  bool operator==(const QueueReply&) const = default;
};

/// Algorithm 1's core-to-core messages.
enum class QueueSignal : std::uint8_t { kNewEnqSeg, kNewDeqSeg };

/// One substrate's registry metrics, named `<prefix>.<name>`. Process-wide:
/// queues on the same substrate aggregate.
struct QueueMetrics {
  explicit QueueMetrics(const std::string& prefix)
      : enq_ops(reg().counter(prefix + ".enq_ops")),
        enq_batches(reg().counter(prefix + ".enq_batches")),
        rejections(reg().counter(prefix + ".rejections")),
        handoffs(reg().counter(prefix + ".segment_handoffs")),
        segments_destroyed(reg().counter(prefix + ".segments_destroyed")),
        enq_batch(reg().histogram(prefix + ".enq_batch")),
        deq_batch(reg().histogram(prefix + ".deq_batch")) {}

  obs::Counter& enq_ops;
  obs::Counter& enq_batches;
  obs::Counter& rejections;  ///< CPU-side retries (recorded by the host)
  obs::Counter& handoffs;    ///< newEnqSeg + newDeqSeg role transfers
  obs::Counter& segments_destroyed;
  obs::Histogram& enq_batch;
  obs::Histogram& deq_batch;

 private:
  static obs::Registry& reg() { return obs::Registry::instance(); }
};

/// Per-vault protocol counters: written only by the owning vault, readable
/// (racily) from any thread.
struct QueueVaultStats {
  std::atomic<std::uint64_t> enq_ops{0};      ///< values appended
  std::atomic<std::uint64_t> enq_batches{0};  ///< enqueue service groups
  std::atomic<std::uint64_t> deq_values{0};   ///< values handed out
  std::atomic<std::uint64_t> deq_empty{0};    ///< "empty" answers
  std::atomic<std::uint64_t> segments_created{0};  ///< newEnqSeg
  std::atomic<std::uint64_t> segments_destroyed{0};
  std::atomic<std::uint64_t> co_resident_ops{0};  ///< served holding both roles
  std::atomic<std::uint64_t> max_enq_batch{0};
};

/// No mutation.
struct NoQueueFault {
  /// Called when this vault takes the dequeue role over `seg`.
  template <typename Segment>
  static constexpr void on_deq_role(Segment&) noexcept {}
  /// True to answer a dequeue without popping the node.
  static constexpr bool keep_node() noexcept { return false; }
};

template <typename Requester, typename Fault = NoQueueFault>
class alignas(kCacheLineSize) QueueVault {
 public:
  struct Config {
    std::size_t num_vaults = 1;
    std::uint64_t segment_threshold = 1024;  ///< Algorithm 1 line 13
    bool enqueue_combining = true;  ///< Section 5.1 fat nodes
  };

  /// Values per fat node: one cache-line array of 8-byte values.
  static constexpr std::size_t kFatNodeCapacity = 8;

  struct Node {
    std::uint64_t value;
    Node* next;  ///< the next-newer node
    /// First value of a fat node: reading it costs a local access.
    bool starts_fat_node;
  };

  /// Algorithm 1's segment: head/tail pointers over vault-resident nodes.
  struct Segment {
    Node* head = nullptr;     ///< newest node (enqueue side)
    Node* tail = nullptr;     ///< oldest node (dequeue side)
    std::uint64_t count = 0;  ///< values ever appended (threshold check)
    std::size_t next_seg_cid = ~std::size_t{0};
    Segment* next_in_queue = nullptr;  ///< this core's segQueue link
  };

  QueueVault(const Config& config, QueueMetrics& metrics)
      : config_(config), metrics_(metrics) {}

  QueueVault(const QueueVault&) = delete;
  QueueVault& operator=(const QueueVault&) = delete;

  /// Initial state, before service starts: values 0 .. n-1 in a chain of
  /// segments of at most segment_threshold values, round-robin from vault
  /// 0, which holds the dequeue role. The values were not combined: each
  /// is its own node. n = 0 is Algorithm 1's start: one empty segment in
  /// vault 0 holding both roles. `at(v)` is vault v's handler, `ctx_of(v)`
  /// a context for it (only its allocator is used).
  /// Returns the vault holding the enqueue role; the caller initializes
  /// the role directory.
  template <typename At, typename CtxOf>
  static std::size_t prefill(std::uint64_t n, At&& at, CtxOf&& ctx_of) {
    std::uint64_t next_value = 0;
    Segment* prev = nullptr;
    for (std::size_t core = 0;; core = (core + 1) % at(0).config_.num_vaults) {
      QueueVault& vault = at(core);
      auto ctx = ctx_of(core);
      Segment* seg = ctx.template create<Segment>();
      seg->count = std::min(n - next_value, vault.config_.segment_threshold);
      for (std::uint64_t i = 0; i < seg->count; ++i) {
        vault.append(ctx, *seg, next_value++, true);
      }
      if (prev == nullptr) {
        vault.deq_seg_ = seg;  // holds the dequeue role: not in segQueue
      } else {
        prev->next_seg_cid = core;
        vault.push_seg_queue(seg);
      }
      prev = seg;
      if (next_value == n) {
        vault.enq_seg_ = seg;
        return core;
      }
    }
  }

  /// Gather one request of the current drain pass.
  void enqueue(std::uint64_t value, Requester r) {
    enq_values_.push_back(value);
    enq_reqs_.push_back(r);
  }
  void dequeue(Requester r) { deq_reqs_.push_back(r); }

  /// A request message is decoded: without combining, serve it now.
  template <typename Ctx>
  void end_message(Ctx& ctx) {
    if (!config_.enqueue_combining) serve(ctx);
  }

  /// Serve every gathered request: enqueues, then dequeues.
  template <typename Ctx>
  void serve(Ctx& ctx) {
    if (!enq_reqs_.empty()) serve_enqueues(ctx);
    if (!deq_reqs_.empty()) serve_dequeues(ctx);
  }

  /// A core-to-core message. Requests gathered before it are served first,
  /// so the hand-off keeps its place in the channel's FIFO order.
  template <typename Ctx>
  void signal(Ctx& ctx, QueueSignal s) {
    serve(ctx);
    apply(ctx, s);
  }

  const QueueVaultStats& stats() const noexcept { return stats_; }

 private:
  template <typename Ctx>
  void serve_enqueues(Ctx& ctx) {
    const std::size_t n = enq_reqs_.size();
    Segment* seg = enq_seg_;
    // No enqueue role (stale routing): reject the batch.
    replies_.assign(n, QueueReply{seg != nullptr, false, 0});
    if (seg != nullptr) {
      // Each group starts a fat node, split every kFatNodeCapacity values.
      const std::size_t capacity =
          config_.enqueue_combining ? kFatNodeCapacity : 1;
      ctx.charge((n + capacity - 1) / capacity);
      for (std::size_t i = 0; i < n; ++i) {
        append(ctx, *seg, enq_values_[i], i % capacity == 0);
      }
      seg->count += n;
    }
    ctx.reply(enq_reqs_.data(), replies_.data(), n);
    enq_values_.clear();
    enq_reqs_.clear();
    if (seg == nullptr) return;
    add(stats_.enq_ops, n);
    add(stats_.enq_batches, 1);
    if (n > stats_.max_enq_batch.load(std::memory_order_relaxed)) {
      stats_.max_enq_batch.store(n, std::memory_order_relaxed);
    }
    if (deq_seg_ != nullptr) add(stats_.co_resident_ops, n);
    metrics_.enq_ops.add(n);
    metrics_.enq_batches.add(1);
    metrics_.enq_batch.record(n);
    if (seg->count > config_.segment_threshold) {
      const std::size_t next = next_enq_core(ctx);
      seg->next_seg_cid = next;
      if (next != ctx.self()) enq_seg_ = nullptr;
      hand_off(ctx, next, QueueSignal::kNewEnqSeg);
    }
  }

  /// Each access reads one fat node: the first node the batch pops (which
  /// may continue a fat node an earlier batch began) and every node that
  /// starts a new one. The replies served from a fat node ship before the
  /// next read, so each value is answered as soon as its node is read.
  template <typename Ctx>
  void serve_dequeues(Ctx& ctx) {
    const std::size_t n = deq_reqs_.size();
    replies_.resize(n);
    std::size_t shipped = 0;
    bool read_any = false;
    for (std::size_t i = 0; i < n; ++i) {
      const Node* next = deq_seg_ != nullptr ? deq_seg_->tail : nullptr;
      if (next != nullptr && (!read_any || next->starts_fat_node)) {
        ship(ctx, shipped, i);
        ctx.charge(1);
        read_any = true;
      }
      replies_[i] = pop(ctx);
    }
    ship(ctx, shipped, n);
    metrics_.deq_batch.record(n);
    deq_reqs_.clear();
  }

  /// Reply to dequeue requests [shipped, end).
  template <typename Ctx>
  void ship(Ctx& ctx, std::size_t& shipped, std::size_t end) {
    if (end == shipped) return;
    ctx.reply(deq_reqs_.data() + shipped, replies_.data() + shipped,
              end - shipped);
    shipped = end;
  }

  /// Pop one value, or pass the dequeue role along (Algorithm 1 lines
  /// 23-35). The node read is charged by the caller.
  template <typename Ctx>
  QueueReply pop(Ctx& ctx) {
    if (deq_seg_ == nullptr) return QueueReply{};  // stale routing
    Segment& seg = *deq_seg_;
    if (Node* node = seg.tail) {
      const std::uint64_t value = node->value;
      if (!fault_.keep_node()) {
        seg.tail = node->next;
        if (seg.tail == nullptr) seg.head = nullptr;
        ctx.destroy(node);
      }
      add(stats_.deq_values, 1);
      if (enq_seg_ != nullptr) add(stats_.co_resident_ops, 1);
      return QueueReply{true, true, value};
    }
    if (deq_seg_ == enq_seg_) {  // single segment: really empty right now
      add(stats_.deq_empty, 1);
      return QueueReply{true, false, 0};
    }
    // Exhausted: pass the dequeue role to the core holding the next
    // segment, free this one, and have the CPU retry.
    const std::size_t next = seg.next_seg_cid;
    assert(next < config_.num_vaults && "exhausted segment has no successor");
    deq_seg_ = nullptr;
    ctx.destroy(&seg);
    add(stats_.segments_destroyed, 1);
    metrics_.segments_destroyed.add(1);
    hand_off(ctx, next, QueueSignal::kNewDeqSeg);
    return QueueReply{};
  }

  /// A hand-off to this very core applies at once instead of bouncing off
  /// its own mailbox.
  template <typename Ctx>
  void hand_off(Ctx& ctx, std::size_t to, QueueSignal s) {
    metrics_.handoffs.add(1);
    if (to == ctx.self()) {
      apply(ctx, s);
    } else {
      ctx.send(to, s);
    }
  }

  template <typename Ctx>
  void apply(Ctx& ctx, QueueSignal s) {
    if (s == QueueSignal::kNewEnqSeg) {  // Algorithm 1 lines 17-21
      Segment* seg = ctx.template create<Segment>();
      push_seg_queue(seg);
      enq_seg_ = seg;
      ctx.charge(1);  // allocation bookkeeping
      add(stats_.segments_created, 1);
      ctx.publish_enq_role();
      return;
    }
    // newDeqSeg. Per-channel FIFO delivery guarantees the newEnqSeg that
    // created the next segment (sent earlier on the same core-to-core
    // channel) was applied, so the segQueue is not empty.
    assert(seg_queue_head_ != nullptr &&
           "newDeqSeg arrived before the matching newEnqSeg");
    Segment* seg = seg_queue_head_;
    seg_queue_head_ = seg->next_in_queue;
    if (seg_queue_head_ == nullptr) seg_queue_tail_ = nullptr;
    seg->next_in_queue = nullptr;
    deq_seg_ = seg;
    fault_.on_deq_role(*seg);
    ctx.publish_deq_role();
  }

  /// Opposite the dequeue core. For k >= 2, k/2 lies in [1, k), so the
  /// new segment never lands on the dequeue core itself.
  template <typename Ctx>
  std::size_t next_enq_core(const Ctx& ctx) const {
    const std::size_t k = config_.num_vaults;
    if (k == 1) return 0;
    return (ctx.deq_role_owner() + k / 2) % k;
  }

  template <typename Ctx>
  void append(Ctx& ctx, Segment& seg, std::uint64_t value,
              bool starts_fat_node) {
    Node* node =
        ctx.template create<Node>(Node{value, nullptr, starts_fat_node});
    (seg.head != nullptr ? seg.head->next : seg.tail) = node;
    seg.head = node;
  }

  void push_seg_queue(Segment* seg) {
    (seg_queue_tail_ != nullptr ? seg_queue_tail_->next_in_queue
                                : seg_queue_head_) = seg;
    seg_queue_tail_ = seg;
  }

  /// Single-writer increment: no read-modify-write needed.
  static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  Config config_;
  QueueMetrics& metrics_;
  [[no_unique_address]] Fault fault_{};
  Segment* enq_seg_ = nullptr;
  Segment* deq_seg_ = nullptr;
  Segment* seg_queue_head_ = nullptr;  ///< oldest segment created here
  Segment* seg_queue_tail_ = nullptr;
  // Requests of the current drain pass, and the reply buffer (reused).
  std::vector<std::uint64_t> enq_values_;
  std::vector<Requester> enq_reqs_;
  std::vector<Requester> deq_reqs_;
  std::vector<QueueReply> replies_;
  QueueVaultStats stats_;
};

}  // namespace pimds::core
