// Simulated PIM-managed FIFO queue: the simulator host of Algorithm 1.
//
// The vault side is core::QueueVault (core/queue_vault.hpp), the same
// handler the real-thread runtime runs; this file supplies its vault
// context over sim::Context and the sim mailboxes, the CPU actors (retry on
// rejection, ArrivalPacer, history recording), the pre-fill, and the
// latency attribution.
#include <algorithm>
#include <cassert>
#include <memory>
#include <memory_resource>
#include <string>
#include <utility>
#include <vector>

#include "core/queue_vault.hpp"
#include "obs/obs.hpp"
#include "sim/ds/queues.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

namespace {

using core::QueueReply;
using core::QueueSignal;
using Slot = SimSlot<QueueReply>;

struct QMsg {
  enum class Kind : std::uint8_t { kEnq, kDeq, kNewEnqSeg, kNewDeqSeg, kStop };
  Kind kind = Kind::kStop;
  std::uint64_t value = 0;
  Slot* reply = nullptr;
  // Trace context (obs/phase.hpp): the CPU's virtual send time, so the
  // serving core can attribute the mailbox_queue phase, and the causal
  // request id correlating CPU `op` spans with core-side events.
  Time issue_ns = 0;
  std::uint64_t req = 0;
};

/// Mutation hooks for QueueFault (see queues.hpp).
struct HandoffReorderFault : core::NoQueueFault {
  /// The new dequeue core serves the segment newest-first.
  template <typename Segment>
  static void on_deq_role(Segment& seg) noexcept {
    decltype(seg.tail) prev = nullptr;
    seg.head = seg.tail;
    for (auto* node = seg.tail; node != nullptr;) {
      auto* next = node->next;
      node->next = prev;
      prev = node;
      node = next;
    }
    seg.tail = prev;
  }
};

struct DoubleServeFault : core::NoQueueFault {
  /// Every 64th dequeue answers from the head without popping it.
  bool keep_node() noexcept { return ++serves % 64 == 0; }
  std::uint64_t serves = 0;
};

template <typename Fault>
struct SimQueue {
  using Handler = core::QueueVault<Slot*, Fault>;

  struct Vault {
    Vault(const typename Handler::Config& config, core::QueueMetrics& metrics)
        : handler(config, metrics) {}

    Mailbox<QMsg> inbox;
    /// The vault's memory, released whole with the simulation.
    std::pmr::unsynchronized_pool_resource memory;
    Handler handler;
  };

  const PimQueueOptions& opts;
  double msg_ns;
  std::vector<std::unique_ptr<Vault>> vaults;
  // The CPU-visible role directory, standing in for the paper's
  // notification broadcast. It may be stale, which is exactly the race the
  // rejection path exists to absorb.
  std::size_t enq_cid = 0;
  std::size_t deq_cid = 0;
};

/// QueueVault's context over the simulator: one per vault actor. `ctx` is
/// null only during the pre-fill, which uses nothing but the allocator.
template <typename Fault>
struct SimVaultCtx {
  using Requester = Slot*;

  SimQueue<Fault>& q;
  std::size_t vault;
  Context* ctx = nullptr;
  /// Start of the current request's service (latency attribution).
  Time serve_start = 0;

  std::size_t self() const { return vault; }
  std::size_t deq_role_owner() const { return q.deq_cid; }
  void send(std::size_t to, QueueSignal s) {
    q.vaults[to]->inbox.send(*ctx, QMsg{s == QueueSignal::kNewEnqSeg
                                            ? QMsg::Kind::kNewEnqSeg
                                            : QMsg::Kind::kNewDeqSeg});
  }
  void charge(std::uint64_t n) { ctx->charge(MemClass::kPimLocal, n); }
  /// Each reply ships Lmessage after the group is served. The phases tile
  /// the requester's latency exactly in virtual time: the serve start
  /// bounds the inbound leg (request_flight + mailbox_queue, recorded on
  /// arrival), then vault_service, then the response_flight leg.
  void reply(Slot* const* slots, const QueueReply* replies, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      slots[i]->set(*ctx, replies[i], q.msg_ns);
      if (!replies[i].accepted) ctx->trace_instant("reject", {"vault", vault});
      obs::record_sim_phase(obs::Phase::kVaultService,
                            ctx->now() - serve_start);
      obs::record_sim_phase(obs::Phase::kResponseFlight,
                            static_cast<Time>(q.msg_ns));
    }
    // Without pipelining (Figure 6) the core waits out the response flight
    // before serving the next request.
    if (!q.opts.pipelining) ctx->advance(q.msg_ns);
  }
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    return ::new (q.vaults[vault]->memory.allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }
  template <typename T>
  void destroy(T* p) {
    p->~T();
    q.vaults[vault]->memory.deallocate(p, sizeof(T), alignof(T));
  }
  void publish_enq_role() {
    ctx->trace_instant("newEnqSeg", {"vault", vault});
    q.enq_cid = vault;
  }
  void publish_deq_role() {
    ctx->trace_instant("newDeqSeg", {"vault", vault});
    q.deq_cid = vault;
  }
};

template <typename Fault>
PimQueueResult run(const QueueConfig& cfg, const PimQueueOptions& opts) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);
  const std::size_t k = opts.num_vaults;
  assert(k >= 1);
  const double msg_ns = cfg.params.message();
  const std::size_t total_cpus = cfg.enqueuers + cfg.dequeuers;

  // Registry metrics (accumulate across runs in one process; benches that
  // want per-run numbers call Registry::reset() between runs).
  static core::QueueMetrics metrics("sim.pim_queue");
  auto& registry = obs::Registry::instance();
  obs::Histogram& h_latency =
      registry.histogram("sim.pim_queue.op_latency_ns");

  using Queue = SimQueue<Fault>;
  using Ctx = SimVaultCtx<Fault>;
  Queue q{opts, msg_ns, {}};
  const typename Queue::Handler::Config config{
      .num_vaults = k,
      .segment_threshold = opts.segment_threshold,
      .enqueue_combining = opts.enqueue_combining};
  for (std::size_t v = 0; v < k; ++v) {
    q.vaults.push_back(std::make_unique<typename Queue::Vault>(config, metrics));
  }
  // Pre-fill: the state Algorithm 1 reaches after `initial_nodes`
  // enqueues, as a segment chain round-robin over the vaults.
  q.enq_cid = Queue::Handler::prefill(
      cfg.initial_nodes,
      [&](std::size_t v) -> typename Queue::Handler& {
        return q.vaults[v]->handler;
      },
      [&](std::size_t v) { return Ctx{q, v}; });

  PimQueueResult result;
  for (std::size_t v = 0; v < k; ++v) {
    engine.spawn("pim-core" + std::to_string(v), [&, v](Context& ctx) {
      typename Queue::Vault& vault = *q.vaults[v];
      Ctx vctx{q, v, &ctx};
      std::vector<QMsg> batch;
      std::size_t stopped = 0;
      while (stopped < total_cpus) {
        // One drain pass. Without combining every request message is
        // served on its own, so there is nothing to gather.
        batch.clear();
        batch.push_back(vault.inbox.recv(ctx));
        if (opts.enqueue_combining) {
          while (auto more = vault.inbox.try_recv(ctx)) batch.push_back(*more);
        }
        const Time pass_start = ctx.now();
        for (const QMsg& m : batch) {
          switch (m.kind) {
            case QMsg::Kind::kStop:
              ++stopped;
              continue;
            case QMsg::Kind::kNewEnqSeg:
              vault.handler.signal(vctx, QueueSignal::kNewEnqSeg);
              continue;
            case QMsg::Kind::kNewDeqSeg:
              vault.handler.signal(vctx, QueueSignal::kNewDeqSeg);
              continue;
            default:
              break;
          }
          // A request arrives: the inbound leg splits exactly into the
          // Lmessage request_flight and the queueing remainder,
          // mailbox_queue.
          vctx.serve_start = ctx.now();
          const Time wait = ctx.now() - m.issue_ns;
          const Time flight = std::min(wait, static_cast<Time>(msg_ns));
          obs::record_sim_phase(obs::Phase::kRequestFlight, flight);
          obs::record_sim_phase(obs::Phase::kMailboxQueue, wait - flight);
          if (m.req != 0 && obs::trace_enabled()) {
            ctx.trace_instant("req_dispatch", {"req", m.req},
                              {"wait_ns", wait});
          }
          if (m.kind == QMsg::Kind::kEnq) {
            vault.handler.enqueue(m.value, m.reply);
          } else {
            vault.handler.dequeue(m.reply);
          }
          vault.handler.end_message(vctx);
        }
        vault.handler.serve(vctx);
        if (batch.size() > 1) {
          ctx.trace_complete("drain_batch", pass_start, {"n", batch.size()});
        } else if (obs::trace_enabled()) {
          ctx.trace_complete("vault_service", pass_start, {"vault", v});
        }
      }
    });
  }

  std::uint64_t total_ops = 0;
  const auto spawn_cpu = [&](std::string name, bool is_enq,
                             std::size_t slot) {
    engine.spawn(std::move(name), [&, is_enq, slot](Context& ctx) {
      std::uint64_t ops = 0;
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(slot) : nullptr;
      Slot reply;
      ArrivalPacer pacer(cfg, ctx);
      while (ctx.now() < cfg.duration_ns) {
        const Time intended = pacer.next(ctx);
        if (intended >= cfg.duration_ns) break;
        const Time issued = ctx.now();
        const std::uint64_t rid =
            obs::trace_enabled() ? obs::next_request_id() : 0;
        // One value per OPERATION, not per send: a rejected CPU retries the
        // same request. Recorded runs tag values with the producer slot so
        // every enqueued value is unique (the checker matches dequeues to
        // enqueues by value).
        const std::uint64_t value =
            !is_enq ? 0
            : log != nullptr
                ? ((static_cast<std::uint64_t>(slot) + 1) << 48) | ops
                : ctx.rng().next();
        if (log != nullptr) {
          log->begin(is_enq ? check::kEnq : check::kDeq, value, issued);
        }
        QueueReply r;
        for (;;) {
          const std::size_t target =
              is_enq ? q.enq_cid : q.deq_cid;
          const QMsg::Kind kind =
              is_enq ? QMsg::Kind::kEnq : QMsg::Kind::kDeq;
          q.vaults[target]->inbox.send(
              ctx, QMsg{kind, value, &reply, ctx.now(), rid});
          r = reply.await(ctx);
          if (r.accepted) break;
          ++result.rejections;  // stale directory: re-read and resend
          metrics.rejections.add(1);
          ctx.trace_instant("cpu_retry", {"target", target});
        }
        if (log != nullptr) {
          log->end(is_enq ? check::kRetTrue
                          : (r.has_value ? r.value : check::kRetEmpty),
                   ctx.now());
        }
        h_latency.record(ctx.now() - issued);
        // End-to-end reference for the attribution report: across every
        // attempt the wait/service/flight phases tile [issued, now] exactly
        // (virtual time), so sum(phases) == sum(total) up to CPU-side gaps.
        obs::record_sim_phase(obs::Phase::kTotal, ctx.now() - issued);
        if (rid != 0) {
          ctx.trace_complete("op", issued, {"req", rid},
                             {"enq", is_enq ? 1u : 0u});
        }
        if (cfg.latency_sink_ns != nullptr) {
          // Open loop: charge from the INTENDED start, so time spent queued
          // behind a late injector counts against the operation.
          cfg.latency_sink_ns->push_back(
              static_cast<double>(ctx.now() - intended));
        }
        ++ops;
      }
      for (std::size_t v = 0; v < k; ++v) {
        q.vaults[v]->inbox.send(ctx, QMsg{QMsg::Kind::kStop});
      }
      total_ops += ops;
    });
  };
  for (std::size_t i = 0; i < cfg.enqueuers; ++i) {
    spawn_cpu("enq" + std::to_string(i), true, i);
  }
  for (std::size_t i = 0; i < cfg.dequeuers; ++i) {
    spawn_cpu("deq" + std::to_string(i), false, cfg.enqueuers + i);
  }

  engine.run();
  result.run = {total_ops, cfg.duration_ns};
  for (std::size_t v = 0; v < k; ++v) {
    const core::QueueVaultStats& s = q.vaults[v]->handler.stats();
    const std::uint64_t deqs = s.deq_values + s.deq_empty;
    result.enq_ops += s.enq_ops;
    result.deq_ops += deqs;
    result.empty_dequeues += s.deq_empty;
    result.enq_batches += s.enq_batches;
    result.segments_created += s.segments_created;
    result.co_resident_ops += s.co_resident_ops;
    registry.counter("sim.pim_queue.vault" + std::to_string(v) + ".ops")
        .add(s.enq_ops + deqs);
  }
  return result;
}

}  // namespace

PimQueueResult run_pim_queue(const QueueConfig& cfg,
                             const PimQueueOptions& opts) {
  return run<core::NoQueueFault>(cfg, opts);
}

PimQueueResult run_pim_queue(const QueueConfig& cfg,
                             const PimQueueOptions& opts, QueueFault fault) {
  switch (fault) {
    case QueueFault::kHandoffReorder:
      return run<HandoffReorderFault>(cfg, opts);
    case QueueFault::kDoubleServe:
      return run<DoubleServeFault>(cfg, opts);
    case QueueFault::kNone:
      break;
  }
  return run<core::NoQueueFault>(cfg, opts);
}

}  // namespace pimds::sim
