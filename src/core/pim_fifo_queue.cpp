#include "core/pim_fifo_queue.hpp"

#include <cassert>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/fat_arena.hpp"
#include "runtime/mailbox.hpp"

namespace pimds::core {

using runtime::fat_entries;
using runtime::FatEntry;
using runtime::Message;
using runtime::PimCoreApi;
using runtime::release_fat_payload;
using runtime::RequestCombiner;
using runtime::ResponseSlot;

namespace {
QueueMetrics& qmetrics() {
  static QueueMetrics m("runtime.queue");
  return m;
}
}  // namespace

/// QueueVault's context over the real-thread runtime: one per drain pass.
struct PimFifoQueue::VaultCtx {
  using Requester = void*;

  PimCoreApi api;
  PimFifoQueue& queue;

  std::size_t self() const { return api.vault_id(); }
  std::size_t deq_role_owner() const {
    return queue.deq_cid_.value.load(std::memory_order_relaxed);
  }
  void send(std::size_t vault, QueueSignal s) {
    Message m;
    m.kind = s == QueueSignal::kNewEnqSeg ? kNewEnqSeg : kNewDeqSeg;
    api.send(vault, m);
  }
  void charge(std::uint64_t n) { api.charge_local_access(n); }
  /// One pipelined fat response: every reply shares one delivery time.
  void reply(void* const* slots, const QueueReply* replies, std::size_t n) {
    const std::uint64_t ready = api.reply_ready_ns();
    for (std::size_t i = 0; i < n; ++i) {
      static_cast<ResponseSlot<QueueReply>*>(slots[i])->publish(replies[i],
                                                                ready);
    }
  }
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    return api.vault().create<T>(std::forward<Args>(args)...);
  }
  template <typename T>
  void destroy(T* p) {
    api.vault().destroy(p);
  }
  // "Notify the CPUs" of a role's new home.
  void publish_enq_role() {
    obs::trace_instant_here("newEnqSeg", "queue", {"vault", self()});
    queue.enq_cid_.value.store(self(), std::memory_order_release);
  }
  void publish_deq_role() {
    obs::trace_instant_here("newDeqSeg", "queue", {"vault", self()});
    queue.deq_cid_.value.store(self(), std::memory_order_release);
  }
};

PimFifoQueue::PimFifoQueue(runtime::PimSystem& system)
    : PimFifoQueue(system, Options{}) {}

PimFifoQueue::PimFifoQueue(runtime::PimSystem& system, Options options)
    : system_(system), options_(options) {
  const Vault::Config config{
      .num_vaults = system_.num_vaults(),
      .segment_threshold = options_.segment_threshold,
      .enqueue_combining = options_.enqueue_combining};
  for (std::size_t v = 0; v < system_.num_vaults(); ++v) {
    vaults_.push_back(std::make_unique<Vault>(config, qmetrics()));
  }
  // Initial state (Section 5.1): one empty segment in vault 0 holding both
  // roles; the directory already points both at vault 0.
  Vault::prefill(
      0, [this](std::size_t v) -> Vault& { return *vaults_[v]; },
      [this](std::size_t v) { return VaultCtx{PimCoreApi(system_, v), *this}; });
  for (std::size_t v = 0; v < system_.num_vaults(); ++v) {
    system_.set_batch_handler(
        v, [this](PimCoreApi& api, const Message* msgs, std::size_t n) {
          handle_batch(api, msgs, n);
        });
  }
}

/// One drain pass: decode every message into the vault's QueueVault, which
/// gathers the requests and serves them (see core/queue_vault.hpp).
void PimFifoQueue::handle_batch(PimCoreApi& api, const Message* msgs,
                                std::size_t n) {
  VaultCtx ctx{api, *this};
  Vault& vault = *vaults_[api.vault_id()];
  const auto take = [&vault](std::uint32_t kind, std::uint64_t value,
                             void* slot) {
    kind == kEnq ? vault.enqueue(value, slot) : vault.dequeue(slot);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Message& m = msgs[i];
    if (m.kind == kNewEnqSeg || m.kind == kNewDeqSeg) {
      vault.signal(ctx, m.kind == kNewEnqSeg ? QueueSignal::kNewEnqSeg
                                             : QueueSignal::kNewDeqSeg);
      continue;
    }
    // One request, or a CPU-combined batch riding inside the message
    // (inline or spilled): zero-copy decode.
    if (m.fat_count == 0) take(m.kind, m.value, m.slot);
    const FatEntry* entries = fat_entries(m);
    for (std::uint16_t j = 0; j < m.fat_count; ++j) {
      take(m.kind, entries[j].value, entries[j].slot);
    }
    release_fat_payload(m);
    vault.end_message(ctx);
  }
  vault.serve(ctx);
}

void PimFifoQueue::enqueue(std::uint64_t value) { request(true, value); }

std::optional<std::uint64_t> PimFifoQueue::dequeue() {
  const QueueReply r = request(false, 0);
  if (!r.has_value) return std::nullopt;
  return r.value;
}

QueueReply PimFifoQueue::request(bool is_enq, std::uint64_t value) {
  ResponseSlot<QueueReply> slot;
  const bool obs_on = obs::metrics_enabled();
  const std::uint64_t rid = obs::trace_enabled() ? obs::next_request_id() : 0;
  const std::uint64_t op_start = (obs_on || rid != 0) ? now_ns() : 0;
  auto& role = is_enq ? enq_cid_.value : deq_cid_.value;
  const std::uint32_t kind = is_enq ? kEnq : kDeq;
  QueueReply r;
  for (;;) {
    // One attempt's CPU side: on the combined path the combiner_wait phase
    // (publication to "shipped in some batch"), which subsumes issue; on
    // the direct send the issue phase.
    const std::uint64_t attempt_start = obs_on ? now_ns() : 0;
    if (options_.cpu_combining) {
      RequestCombiner::Entry e{};
      e.kind = kind;
      e.value = value;
      e.slot = &slot;
#ifndef PIMDS_OBS_DISABLED
      e.req_id = rid;  // combined ops keep their trace correlation
#endif
      (is_enq ? enq_combiner_ : deq_combiner_).submit(e, [&](Message& m) {
        m.kind = kind;
        system_.send(role.load(std::memory_order_acquire), m);
      });
    } else {
      Message m;
      m.kind = kind;
      m.value = value;
      m.slot = &slot;
#ifndef PIMDS_OBS_DISABLED
      m.req_id = rid;
#endif
      system_.send(role.load(std::memory_order_acquire), m);
    }
    if (obs_on) {
      obs::record_runtime_phase(options_.cpu_combining
                                    ? obs::Phase::kCombinerWait
                                    : obs::Phase::kIssue,
                                now_ns() - attempt_start);
    }
    r = slot.await();
    if (r.accepted) break;
    rejections_.value.fetch_add(1, std::memory_order_relaxed);
    qmetrics().rejections.add(1);
    obs::trace_instant_here("cpu_retry", "queue");
  }
  if (obs_on) {
    obs::record_runtime_phase(obs::Phase::kTotal, now_ns() - op_start);
  }
  if (rid != 0) {
    obs::trace_complete_here("op", "queue", op_start, {"req", rid},
                             {"enq", is_enq ? 1u : 0u});
  }
  return r;
}

}  // namespace pimds::core
