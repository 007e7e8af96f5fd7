#include "runtime/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/thread_utils.hpp"
#include "common/timing.hpp"
#include "common/spinwait.hpp"
#include "obs/obs.hpp"

namespace pimds::runtime {

PimSystem::Core::Core(std::size_t id, const Config& config)
    : vault(std::make_unique<Vault>(id, config.vault_bytes)),
      mailbox(config.mailbox_capacity) {
  const std::string prefix = "runtime.vault" + std::to_string(id);
  auto& registry = obs::Registry::instance();
  messages = &registry.counter(prefix + ".messages");
  busy_ns = &registry.counter(prefix + ".busy_ns");
  obs_handles.push_back(registry.register_counter(
      prefix + ".mailbox.send_full_spins", &mailbox.send_full_spins_counter()));
  obs_handles.push_back(registry.register_gauge(
      prefix + ".mailbox.pending_hwm", &mailbox.pending_hwm_gauge()));
  obs_handles.push_back(registry.register_histogram(
      prefix + ".mailbox.drain_batch", &mailbox.drain_batch_histogram()));
  obs_handles.push_back(registry.register_gauge(
      prefix + ".mailbox.lane_depth_hwm", &mailbox.lane_depth_hwm_gauge()));
  obs_handles.push_back(registry.register_gauge(
      prefix + ".mailbox.active_lanes", &mailbox.active_lanes_gauge()));
  obs_handles.push_back(registry.register_counter(
      prefix + ".mailbox.overflow_sends", &mailbox.overflow_sends_counter()));
}

Vault& PimCoreApi::vault() { return *system_.cores_[vault_id_]->vault; }

std::size_t PimCoreApi::num_vaults() const { return system_.num_vaults(); }

void PimCoreApi::send(std::size_t other_vault, Message m) {
  m.sender = static_cast<std::uint32_t>(vault_id_);
  system_.cores_[other_vault]->mailbox.send(m);
}

void PimCoreApi::charge_local_access(std::uint64_t n) const {
  auto& injector = LatencyInjector::instance();
  if (!injector.enabled()) return;
  spin_for_ns(static_cast<std::uint64_t>(injector.params().pim()) * n);
}

std::uint64_t PimCoreApi::reply_ready_ns() const {
  auto& injector = LatencyInjector::instance();
  if (!injector.enabled()) return 0;
  const auto lmsg = static_cast<std::uint64_t>(injector.params().message());
  // The response_flight phase is measured by the consumer (publish stamp →
  // delivery instant, ResponseSlot::await), not recorded here as the
  // modeled constant — see the degenerate-histogram fix in DESIGN.md §5e.
  return now_ns() + lmsg;
}

PimSystem::PimSystem(Config config) : config_(config) {
  if (config_.num_vaults == 0) {
    throw std::invalid_argument("PimSystem needs at least one vault");
  }
  if (config_.drain_batch == 0) config_.drain_batch = 1;
  for (std::size_t v = 0; v < config_.num_vaults; ++v) {
    cores_.push_back(std::make_unique<Core>(v, config_));
  }
}

PimSystem::~PimSystem() { stop(); }

void PimSystem::set_batch_handler(std::size_t vault, BatchHandler handler) {
  if (started_) {
    throw std::logic_error("set_batch_handler must precede start()");
  }
  cores_[vault]->batch_handler = std::move(handler);
}

void PimSystem::set_idle_handler(std::size_t vault, IdleHandler handler) {
  if (started_) {
    throw std::logic_error("set_idle_handler must precede start()");
  }
  cores_[vault]->idle_handler = std::move(handler);
}

void PimSystem::start() {
  if (started_) return;
  // The injector is process-wide; configuring it here keeps instrumented
  // CPU-side structures and the PIM cores on the same parameters.
  LatencyInjector::instance().configure(config_.params);
  LatencyInjector::instance().set_enabled(config_.inject_latency);
  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  for (std::size_t v = 0; v < cores_.size(); ++v) {
    cores_[v]->thread = std::thread([this, v] { core_loop(v); });
  }
}

void PimSystem::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  for (auto& core : cores_) {
    if (core->thread.joinable()) core->thread.join();
  }
  started_ = false;
  // Undo the process-wide injection this system enabled, so unrelated code
  // running after shutdown is not slowed down.
  if (config_.inject_latency) {
    LatencyInjector::instance().set_enabled(false);
  }
}

void PimSystem::send(std::size_t vault, Message m) {
  if (!started_) {
    // A request sent with no core to serve it would spin its sender
    // forever on the response slot; fail fast instead.
    throw std::logic_error("PimSystem::send called while stopped");
  }
  cores_[vault]->mailbox.send(m);
}

std::uint64_t PimSystem::messages_processed(std::size_t vault) const noexcept {
  return cores_[vault]->processed.value.load(std::memory_order_relaxed);
}

std::uint64_t PimSystem::send_full_spins(std::size_t vault) const noexcept {
  return cores_[vault]->mailbox.send_full_spins();
}

std::uint64_t PimSystem::pending_high_water(std::size_t vault) const noexcept {
  return cores_[vault]->mailbox.pending_high_water();
}

void PimSystem::dispatch(PimCoreApi& api, Core& core, const Message* msgs,
                         std::size_t n) {
  // Latency attribution (obs/phase.hpp): the gap between a message's send
  // stamp and this dispatch splits into the modeled crossbar flight
  // (request_flight, exactly Lmessage under injection) and everything
  // beyond it (mailbox_queue — the transport's real queueing overhead).
  // A fat message carries fat_count operations, each of which experienced
  // that wait and keeps its own req_id, so combined ops are attributed and
  // traced per op, not per message. The vault_service phase is the full
  // handler window, attributed to every operation of the batch (each op
  // waits out the whole traversal before its reply publishes). Clock
  // discipline: one now_ns() read at each transition (t_dispatch, t_done),
  // shared across every per-op record at that boundary.
  const bool obs_on = obs::metrics_enabled();
  std::uint64_t t_dispatch = 0;
  std::size_t total_ops = 0;
  if (obs_on) {
    t_dispatch = now_ns();
    auto& injector = LatencyInjector::instance();
    const std::uint64_t lmsg =
        injector.enabled()
            ? static_cast<std::uint64_t>(injector.params().message())
            : 0;
    const bool tracing = obs::trace_enabled();
    for (std::size_t i = 0; i < n; ++i) {
      const Message& m = msgs[i];
      const std::uint64_t wait =
          t_dispatch > m.send_time_ns ? t_dispatch - m.send_time_ns : 0;
      const std::uint64_t flight = wait < lmsg ? wait : lmsg;
      const std::size_t ops = m.fat_count > 0 ? m.fat_count : 1;
      total_ops += ops;
      for (std::size_t k = 0; k < ops; ++k) {
        if (lmsg != 0) {
          obs::record_runtime_phase(obs::Phase::kRequestFlight, flight);
        }
        obs::record_runtime_phase(obs::Phase::kMailboxQueue, wait - flight);
      }
#ifndef PIMDS_OBS_DISABLED
      if (tracing) {
        if (m.fat_count > 0) {
          const FatEntry* entries = fat_entries(m);
          for (std::uint16_t j = 0; j < m.fat_count; ++j) {
            if (entries[j].req_id != 0) {
              obs::trace_instant_here("req_dispatch", "runtime",
                                      {"req", entries[j].req_id},
                                      {"wait_ns", wait});
            }
          }
        } else if (m.req_id != 0) {
          obs::trace_instant_here("req_dispatch", "runtime", {"req", m.req_id},
                                  {"wait_ns", wait});
        }
      }
#endif
    }
  }
  if (core.batch_handler) core.batch_handler(api, msgs, n);
  if (obs_on) {
    const std::uint64_t t_done = now_ns();
    // Every operation of the batch spends the WHOLE handler window on the
    // PIM core before its response is published (batch handlers publish at
    // the end of their traversal), so each op's vault_service is the full
    // window — the service latency the requester actually experiences, not
    // a 1/N share. The phases decompose per-op end-to-end latency; summed
    // across a batch they exceed the core's wall time by design (core
    // utilization lives in the metrics section, not here).
    const std::uint64_t window = t_done - t_dispatch;
    for (std::size_t i = 0; i < total_ops; ++i) {
      obs::record_runtime_phase(obs::Phase::kVaultService, window);
    }
    // Busy-time accumulator: windowed deltas of busy_ns over wall time give
    // per-vault utilization in the telemetry stream.
    core.busy_ns->add(window);
    if (obs::trace_enabled()) {
      obs::trace_complete_here("vault_service", "runtime", t_dispatch,
                               {"n", static_cast<std::uint64_t>(n)});
    }
  }
  core.processed.value.fetch_add(n, std::memory_order_relaxed);
  core.messages->add(n);
}

void PimSystem::core_loop(std::size_t vault_id) {
  Core& core = *cores_[vault_id];
  core.vault->bind_owner();
  if (config_.pin_cores) pin_to_cpu(vault_id);
  obs::name_this_thread("pim-core" + std::to_string(vault_id));
  PimCoreApi api(*this, vault_id);
  const std::uint64_t gather_ns =
      config_.drain_gather_window_ns != 0 ? config_.drain_gather_window_ns
      : config_.inject_latency
          ? static_cast<std::uint64_t>(config_.params.pim())
          : 0;
  SpinWait idle_spin;
  std::vector<Message> batch;
  batch.reserve(config_.drain_batch);
  for (;;) {
    batch.clear();
    std::size_t n = 0;
    if (config_.batch_drain) {
      n = core.mailbox.drain(batch, config_.drain_batch);
      // Gather window: a shallow batch with more arrivals imminently due
      // is worth one bounded sleep — the fold amortizes the batch's
      // fat-node charges across more ops (and on oversubscribed hosts the
      // sleep itself hands the CPU back to the senders).
      if (gather_ns != 0 && n > 0 && n < config_.drain_batch) {
        const std::uint64_t deadline = now_ns() + gather_ns;
        std::uint64_t next;
        while (n < config_.drain_batch &&
               (next = core.mailbox.next_pending_ready_ns()) != 0 &&
               next <= deadline) {
          wait_until_ns(next);
          n += core.mailbox.drain(batch, config_.drain_batch - n);
        }
      }
    } else if (std::optional<Message> m = core.mailbox.poll()) {
      // Seed per-message path (ablation): blocks on the head message's
      // delivery time, serializing the core at Lmessage + Lpim per op.
      batch.push_back(*m);
      n = 1;
    }
    if (n > 0) {
      if (obs::trace_enabled()) {
        const std::uint64_t t0 = now_ns();
        dispatch(api, core, batch.data(), n);
        obs::trace_complete_here("drain_batch", "runtime", t0,
                                 {"n", static_cast<std::uint64_t>(n)});
      } else {
        dispatch(api, core, batch.data(), n);
      }
      idle_spin.reset();
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      // Shutdown: drain stragglers (e.g. a segment hand-off sent by a peer
      // core) and let background idle work (e.g. an in-flight outgoing
      // migration) run to completion, interleaving the two since idle work
      // can generate further messages. Delivery times are ignored here —
      // the backlog must be processed, not lost. An idle handler that never
      // returns false would hang shutdown — background jobs must be finite.
      do {
        batch.clear();
        while ((n = core.mailbox.drain_all(batch)) > 0) {
          dispatch(api, core, batch.data(), n);
          batch.clear();
        }
      } while (core.idle_handler && core.idle_handler(api));
      return;
    }
    if (core.idle_handler && core.idle_handler(api)) {
      idle_spin.reset();
      continue;
    }
    // Every queued message is parked with a known delivery time (drain()
    // empties the ring into the pending heap before reporting 0), so sleep
    // toward the earliest one instead of churning the scheduler. Capped so
    // stop() and newly arriving ring messages stay responsive.
    if (const std::uint64_t next = core.mailbox.next_pending_ready_ns()) {
      wait_until_ns(std::min(next, now_ns() + 100'000));
      idle_spin.reset();
      continue;
    }
    idle_spin.wait();
  }
}

}  // namespace pimds::runtime
