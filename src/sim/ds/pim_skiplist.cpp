#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/zipf.hpp"
#include "core/skip_list.hpp"
#include "obs/obs.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

namespace {

struct SkipMsg {
  SetOp op = SetOp::kContains;
  std::uint64_t key = 0;
  SimSlot<bool>* reply = nullptr;
  bool stop = false;
  // Trace context (obs/phase.hpp): virtual send time for mailbox_queue
  // attribution and the causal request id tying CPU `op` spans to the
  // serving core's events. Zero on stop messages.
  Time issue_ns = 0;
  std::uint64_t req = 0;
};

}  // namespace

RunResult run_pim_skiplist(const SkipListConfig& cfg, std::size_t partitions) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);

  // One vault (skip-list partition + mailbox + PIM core) per key range.
  std::vector<std::unique_ptr<core::SkipList>> lists;
  std::vector<std::unique_ptr<Mailbox<SkipMsg>>> inboxes;
  for (std::size_t i = 0; i < partitions; ++i) {
    lists.push_back(std::make_unique<core::SkipList>(
        partition_sentinel(i, cfg.key_range, partitions)));
    inboxes.push_back(std::make_unique<Mailbox<SkipMsg>>());
  }
  Xoshiro256 setup(cfg.seed ^ 0x5eedULL);
  std::size_t total_size = 0;
  while (total_size < cfg.initial_size) {
    const std::uint64_t key = setup.next_in(1, cfg.key_range);
    core::SkipList& part = *lists[partition_of(key, cfg.key_range, partitions)];
    if (part.insert_for_setup(setup, key)) {
      record_setup_add(cfg.recorder, key);
      ++total_size;
    }
  }

  const double msg_ns = cfg.params.message();
  // Per-partition op counts: the raw material of the Table 2 / PIM-tree
  // skew analysis (uniform keys should load vaults evenly; skew shows up
  // directly as counter imbalance).
  auto& registry = obs::Registry::instance();
  std::vector<obs::Counter*> part_ops;
  for (std::size_t v = 0; v < partitions; ++v) {
    part_ops.push_back(&registry.counter("sim.pim_skiplist.vault" +
                                         std::to_string(v) + ".ops"));
  }
  for (std::size_t v = 0; v < partitions; ++v) {
    engine.spawn("pim-core" + std::to_string(v), [&, v](Context& ctx) {
      core::SkipList& list = *lists[v];
      Mailbox<SkipMsg>& inbox = *inboxes[v];
      std::size_t stopped = 0;
      while (stopped < cfg.num_cpus) {
        const SkipMsg m = inbox.recv(ctx);
        if (m.stop) {
          ++stopped;
          continue;
        }
        // Latency attribution: send -> pickup splits exactly into the
        // Lmessage request_flight and the queueing remainder
        // (mailbox_queue); vault_service is the traversal, response_flight
        // the reply's crossbar leg. In virtual time these tile the
        // requester's await window exactly.
        const Time t_serve = ctx.now();
        if (m.issue_ns != 0) {
          const Time wait = t_serve - m.issue_ns;
          const Time flight = wait < static_cast<Time>(msg_ns)
                                  ? wait
                                  : static_cast<Time>(msg_ns);
          obs::record_sim_phase(obs::Phase::kRequestFlight, flight);
          obs::record_sim_phase(obs::Phase::kMailboxQueue, wait - flight);
          if (m.req != 0 && obs::trace_enabled()) {
            ctx.trace_instant("req_dispatch", {"req", m.req},
                              {"wait_ns", t_serve - m.issue_ns});
          }
        }
        part_ops[v]->add(1);
        const bool r = list.execute(m.op, m.key, ctx.rng(),
                                    hop_charge(ctx, MemClass::kPimLocal));
        // Asynchronous response (pipelining): the core serves the next
        // request while the reply is in flight.
        m.reply->set(ctx, r, msg_ns);
        if (m.issue_ns != 0) {
          obs::record_sim_phase(obs::Phase::kVaultService,
                                ctx.now() - t_serve);
          obs::record_sim_phase(obs::Phase::kResponseFlight,
                                static_cast<Time>(msg_ns));
          if (obs::trace_enabled()) {
            ctx.trace_complete("vault_service", t_serve, {"vault", v});
          }
        }
      }
    });
  }

  // Optional skew (telemetry scenario): Zipf ranks map rank 0 -> key 1, so
  // the hot mass lands in partition 0 and per-vault counter imbalance is
  // the expected signal. Shared across CPU actors: next() is const and the
  // fibers are cooperatively scheduled on one thread.
  std::optional<ZipfGenerator> zipf;
  if (cfg.zipf_theta > 0.0) zipf.emplace(cfg.key_range, cfg.zipf_theta);

  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < cfg.num_cpus; ++i) {
    engine.spawn("cpu" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      std::uint64_t ops = 0;
      SimSlot<bool> reply;
      while (ctx.now() < cfg.duration_ns) {
        const SetOp op = pick_op(ctx.rng(), cfg.mix);
        const std::uint64_t key = zipf.has_value()
                                      ? zipf->next(ctx.rng()) + 1
                                      : ctx.rng().next_in(1, cfg.key_range);
        const Time issued = ctx.now();
        const std::uint64_t rid =
            obs::trace_enabled() ? obs::next_request_id() : 0;
        if (log != nullptr) log->begin(check_op(op), key, issued);
        // Route by the CPU-cached sentinel directory (Section 4.2): the
        // sentinels are few and hot, so the lookup hits the CPU cache; we
        // charge one LLC access for it. That lookup is the op's issue phase.
        ctx.charge(MemClass::kLlc);
        obs::record_sim_phase(obs::Phase::kIssue, ctx.now() - issued);
        const std::size_t p = partition_of(key, cfg.key_range, partitions);
        inboxes[p]->send(ctx, SkipMsg{op, key, &reply, false, ctx.now(), rid});
        const bool r = reply.await(ctx);
        if (log != nullptr) {
          log->end(r ? check::kRetTrue : check::kRetFalse, ctx.now());
        }
        obs::record_sim_phase(obs::Phase::kTotal, ctx.now() - issued);
        if (rid != 0) {
          ctx.trace_complete("op", issued, {"req", rid}, {"key", key});
        }
        ++ops;
      }
      for (std::size_t v = 0; v < partitions; ++v) {
        inboxes[v]->send(ctx, SkipMsg{SetOp::kContains, 0, nullptr, true});
      }
      total_ops += ops;
    });
  }
  engine.run();
  return {total_ops, cfg.duration_ns};
}

}  // namespace pimds::sim
