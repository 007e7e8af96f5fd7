#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "sim/ds/queues.hpp"
#include "sim/flat_combining.hpp"

namespace pimds::sim {

RunResult run_fc_queue(const QueueConfig& cfg, bool single_lock) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);

  std::deque<std::uint64_t> items;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i) items.push_back(i);

  // Section 5.2 cost accounting: one LLC access to compete for the combiner
  // lock, two LLC accesses per served publication slot. The two-lock queue
  // has one combiner per role; the original single_lock flat combining
  // sends both roles to the enqueue combiner.
  struct Req {
    bool is_enq;
    std::uint64_t value;
  };
  using Combiner = SimFlatCombiner<Req, std::optional<std::uint64_t>>;
  const Combiner::CostConfig costs{/*charge_lock_llc=*/true,
                                   /*charge_slot_llc=*/true};
  Combiner enq_fc(costs);
  Combiner deq_fc(costs);
  Combiner& deq_role_fc = single_lock ? enq_fc : deq_fc;
  const auto serve = [&](Context& cctx, std::vector<Combiner::Pending>& batch) {
    for (auto& p : batch) {
      if (cfg.charge_node_access) cctx.charge(MemClass::kCpuDram);
      std::optional<std::uint64_t> out;
      if (p.request.is_enq) {
        items.push_back(p.request.value);
      } else if (!items.empty()) {
        out = items.front();
        items.pop_front();
      }
      p.slot->set(cctx, out);
    }
  };

  std::uint64_t total_ops = 0;
  const auto spawn = [&](std::string name, bool is_enq, std::size_t slot) {
    engine.spawn(std::move(name), [&, is_enq, slot](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(slot) : nullptr;
      Combiner& fc = is_enq ? enq_fc : deq_role_fc;
      ArrivalPacer pacer(cfg, ctx);
      std::uint64_t ops = 0;
      while (ctx.now() < cfg.duration_ns) {
        const Time intended = pacer.next(ctx);
        if (intended >= cfg.duration_ns) break;
        const Time issued = ctx.now();
        const std::uint64_t value =
            !is_enq ? 0
            : log != nullptr
                ? ((static_cast<std::uint64_t>(slot) + 1) << 48) | ops
                : ctx.rng().next();
        if (log != nullptr) {
          log->begin(is_enq ? check::kEnq : check::kDeq, value, issued);
        }
        const std::optional<std::uint64_t> out =
            fc.submit(ctx, Req{is_enq, value}, serve);
        if (log != nullptr) {
          log->end(is_enq ? check::kRetTrue : out.value_or(check::kRetEmpty),
                   ctx.now());
        }
        if (cfg.latency_sink_ns != nullptr) {
          cfg.latency_sink_ns->push_back(
              static_cast<double>(ctx.now() - intended));
        }
        ++ops;
      }
      total_ops += ops;
    });
  };
  for (std::size_t i = 0; i < cfg.enqueuers; ++i) {
    spawn("enq" + std::to_string(i), true, i);
  }
  for (std::size_t i = 0; i < cfg.dequeuers; ++i) {
    spawn("deq" + std::to_string(i), false, cfg.enqueuers + i);
  }
  engine.run();
  return {total_ops, cfg.duration_ns};
}

}  // namespace pimds::sim
