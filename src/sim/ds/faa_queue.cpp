#include <deque>
#include <string>

#include "sim/ds/queues.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

RunResult run_faa_queue(const QueueConfig& cfg) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);

  // The queue body; F&A tickets linearize access so a plain deque mutated in
  // scheduled slices is faithful. Enqueues and dequeues hit different shared
  // variables (the paper's F&A queue allows parallel enq/deq).
  std::deque<std::uint64_t> items;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i) items.push_back(i);
  SimCacheLine enq_line;
  SimCacheLine deq_line;

  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < cfg.enqueuers; ++i) {
    engine.spawn("enq" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      ArrivalPacer pacer(cfg, ctx);
      std::uint64_t ops = 0;
      while (ctx.now() < cfg.duration_ns) {
        const Time intended = pacer.next(ctx);
        if (intended >= cfg.duration_ns) break;
        const Time issued = ctx.now();
        const std::uint64_t value =
            log != nullptr
                ? ((static_cast<std::uint64_t>(i) + 1) << 48) | ops
                : ctx.rng().next();
        if (log != nullptr) log->begin(check::kEnq, value, issued);
        enq_line.atomic_rmw(ctx);  // claim a slot with F&A (serialized)
        items.push_back(value);
        if (log != nullptr) log->end(check::kRetTrue, ctx.now());
        if (cfg.latency_sink_ns != nullptr) {
          cfg.latency_sink_ns->push_back(
              static_cast<double>(ctx.now() - intended));
        }
        ++ops;
      }
      total_ops += ops;
    });
  }
  for (std::size_t i = 0; i < cfg.dequeuers; ++i) {
    engine.spawn("deq" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr
              ? &cfg.recorder->log(cfg.enqueuers + i)
              : nullptr;
      ArrivalPacer pacer(cfg, ctx);
      std::uint64_t ops = 0;
      while (ctx.now() < cfg.duration_ns) {
        const Time intended = pacer.next(ctx);
        if (intended >= cfg.duration_ns) break;
        const Time issued = ctx.now();
        if (log != nullptr) log->begin(check::kDeq, 0, issued);
        deq_line.atomic_rmw(ctx);
        std::uint64_t out = check::kRetEmpty;
        if (!items.empty()) {
          out = items.front();
          items.pop_front();
        }
        if (log != nullptr) log->end(out, ctx.now());
        if (cfg.latency_sink_ns != nullptr) {
          cfg.latency_sink_ns->push_back(
              static_cast<double>(ctx.now() - intended));
        }
        ++ops;
      }
      total_ops += ops;
    });
  }
  engine.run();
  return {total_ops, cfg.duration_ns};
}

}  // namespace pimds::sim
