// Simulated Michael-Scott queue: the classic CAS-based FIFO, included to
// show why the paper benchmarks against the F&A queue instead — CAS retry
// loops burn serialized Latomic slots on failures, so throughput DEGRADES
// as threads are added, while the F&A queue holds its 1/Latomic bound
// (David, Guerraoui, Trigonakis [16]; paper Section 5.2 footnote).
#include <deque>
#include <string>

#include "sim/ds/queues.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

RunResult run_ms_queue(const QueueConfig& cfg) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);

  std::deque<std::uint64_t> items;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i) items.push_back(i);
  SimCasLine tail_line;
  SimCasLine head_line;

  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < cfg.enqueuers; ++i) {
    engine.spawn("enq" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      std::uint64_t ops = 0;
      while (ctx.now() < cfg.duration_ns) {
        const std::uint64_t value =
            log != nullptr
                ? ((static_cast<std::uint64_t>(i) + 1) << 48) | ops
                : ctx.rng().next();
        if (log != nullptr) log->begin(check::kEnq, value, ctx.now());
        for (;;) {
          // Read the tail, then try to CAS the new node in; a failed CAS
          // means another enqueuer won the line since our read.
          const SimCasLine::ReadToken seen = tail_line.read(ctx);
          ctx.charge(MemClass::kLlc);  // the tail pointer is cache-hot
          if (tail_line.compare_and_swap(ctx, seen)) break;
        }
        items.push_back(value);
        if (log != nullptr) log->end(check::kRetTrue, ctx.now());
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
      std::uint64_t ops = 0;
      while (ctx.now() < cfg.duration_ns) {
        if (log != nullptr) log->begin(check::kDeq, 0, ctx.now());
        for (;;) {
          const SimCasLine::ReadToken seen = head_line.read(ctx);
          ctx.charge(MemClass::kLlc);
          if (head_line.compare_and_swap(ctx, seen)) break;
        }
        std::uint64_t out = check::kRetEmpty;
        if (!items.empty()) {
          out = items.front();
          items.pop_front();
        }
        if (log != nullptr) log->end(out, ctx.now());
        ++ops;
      }
      total_ops += ops;
    });
  }
  engine.run();
  return {total_ops, cfg.duration_ns};
}

}  // namespace pimds::sim
