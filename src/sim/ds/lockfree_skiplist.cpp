#include <string>

#include "core/skip_list.hpp"
#include "sim/ds/skiplists.hpp"

namespace pimds::sim {

RunResult run_lockfree_skiplist(const SkipListConfig& cfg) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);
  core::SkipList list(0);
  Xoshiro256 setup(cfg.seed ^ 0x5eedULL);
  list.populate(setup, cfg.initial_size, 1, cfg.key_range);
  record_setup_contents(cfg.recorder, list.keys());

  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < cfg.num_cpus; ++i) {
    engine.spawn("cpu" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      std::uint64_t ops = 0;
      while (ctx.now() < cfg.duration_ns) {
        const SetOp op = pick_op(ctx.rng(), cfg.mix);
        const std::uint64_t key = ctx.rng().next_in(1, cfg.key_range);
        if (log != nullptr) log->begin(check_op(op), key, ctx.now());
        ctx.sync();
        const bool effect = list.execute(
            op, key, ctx.rng(), hop_charge(ctx, MemClass::kCpuDram));
        if (log != nullptr) {
          log->end(effect ? check::kRetTrue : check::kRetFalse, ctx.now());
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
