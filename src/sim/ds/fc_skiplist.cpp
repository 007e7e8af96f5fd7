#include <memory>
#include <string>
#include <vector>

#include "core/skip_list.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim/flat_combining.hpp"

namespace pimds::sim {

RunResult run_fc_skiplist(const SkipListConfig& cfg, std::size_t partitions) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);

  // k independent flat-combining skip-lists, one combiner per partition
  // (Section 4.2: "k combiners are in charge of k partitions").
  std::vector<std::unique_ptr<core::SkipList>> lists;
  using Combiner = SimFlatCombiner<SetRequest, bool>;
  std::vector<std::unique_ptr<Combiner>> combiners;
  for (std::size_t i = 0; i < partitions; ++i) {
    lists.push_back(std::make_unique<core::SkipList>(
        partition_sentinel(i, cfg.key_range, partitions)));
    combiners.push_back(std::make_unique<Combiner>());
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

  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < cfg.num_cpus; ++i) {
    engine.spawn("cpu" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      std::uint64_t ops = 0;
      while (ctx.now() < cfg.duration_ns) {
        const SetOp op = pick_op(ctx.rng(), cfg.mix);
        const std::uint64_t key = ctx.rng().next_in(1, cfg.key_range);
        const std::size_t p = partition_of(key, cfg.key_range, partitions);
        core::SkipList& list = *lists[p];
        if (log != nullptr) log->begin(check_op(op), key, ctx.now());
        // No combining optimization for skip-lists (Section 4.2: distant
        // keys share no traversal prefix); the combiner executes requests
        // one by one.
        const bool r = combiners[p]->submit(
            ctx, {op, key},
            [&list](Context& cctx, std::vector<Combiner::Pending>& batch) {
              for (auto& pending : batch) {
                const bool res = list.execute(
                    pending.request.op, pending.request.key, cctx.rng(),
                    hop_charge(cctx, MemClass::kCpuDram));
                pending.slot->set(cctx, res);
              }
            });
        if (log != nullptr) {
          log->end(r ? check::kRetTrue : check::kRetFalse, ctx.now());
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
