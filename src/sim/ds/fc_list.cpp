#include <string>
#include <vector>

#include "sim/ds/linked_lists.hpp"
#include "sim/flat_combining.hpp"

namespace pimds::sim {

RunResult run_fc_list(const ListConfig& cfg, bool combining) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);
  core::SortedList<> list;
  Xoshiro256 setup(cfg.seed ^ 0xabcdefULL);
  list.populate(setup, cfg.initial_size, cfg.key_range);
  record_setup_contents(cfg.recorder, list.keys());

  using Combiner = SimFlatCombiner<SetRequest, bool>;
  // Table 1 counts only traversal costs for the FC list; the publication
  // list / combiner lock overheads are noted as negligible there.
  Combiner fc;

  const auto serve = [&](Context& ctx, std::vector<Combiner::Pending>& batch) {
    const auto charge = hop_charge(ctx, MemClass::kCpuDram);
    if (combining) {
      std::vector<SetRequest> requests;
      requests.reserve(batch.size());
      for (const auto& p : batch) requests.push_back(p.request);
      std::vector<bool> results(batch.size());
      list.execute_batch(requests, results, charge);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].slot->set(ctx, results[i]);
      }
    } else {
      for (auto& p : batch) {
        const bool r = list.execute(p.request.op, p.request.key, charge);
        p.slot->set(ctx, r);
      }
    }
  };

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
        const bool r = fc.submit(ctx, {op, key}, serve);
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
