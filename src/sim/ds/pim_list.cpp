#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "sim/ds/linked_lists.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

namespace {

struct ListMsg {
  SetOp op = SetOp::kContains;
  std::uint64_t key = 0;
  SimSlot<bool>* reply = nullptr;
  bool stop = false;
};

}  // namespace

RunResult run_pim_list(const ListConfig& cfg, bool combining) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);
  core::SortedList<> list;
  Xoshiro256 setup(cfg.seed ^ 0xabcdefULL);
  list.populate(setup, cfg.initial_size, cfg.key_range);
  record_setup_contents(cfg.recorder, list.keys());

  Mailbox<ListMsg> inbox;
  const double msg_ns = cfg.params.message();

  auto& registry = obs::Registry::instance();
  obs::Counter& c_ops = registry.counter("sim.pim_list.ops");
  obs::Histogram& h_batch = registry.histogram("sim.pim_list.combine_batch");

  // The single PIM core managing the vault that holds the whole list.
  engine.spawn("pim-core", [&, combining](Context& ctx) {
    std::size_t stopped = 0;
    std::vector<ListMsg> batch;
    std::vector<SetRequest> requests;
    std::vector<bool> results;
    const auto charge = hop_charge(ctx, MemClass::kPimLocal);
    while (stopped < cfg.num_cpus) {
      ListMsg first = inbox.recv(ctx);
      if (first.stop) {
        ++stopped;
        continue;
      }
      if (!combining) {
        const bool r = list.execute(first.op, first.key, charge);
        // Respond asynchronously: the reply travels for Lmessage while the
        // core moves on (request pipelining, Section 5.2).
        first.reply->set(ctx, r, msg_ns);
        c_ops.add(1);
        continue;
      }
      // Combining: drain every request already delivered and serve the
      // whole batch in a single traversal (Section 4.1).
      const Time batch_start = ctx.now();
      batch.clear();
      batch.push_back(first);
      while (auto more = inbox.try_recv(ctx)) {
        if (more->stop) {
          ++stopped;
        } else {
          batch.push_back(*more);
        }
      }
      requests.clear();
      for (const ListMsg& m : batch) requests.push_back({m.op, m.key});
      results.assign(batch.size(), false);
      list.execute_batch(requests, results, charge);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].reply->set(ctx, results[i], msg_ns);
      }
      c_ops.add(batch.size());
      h_batch.record(batch.size());
      ctx.trace_complete("drain_batch", batch_start, {"n", batch.size()});
    }
  });

  std::uint64_t total_ops = 0;
  for (std::size_t i = 0; i < cfg.num_cpus; ++i) {
    engine.spawn("cpu" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      std::uint64_t ops = 0;
      SimSlot<bool> reply;
      while (ctx.now() < cfg.duration_ns) {
        const SetOp op = pick_op(ctx.rng(), cfg.mix);
        const std::uint64_t key = ctx.rng().next_in(1, cfg.key_range);
        if (log != nullptr) log->begin(check_op(op), key, ctx.now());
        inbox.send(ctx, ListMsg{op, key, &reply, false});
        const bool r = reply.await(ctx);
        if (log != nullptr) {
          log->end(r ? check::kRetTrue : check::kRetFalse, ctx.now());
        }
        ++ops;
      }
      inbox.send(ctx, ListMsg{SetOp::kContains, 0, nullptr, true});
      total_ops += ops;
    });
  }
  engine.run();
  return {total_ops, cfg.duration_ns};
}

}  // namespace pimds::sim
