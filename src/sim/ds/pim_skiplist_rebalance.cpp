// The simulated PIM skip-list (Section 4.2, Table 2, Figure 4) with the
// full Section 4.2.1 node-migration protocol: one host for the paper rows
// (run_pim_skiplist, no policy) and the migration runs
// (run_pim_skiplist_rebalance, an oracle or active policy).
//
// The vault side is core::SkipListVault (core/skip_list_vault.hpp), the
// code the runtime skip list runs, over the paper's one-key core::SkipList;
// this host decodes its messages, routes CPUs through a
// core::SentinelDirectory, attributes each request's latency to phases
// (obs/phase.hpp), and runs the window monitor and the oracle and active
// rebalancing policies. The active policy is core::RebalanceStep, the
// decision the runtime's AutoRebalancer runs, over an obs::LoadMap.
// RebalanceFault's mutants are the two Fault hooks (SimFault below): the
// protocol mutants are the handler's, kThrash and kSplitOffByOne the
// step's.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/zipf.hpp"
#include "core/rebalance_step.hpp"
#include "core/sentinel_directory.hpp"
#include "core/skip_list.hpp"
#include "core/skip_list_vault.hpp"
#include "obs/loadmap.hpp"
#include "obs/obs.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

namespace {

using core::SkipListReply;
using Slot = SimSlot<SkipListReply>;

/// The paper's one-key skip list as a SkipListVault index: its towers draw
/// from the vault core's RNG, bound when the core's actor starts. The
/// global-minimum sentinel lets migrations hand any vault any range.
struct TowerIndex : core::SkipList {
  TowerIndex() : core::SkipList(0) {}

  template <typename Charge>
  bool execute(SetOp op, std::uint64_t key, Charge&& charge) {
    return core::SkipList::execute(op, key, *rng, charge);
  }
  template <typename Charge>
  bool insert_ascending(InsertCursor& cursor, std::uint64_t key,
                        Charge&& charge) {
    return core::SkipList::insert_ascending(cursor, key, *rng, charge);
  }

  Xoshiro256* rng = nullptr;
};

/// RebalanceFault's mutants as SkipListVault's and RebalanceStep's Fault
/// hooks.
struct SimFault {
  RebalanceFault kind = RebalanceFault::kNone;
  const core::SentinelDirectory* directory = nullptr;

  bool serve_moved() const noexcept {
    return kind == RebalanceFault::kStaleServe;
  }
  bool serve_incoming() const noexcept {
    return kind == RebalanceFault::kNoDefer;
  }
  bool directory_grants(std::size_t self, std::uint64_t key) const {
    return kind == RebalanceFault::kDirectoryBeforeGrant &&
           directory->route(key) == self;
  }
  /// kNoDefer: the notify-first reading of Section 4.2.1, which makes the
  /// missing defer reachable (with the completion-time publish, the FIFO
  /// mailbox lets no direct request overtake the last node).
  /// kDirectoryBeforeGrant: recreates the runtime's lane overtake under
  /// this simulator's in-order delivery.
  bool publish_at_start() const noexcept {
    return kind == RebalanceFault::kNoDefer ||
           kind == RebalanceFault::kDirectoryBeforeGrant;
  }
  bool ignore_hysteresis() const noexcept {
    return kind == RebalanceFault::kThrash;
  }
  bool split_at_hot_key() const noexcept {
    return kind == RebalanceFault::kSplitOffByOne;
  }
};

using Handler = core::SkipListVault<TowerIndex, Slot*, SimFault>;
using Signal = Handler::Signal;

struct Msg {
  enum class Kind : std::uint8_t { kOp, kMigStart, kSignal, kStop };
  Kind kind = Kind::kStop;
  SetOp op = SetOp::kContains;
  std::uint64_t key = 0;
  std::uint64_t hi = 0;   ///< kMigStart: range end
  std::size_t peer = 0;   ///< kMigStart: target; kSignal: sender
  Slot* reply = nullptr;
  Signal signal{};        ///< kSignal
  // kOp trace context (obs/phase.hpp): the virtual send time, for the
  // request_flight / mailbox_queue split, and the causal request id tying
  // the CPU's `op` span to the serving core's events.
  Time issue_ns = 0;
  std::uint64_t req = 0;
};

struct SimVault {
  SimVault(std::size_t migrate_chunk, SimFault fault)
      : handler(migrate_chunk, fault) {}

  Handler handler;
  Mailbox<Msg> inbox;
};

/// The state the vault actors share with the CPUs and the policies.
struct Host {
  explicit Host(const RebalanceConfig& cfg)
      : msg_ns(cfg.params.message()),
        dir(core::SentinelDirectory::equal_ranges(1, cfg.key_range,
                                                  cfg.partitions)),
        load(load_options(cfg)) {
    auto& registry = obs::Registry::instance();
    for (std::size_t v = 0; v < cfg.partitions; ++v) {
      vaults.push_back(std::make_unique<SimVault>(
          cfg.migrate_chunk, SimFault{cfg.fault, &dir}));
      vault_ops.push_back(&registry.counter("sim.pim_skiplist.vault" +
                                            std::to_string(v) + ".ops"));
    }
    Handler::assign_initial(
        dir, [this](std::size_t v) -> Handler& { return vaults[v]->handler; });
  }

  /// kMigStart to `source`: hand [split, end of its partition) to
  /// `target`. True if the source accepted.
  bool migrate(Context& ctx, std::size_t source, std::uint64_t split,
               std::size_t target, Slot& reply) {
    Msg m;
    m.kind = Msg::Kind::kMigStart;
    m.key = split;
    m.hi = dir.partition_of(split).hi;
    m.peer = target;
    m.reply = &reply;
    vaults[source]->inbox.send(ctx, m);
    return reply.await(ctx).accepted;
  }

  /// The active policy's input: the runtime's LoadMap grid and sketch over
  /// [1, key_range], unregistered (the per-vault counters are vault_ops).
  static obs::LoadMap::Options load_options(const RebalanceConfig& cfg) {
    obs::LoadMap::Options lm;
    lm.num_vaults = cfg.partitions;
    lm.key_min = 1;
    lm.key_max = cfg.key_range;
    lm.registry_prefix = "";
    return lm;
  }

  void stop_all(Context& ctx) {
    for (const auto& vault : vaults) vault->inbox.send(ctx, Msg{});
  }

  std::uint64_t requests(std::size_t v) const {
    return vaults[v]->handler.stats().requests.load(std::memory_order_relaxed);
  }

  double msg_ns;
  core::SentinelDirectory dir;  ///< the CPUs' sentinel copies
  obs::LoadMap load;
  std::vector<std::unique_ptr<SimVault>> vaults;
  /// Ops executed per vault: uniform keys load the vaults evenly, skew
  /// shows up directly as counter imbalance (the telemetry scenario).
  std::vector<obs::Counter*> vault_ops;
  bool migration_busy = false;  ///< the Section 4.2.1 one-at-a-time guard
};

/// SkipListVault's context over the simulator: one per vault actor.
struct VaultCtx {
  Host& host;
  std::size_t vault;
  Context& ctx;

  std::size_t self() const { return vault; }
  void send(std::size_t to, const Signal& s) {
    if (s.kind == Signal::Kind::kMigBegin) {
      ctx.trace_instant("mig_start", {"lo", s.key}, {"hi", s.hi});
    } else if (s.kind == Signal::Kind::kMigEnd) {
      ctx.trace_instant("mig_complete", {"source", vault}, {"target", to});
    }
    Msg m;
    m.kind = Msg::Kind::kSignal;
    m.peer = vault;
    m.signal = s;
    host.vaults[to]->inbox.send(ctx, m);
    if (s.kind == Signal::Kind::kForward) {
      ctx.trace_instant("mig_forward", {"key", s.key});
    }
  }
  void charge(std::uint64_t n) { ctx.charge(MemClass::kPimLocal, n); }
  void reply(Slot* slot, SkipListReply reply) {
    slot->set(ctx, reply, host.msg_ns);
  }
  void record(std::uint64_t key) {
    host.vault_ops[vault]->add(1);
    host.load.record(vault, key);
  }
  void publish_range(std::uint64_t lo, std::size_t to) {
    host.dir.move_range(lo, to);
  }
  void migration_done() { host.migration_busy = false; }
};

}  // namespace

RebalanceResult run_pim_skiplist_rebalance(const RebalanceConfig& cfg) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);
  const std::size_t k = cfg.partitions;
  RebalanceResult result;

  Host host(cfg);
  core::SentinelDirectory& dir = host.dir;
  {
    Xoshiro256 setup(cfg.seed ^ 0x5eedULL);
    std::size_t total = 0;
    while (total < cfg.initial_size) {
      const std::uint64_t key = setup.next_in(1, cfg.key_range);
      TowerIndex& index = host.vaults[dir.route(key)]->handler.index();
      if (index.insert_for_setup(setup, key)) {
        record_setup_add(cfg.recorder, key);
        ++total;
      }
    }
  }
  std::int64_t net_adds = 0;  // successful adds minus successful removes

  // Every actor but the vaults sends each vault one stop: the CPUs, the
  // window monitor and, unless there is no policy, the rebalancer.
  const bool has_policy = cfg.policy != RebalancePolicy::kNone;
  const std::size_t stops = cfg.num_cpus + 1 + (has_policy ? 1 : 0);
  for (std::size_t v = 0; v < k; ++v) {
    engine.spawn("pim-core" + std::to_string(v), [&, v](Context& ctx) {
      SimVault& vault = *host.vaults[v];
      Handler& handler = vault.handler;
      handler.index().rng = &ctx.rng();
      VaultCtx vctx{host, v, ctx};
      std::size_t stopped = 0;
      while (stopped < stops) {
        Msg m;
        if (handler.migrating_out()) {
          // Keep the migration moving even while requests arrive.
          auto polled = vault.inbox.try_recv(ctx);
          if (!polled.has_value()) {
            handler.step_migration(vctx);
            continue;
          }
          m = *polled;
        } else {
          m = vault.inbox.recv(ctx);
        }
        switch (m.kind) {
          case Msg::Kind::kOp: {
            // Latency attribution: send -> pickup splits into the
            // Lmessage request_flight and the queueing remainder
            // (mailbox_queue); vault_service is the handler's work and
            // response_flight the reply's crossbar leg. In virtual time
            // they tile the attempt exactly when the op executes here.
            const Time t_serve = ctx.now();
            const Time wait = t_serve - m.issue_ns;
            const Time flight = std::min(wait, static_cast<Time>(host.msg_ns));
            obs::record_sim_phase(obs::Phase::kRequestFlight, flight);
            obs::record_sim_phase(obs::Phase::kMailboxQueue, wait - flight);
            if (m.req != 0 && obs::trace_enabled()) {
              ctx.trace_instant("req_dispatch", {"req", m.req},
                                {"wait_ns", wait});
            }
            handler.request(vctx, m.op, m.key, m.reply);
            obs::record_sim_phase(obs::Phase::kVaultService,
                                  ctx.now() - t_serve);
            obs::record_sim_phase(obs::Phase::kResponseFlight,
                                  static_cast<Time>(host.msg_ns));
            if (obs::trace_enabled()) {
              ctx.trace_complete("vault_service", t_serve, {"vault", v});
            }
            break;
          }
          case Msg::Kind::kMigStart:
            handler.start_migration(vctx, m.key, m.hi, m.peer, m.reply);
            break;
          case Msg::Kind::kSignal:
            if (m.signal.kind == Signal::Kind::kMigBegin) {
              ctx.trace_instant("mig_begin", {"lo", m.signal.key},
                                {"hi", m.signal.hi});
            }
            handler.receive(vctx, m.peer, m.signal);
            break;
          case Msg::Kind::kStop:
            ++stopped;
            break;
        }
        handler.step_migration(vctx);
      }
    });
  }

  // Keys are uniform on [1, N], or Zipf(theta) with rank 0 -> key 1, so
  // vault 0 is the hot spot. The generator is shared by the CPU actors:
  // next() is const and the fibers run on one thread.
  std::optional<ZipfGenerator> zipf;
  if (cfg.zipf_theta > 0.0) zipf.emplace(cfg.key_range, cfg.zipf_theta);

  const Time third = cfg.duration_ns / 3;
  std::uint64_t total_ops = 0;
  std::uint64_t before_ops = 0;
  std::uint64_t after_ops = 0;
  for (std::size_t i = 0; i < cfg.num_cpus; ++i) {
    engine.spawn("cpu" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      Slot reply;
      while (ctx.now() < cfg.duration_ns) {
        const SetOp op = pick_op(ctx.rng(), cfg.mix);
        const std::uint64_t key = zipf.has_value()
                                      ? zipf->next(ctx.rng()) + 1
                                      : ctx.rng().next_in(1, cfg.key_range);
        const Time issued = ctx.now();
        const std::uint64_t rid =
            obs::trace_enabled() ? obs::next_request_id() : 0;
        if (log != nullptr) log->begin(check_op(op), key, issued);
        SkipListReply r;
        for (;;) {
          // Route by the CPU-cached sentinel directory (Section 4.2): the
          // sentinels are few and hot, so each lookup, a re-route after a
          // rejection included, costs one LLC access: the issue phase.
          const Time lookup = ctx.now();
          ctx.charge(MemClass::kLlc);
          obs::record_sim_phase(obs::Phase::kIssue, ctx.now() - lookup);
          Msg m;
          m.kind = Msg::Kind::kOp;
          m.op = op;
          m.key = key;
          m.reply = &reply;
          m.issue_ns = ctx.now();
          m.req = rid;
          host.vaults[dir.route(key)]->inbox.send(ctx, m);
          r = reply.await(ctx);
          if (r.accepted) break;
        }
        if (r.result && op == SetOp::kAdd) ++net_adds;
        if (r.result && op == SetOp::kRemove) --net_adds;
        if (log != nullptr) {
          log->end(r.result ? check::kRetTrue : check::kRetFalse, ctx.now());
        }
        obs::record_sim_phase(obs::Phase::kTotal, ctx.now() - issued);
        if (rid != 0) {
          ctx.trace_complete("op", issued, {"req", rid}, {"key", key});
        }
        ++total_ops;
        if (ctx.now() < third) {
          ++before_ops;
        } else if (ctx.now() >= 2 * third) {
          ++after_ops;
        }
      }
      host.stop_all(ctx);
    });
  }

  // Window monitor: samples the per-vault load series every
  // policy_period_ns for every policy (including no-rebalance controls),
  // the basis of the windowed-imbalance assertions.
  engine.spawn("monitor", [&](Context& ctx) {
    std::vector<std::uint64_t> last(k, 0);
    while (ctx.now() < cfg.duration_ns) {
      ctx.advance(static_cast<double>(cfg.policy_period_ns));
      ctx.sync();
      RebalanceWindow w;
      w.t_end = ctx.now();
      std::uint64_t peak = 0;
      for (std::size_t v = 0; v < k; ++v) {
        const std::uint64_t d = host.requests(v) - last[v];
        last[v] = host.requests(v);
        w.ops += d;
        if (d > peak) {
          peak = d;
          w.hottest = v;
        }
      }
      if (w.ops > 0) {
        w.imbalance = static_cast<double>(peak) * static_cast<double>(k) /
                      static_cast<double>(w.ops);
      }
      result.windows.push_back(w);
    }
    host.stop_all(ctx);
  });

  // The active policy: every policy_period_ns, the LoadMap window goes
  // through the decision step (core/rebalance_step.hpp); a decision is a
  // kMigStart to the hottest vault.
  const auto active_policy = [&](Context& ctx) {
    core::RebalanceStep<SimFault> step(cfg.trigger, SimFault{cfg.fault, &dir});
    Slot reply;
    while (ctx.now() < cfg.duration_ns) {
      ctx.advance(static_cast<double>(cfg.policy_period_ns));
      ctx.sync();
      const auto move = step.decide(host.load.report(), dir, cfg.key_range,
                                    host.migration_busy);
      if (!move) continue;
      host.migration_busy = true;
      if (!host.migrate(ctx, move->source, move->split, move->target,
                        reply)) {
        host.migration_busy = false;
        continue;
      }
      step.migrated(*move);
      ++result.migrations;
      if (ctx.now() >= 2 * third) ++result.migrations_late;
    }
    // Drain an in-flight migration before stopping the vaults: the stops
    // below would otherwise overtake the tail of the kMigNode stream in
    // the target's FIFO inbox, and the extracted-but-not-yet-inserted keys
    // would be lost with the run's teardown (the guard is cleared by the
    // target when it processes kMigEnd, so waiting on it is exact).
    while (host.migration_busy) {
      ctx.advance(50'000);
      ctx.sync();
    }
  };

  // The oracle: at t = duration/3, split the workload's quartiles off the
  // hot range, one migration at a time (the Section 4.2.1 guard).
  const auto oracle_policy = [&](Context& ctx) {
    ctx.advance(static_cast<double>(third));
    // Quantile estimate of the Zipf mass (operator-side knowledge).
    Xoshiro256 rng(cfg.seed ^ 0x9a17ULL);
    ZipfGenerator quantiles(cfg.key_range, cfg.zipf_theta);
    std::vector<std::uint64_t> sample(20000);
    for (auto& s : sample) s = quantiles.next(rng) + 1;
    std::sort(sample.begin(), sample.end());
    std::vector<std::uint64_t> splits;
    for (std::size_t q = 1; q < k; ++q) {
      std::uint64_t split = sample[q * sample.size() / k];
      const std::uint64_t prev = splits.empty() ? 1 : splits.back();
      if (split <= prev) split = prev + 1;
      splits.push_back(split);
    }
    Slot reply;
    // Descending split order: each range leaves the hot vault directly
    // instead of cascading through every intermediate target.
    for (std::size_t q = splits.size(); q-- > 0;) {
      const std::size_t target = q + 1;
      for (;;) {
        if (host.migration_busy) {
          ctx.advance(50'000);
          ctx.sync();
          continue;
        }
        ctx.sync();
        const std::size_t source = dir.route(splits[q]);
        if (source == target) break;
        host.migration_busy = true;
        if (host.migrate(ctx, source, splits[q], target, reply)) {
          ++result.migrations;
          if (ctx.now() >= 2 * third) ++result.migrations_late;
          break;
        }
        host.migration_busy = false;
        ctx.advance(50'000);
      }
      // Wait for completion (kMigEnd clears the guard).
      while (host.migration_busy) {
        ctx.advance(50'000);
        ctx.sync();
      }
    }
  };

  if (has_policy) {
    engine.spawn("rebalancer", [&](Context& ctx) {
      if (cfg.policy == RebalancePolicy::kActiveLoadMap) {
        active_policy(ctx);
      } else {
        oracle_policy(ctx);
      }
      host.stop_all(ctx);
    });
  }

  engine.run();

  result.all = {total_ops, cfg.duration_ns};
  result.before = {before_ops, third};
  result.after = {after_ops, third};
  std::int64_t final_size = 0;
  for (std::size_t v = 0; v < k; ++v) {
    const core::SkipListVaultStats& stats = host.vaults[v]->handler.stats();
    result.final_requests_per_vault.push_back(host.requests(v));
    result.migrated_keys += stats.migrated_keys.load();
    result.forwarded += stats.forwarded.load();
    result.deferred += stats.deferred.load();
    result.rejections += stats.rejected.load();
    final_size +=
        static_cast<std::int64_t>(host.vaults[v]->handler.index().size());
  }
  // A run with no policy cannot migrate: it leaves the migration counters
  // unregistered, so the paper benches' metrics do not list them.
  if (has_policy) {
    auto& registry = obs::Registry::instance();
    registry.counter("sim.rebalance.migrated_keys").add(result.migrated_keys);
    registry.counter("sim.rebalance.forwarded").add(result.forwarded);
    registry.counter("sim.rebalance.deferred").add(result.deferred);
    registry.counter("sim.rebalance.rejections").add(result.rejections);
  }
  result.size_consistent =
      final_size == static_cast<std::int64_t>(cfg.initial_size) + net_adds;
  return result;
}

RunResult run_pim_skiplist(const SkipListConfig& cfg, std::size_t partitions) {
  RebalanceConfig plain;
  static_cast<SkipListConfig&>(plain) = cfg;
  plain.partitions = partitions;
  plain.policy = RebalancePolicy::kNone;
  return run_pim_skiplist_rebalance(plain).all;
}

}  // namespace pimds::sim
