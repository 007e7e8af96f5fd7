// Simulated PIM skip-list with the full Section 4.2.1 node-migration
// protocol, driven by a Zipf-skewed workload and an online rebalancer.
//
// Protocol fidelity mirrors core/pim_skiplist.cpp:
//  - the migration source serves not-yet-migrated keys locally and
//    forwards already-migrated keys to the target on the same channel as
//    the kMigNode stream (per-channel FIFO makes the forward safe);
//  - the target defers direct requests for the incoming range until
//    kMigEnd, so they cannot overtake in-flight kMigNode messages;
//  - the source updates the CPU-visible directory BEFORE sending kMigEnd
//    (the paper notifies the CPUs first), so a post-migration request at
//    the source is simply rejected and re-routed.
#include <algorithm>
#include <cassert>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/zipf.hpp"
#include "core/skip_list.hpp"
#include "obs/obs.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"

namespace pimds::sim {

namespace {

struct Reply {
  bool accepted = false;
  bool result = false;
};

struct Msg {
  enum class Kind : std::uint8_t {
    kOp,
    kMigStart,
    kMigBegin,
    kMigNode,
    kMigEnd,
    kFwdOp,
    kStop,
  };
  Kind kind = Kind::kStop;
  SetOp op = SetOp::kContains;
  std::uint64_t key = 0;
  std::uint64_t hi = 0;      ///< kMigStart / kMigBegin: range end
  std::size_t peer = 0;      ///< kMigStart: target vault
  SimSlot<Reply>* reply = nullptr;
};

struct Migration {
  bool active = false;
  bool outgoing = false;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::size_t peer = 0;
  std::uint64_t cursor = 0;
};

struct Directory {
  std::vector<std::pair<std::uint64_t, std::size_t>> entries;  // sorted

  std::size_t route(std::uint64_t key) const {
    auto it = std::upper_bound(
        entries.begin(), entries.end(), key,
        [](std::uint64_t k, const auto& e) { return k < e.first; });
    assert(it != entries.begin());
    return (it - 1)->second;
  }

  std::uint64_t end_of(std::uint64_t key) const {
    auto it = std::upper_bound(
        entries.begin(), entries.end(), key,
        [](std::uint64_t k, const auto& e) { return k < e.first; });
    return it == entries.end() ? ~std::uint64_t{0} : it->first;
  }

  void move_range(std::uint64_t split, std::size_t vault) {
    auto it = std::upper_bound(
        entries.begin(), entries.end(), split,
        [](std::uint64_t k, const auto& e) { return k < e.first; });
    --it;
    if (it->first == split) {
      it->second = vault;
    } else {
      entries.insert(it + 1, {split, vault});
    }
  }
};

struct SimVault {
  std::size_t id = 0;
  std::unique_ptr<core::SkipList> list;
  Mailbox<Msg> inbox;
  Migration mig;
  std::deque<Msg> deferred;
  /// This core's OWN view of the ranges it serves (lo -> hi, exclusive),
  /// advanced only by events this core has already processed (mirrors
  /// core/pim_skiplist.cpp): execute/reject must consult this, never the
  /// shared directory, which the source updates before the target has
  /// processed the granting kMigBegin/kMigNode/kMigEnd stream.
  std::map<std::uint64_t, std::uint64_t> owned;
  /// Target-side fingers: kMigNode keys arrive ascending, so inserts are
  /// amortized O(1) (the dual of the source's amortized extraction).
  core::SkipList::InsertCursor incoming_cursor;
  std::uint64_t requests = 0;
};

/// Deterministic in-sim load accounting for the kActiveLoadMap policy —
/// the sim twin of obs::LoadMap (global key-range grid + per-vault
/// SpaceSaving hot-key sketch), kept independent of the metrics registry
/// so schedule exploration stays deterministic with observability off.
struct SimLoad {
  static constexpr std::size_t kRanges = 64;
  static constexpr std::size_t kSketch = 8;

  struct HotKey {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
  };

  std::uint64_t key_range = 1;
  std::vector<std::uint64_t> range_ops;            // cumulative, global
  std::vector<std::array<HotKey, kSketch>> sketch;  // per vault, cumulative

  SimLoad(std::uint64_t range, std::size_t vaults)
      : key_range(range), range_ops(kRanges, 0), sketch(vaults) {}

  std::size_t range_of(std::uint64_t key) const noexcept {
    if (key <= 1) return 0;
    const std::size_t idx =
        static_cast<std::size_t>((key - 1) * kRanges / key_range);
    return idx >= kRanges ? kRanges - 1 : idx;
  }
  std::uint64_t range_lo(std::size_t idx) const noexcept {
    return 1 + idx * key_range / kRanges;
  }
  std::uint64_t range_hi(std::size_t idx) const noexcept {
    return idx + 1 < kRanges ? (idx + 1) * key_range / kRanges : key_range;
  }

  void record(std::size_t vault, std::uint64_t key) {
    ++range_ops[range_of(key)];
    auto& entries = sketch[vault];
    std::size_t min_i = 0;
    for (std::size_t i = 0; i < kSketch; ++i) {
      if (entries[i].key == key || entries[i].count == 0) {
        entries[i].key = key;
        ++entries[i].count;
        return;
      }
      if (entries[i].count < entries[min_i].count) min_i = i;
    }
    // SpaceSaving eviction: the new key inherits the victim's count.
    entries[min_i].key = key;
    ++entries[min_i].count;
  }
};

}  // namespace

RebalanceResult run_pim_skiplist_rebalance(const RebalanceConfig& cfg) {
  Engine engine(cfg.params, cfg.seed);
  engine.set_perturbation(cfg.perturb);
  const std::size_t k = cfg.partitions;
  const double msg_ns = cfg.params.message();
  RebalanceResult result;

  Directory dir;
  SimLoad load(cfg.key_range, k);
  std::vector<std::unique_ptr<SimVault>> vaults;
  for (std::size_t v = 0; v < k; ++v) {
    dir.entries.push_back({1 + v * cfg.key_range / k, v});
    auto vault = std::make_unique<SimVault>();
    vault->id = v;
    // Global-minimum sentinel: migrations may hand any vault any range.
    vault->list = std::make_unique<core::SkipList>(0);
    vaults.push_back(std::move(vault));
  }
  for (std::size_t v = 0; v < k; ++v) {
    const std::uint64_t lo = dir.entries[v].first;
    const std::uint64_t hi =
        v + 1 < k ? dir.entries[v + 1].first : ~std::uint64_t{0};
    vaults[v]->owned.emplace(lo, hi);
  }
  const auto owns_locally = [](const SimVault& vault, std::uint64_t key) {
    auto it = vault.owned.upper_bound(key);
    if (it == vault.owned.begin()) return false;
    --it;
    return key < it->second;
  };
  {
    Xoshiro256 setup(cfg.seed ^ 0xfeedULL);
    std::size_t total = 0;
    while (total < cfg.initial_size) {
      const std::uint64_t key = setup.next_in(1, cfg.key_range);
      if (vaults[dir.route(key)]->list->insert_for_setup(setup, key)) {
        record_setup_add(cfg.recorder, key);
        ++total;
      }
    }
  }

  bool migration_busy = false;  // the Section 4.2.1 one-at-a-time guard
  std::int64_t net_adds = 0;    // successful adds minus successful removes

  auto& registry = obs::Registry::instance();
  obs::Counter& c_migrated = registry.counter("sim.rebalance.migrated_keys");
  obs::Counter& c_forwarded = registry.counter("sim.rebalance.forwarded");
  obs::Counter& c_deferred = registry.counter("sim.rebalance.deferred");
  obs::Counter& c_rejections = registry.counter("sim.rebalance.rejections");

  const auto execute_and_reply = [&](Context& ctx, SimVault& vault,
                                     const Msg& m) {
    ++vault.requests;
    load.record(vault.id, m.key);
    const bool r = vault.list->execute(m.op, m.key, ctx.rng(),
                                       hop_charge(ctx, MemClass::kPimLocal));
    if (r && m.op == SetOp::kAdd) ++net_adds;
    if (r && m.op == SetOp::kRemove) --net_adds;
    m.reply->set(ctx, Reply{true, r}, msg_ns);
  };

  // Returns true when it did migration work.
  const auto step_migration = [&](Context& ctx, std::size_t v) -> bool {
    SimVault& vault = *vaults[v];
    Migration& mig = vault.mig;
    for (std::size_t moved = 0; moved < cfg.migrate_chunk; ++moved) {
      const auto key = vault.list->first_at_least(mig.cursor);
      if (!key.has_value() || *key >= mig.hi) {
        // Drop [lo, hi) from this core's own view, then redirect the CPUs.
        auto it = std::prev(vault.owned.upper_bound(mig.lo));
        assert(it->first <= mig.lo && mig.hi <= it->second);
        const std::uint64_t old_hi = it->second;
        if (it->first == mig.lo) {
          vault.owned.erase(it);
        } else {
          it->second = mig.lo;
        }
        if (mig.hi < old_hi) vault.owned.emplace(mig.hi, old_hi);
        dir.move_range(mig.lo, mig.peer);  // redirect the CPUs first
        mig.active = false;
        ctx.trace_instant("mig_complete", {"source", v},
                          {"target", mig.peer});
        Msg end;
        end.kind = Msg::Kind::kMigEnd;
        vaults[mig.peer]->inbox.send(ctx, end);
        return true;
      }
      vault.list->extract_first_at_least(
          mig.cursor, hop_charge(ctx, MemClass::kPimLocal));
      ++result.migrated_keys;
      c_migrated.add(1);
      Msg node;
      node.kind = Msg::Kind::kMigNode;
      node.key = *key;
      vaults[mig.peer]->inbox.send(ctx, node);
      mig.cursor = *key + 1;
    }
    return true;
  };

  const std::size_t total_cpus = cfg.num_cpus;
  for (std::size_t v = 0; v < k; ++v) {
    engine.spawn("pim-core" + std::to_string(v), [&, v](Context& ctx) {
      SimVault& vault = *vaults[v];
      std::size_t stopped = 0;
      // Two extra stops: the rebalancer actor and the window monitor.
      while (stopped < total_cpus + 2) {
        Msg m;
        if (vault.mig.active && vault.mig.outgoing) {
          // Keep the migration moving even while requests arrive.
          auto polled = vault.inbox.try_recv(ctx);
          if (!polled.has_value()) {
            step_migration(ctx, v);
            continue;
          }
          m = *polled;
        } else {
          m = vault.inbox.recv(ctx);
        }
        switch (m.kind) {
          case Msg::Kind::kOp: {
            const Migration& mig = vault.mig;
            // RebalanceFault::kDirectoryBeforeGrant: the execute/reject gate
            // consults the SHARED directory instead of the vault-local owned
            // view. Combined with the early directory publish below (the
            // runtime's per-sender lanes let a direct request overtake the
            // source's kMigBegin/kMigNode/kMigEnd stream; the early publish
            // recreates that overtake under this sim's in-order delivery),
            // the target answers direct requests from a list missing the
            // in-flight nodes — the historical runtime bug the
            // linearizability oracle caught under TSan. MUST be flagged by
            // the checker.
            if (cfg.fault == RebalanceFault::kDirectoryBeforeGrant &&
                dir.route(m.key) == v) {
              execute_and_reply(ctx, vault, m);
              break;
            }
            if (mig.active && m.key >= mig.lo && m.key < mig.hi) {
              if (mig.outgoing) {
                // RebalanceFault::kStaleServe: the buggy source never
                // consults the cursor and answers every key from its own
                // (partially drained) list.
                if (m.key >= mig.cursor ||
                    cfg.fault == RebalanceFault::kStaleServe) {
                  execute_and_reply(ctx, vault, m);
                } else {
                  Msg fwd = m;
                  fwd.kind = Msg::Kind::kFwdOp;
                  vaults[mig.peer]->inbox.send(ctx, fwd);
                  ++result.forwarded;
                  c_forwarded.add(1);
                  ctx.trace_instant("mig_forward", {"key", m.key});
                }
              } else if (cfg.fault == RebalanceFault::kNoDefer) {
                // Injected bug, part 2: answer directly-routed requests from
                // the still-incomplete local copy instead of parking them.
                execute_and_reply(ctx, vault, m);
              } else {
                vault.deferred.push_back(m);
                ++result.deferred;
                c_deferred.add(1);
              }
              break;
            }
            if (!owns_locally(vault, m.key)) {
              // Reject by the LOCAL view, not dir.route(): the directory
              // can already point here while the granting kMigBegin/
              // kMigNode/kMigEnd stream is still queued behind this
              // request (the race the linearizability oracle caught in
              // the runtime twin under TSan).
              m.reply->set(ctx, Reply{false, false}, msg_ns);
              ++result.rejections;
              c_rejections.add(1);
              break;
            }
            execute_and_reply(ctx, vault, m);
            break;
          }
          case Msg::Kind::kFwdOp:
            execute_and_reply(ctx, vault, m);
            break;
          case Msg::Kind::kMigStart: {
            if (vault.mig.active || dir.route(m.key) != v) {
              m.reply->set(ctx, Reply{false, false}, msg_ns);
              break;
            }
            vault.mig = Migration{true, true, m.key, m.hi, m.peer, m.key};
            ctx.trace_instant("mig_start", {"lo", m.key}, {"hi", m.hi});
            if (cfg.fault == RebalanceFault::kNoDefer) {
              // Injected bug, part 1: publish the new owner at migration
              // START (the notify-first reading of Section 4.2.1) instead of
              // at completion. CPUs now route directly to the target while
              // the node stream is still in flight — exactly the window the
              // defer-until-kMigEnd rule closes. With the correct directory
              // update (at completion, just before kMigEnd) the FIFO mailbox
              // guarantees no direct request can overtake the final node,
              // which would leave part 2 below unreachable.
              dir.move_range(m.key, m.peer);
            }
            if (cfg.fault == RebalanceFault::kDirectoryBeforeGrant) {
              // The directory says the target owns the range while the
              // granting node stream is still in flight; the broken gate
              // above turns that stale answer into wrong executions.
              dir.move_range(m.key, m.peer);
            }
            Msg begin;
            begin.kind = Msg::Kind::kMigBegin;
            begin.key = m.key;
            begin.hi = m.hi;
            begin.peer = v;
            vaults[m.peer]->inbox.send(ctx, begin);
            m.reply->set(ctx, Reply{true, true}, msg_ns);
            break;
          }
          case Msg::Kind::kMigBegin:
            assert(!vault.mig.active);
            vault.mig = Migration{true, false, m.key, m.hi, m.peer, m.key};
            vault.incoming_cursor = core::SkipList::InsertCursor{};
            ctx.trace_instant("mig_begin", {"lo", m.key}, {"hi", m.hi});
            break;
          case Msg::Kind::kMigNode:
            vault.list->insert_ascending(
                vault.incoming_cursor, m.key, ctx.rng(),
                hop_charge(ctx, MemClass::kPimLocal));
            break;
          case Msg::Kind::kMigEnd: {
            assert(vault.mig.active && !vault.mig.outgoing);
            vault.owned.emplace(vault.mig.lo, vault.mig.hi);  // grant
            vault.mig.active = false;
            std::deque<Msg> pending;
            pending.swap(vault.deferred);
            for (const Msg& req : pending) execute_and_reply(ctx, vault, req);
            migration_busy = false;
            break;
          }
          case Msg::Kind::kStop:
            ++stopped;
            break;
        }
        if (vault.mig.active && vault.mig.outgoing) step_migration(ctx, v);
      }
    });
  }

  // CPU clients with a Zipf-skewed key stream (rank 0 -> key 1: vault 0 is
  // the hot spot).
  const Time third = cfg.duration_ns / 3;
  std::uint64_t before_ops = 0;
  std::uint64_t after_ops = 0;
  for (std::size_t i = 0; i < cfg.num_cpus; ++i) {
    engine.spawn("cpu" + std::to_string(i), [&, i](Context& ctx) {
      check::ThreadLog* log =
          cfg.recorder != nullptr ? &cfg.recorder->log(i) : nullptr;
      ZipfGenerator zipf(cfg.key_range, cfg.zipf_theta);
      SimSlot<Reply> reply;
      while (ctx.now() < cfg.duration_ns) {
        const std::uint64_t key = zipf.next(ctx.rng()) + 1;
        const SetOp op = pick_op(ctx.rng(), cfg.mix);
        if (log != nullptr) log->begin(check_op(op), key, ctx.now());
        Reply r;
        for (;;) {
          Msg m;
          m.kind = Msg::Kind::kOp;
          m.op = op;
          m.key = key;
          m.reply = &reply;
          vaults[dir.route(key)]->inbox.send(ctx, m);
          r = reply.await(ctx);
          if (r.accepted) break;
        }
        if (log != nullptr) {
          log->end(r.result ? check::kRetTrue : check::kRetFalse, ctx.now());
        }
        if (ctx.now() < third) {
          ++before_ops;
        } else if (ctx.now() >= 2 * third) {
          ++after_ops;
        }
      }
      for (std::size_t v = 0; v < k; ++v) {
        Msg stop;
        stop.kind = Msg::Kind::kStop;
        vaults[v]->inbox.send(ctx, stop);
      }
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
        const std::uint64_t d = vaults[v]->requests - last[v];
        last[v] = vaults[v]->requests;
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
    for (std::size_t v = 0; v < k; ++v) {
      Msg stop;
      stop.kind = Msg::Kind::kStop;
      vaults[v]->inbox.send(ctx, stop);
    }
  });

  // The active policy: the sim twin of core/auto_rebalancer::tick_active.
  // Windowed per-vault deltas -> hysteresis gates (enter threshold,
  // per-vault cooldown, noise floor, one migration at a time) -> split-key
  // preference (dominant top key's successor, else hottest-range midpoint,
  // else widest-partition midpoint) -> kMigStart to the hottest vault.
  const auto active_policy = [&](Context& ctx) {
    std::vector<std::uint64_t> last(k, 0);
    std::vector<std::size_t> cooldown(k, 0);
    std::vector<std::uint64_t> last_range(SimLoad::kRanges, 0);
    const bool thrash = cfg.fault == RebalanceFault::kThrash;
    SimSlot<Reply> reply;
    // Partition lower bound of `key` in the CPU-visible directory.
    const auto partition_lo = [&](std::uint64_t key) {
      auto it = std::upper_bound(
          dir.entries.begin(), dir.entries.end(), key,
          [](std::uint64_t kk, const auto& e) { return kk < e.first; });
      return (it - 1)->first;
    };
    while (ctx.now() < cfg.duration_ns) {
      ctx.advance(static_cast<double>(cfg.policy_period_ns));
      ctx.sync();
      std::uint64_t total = 0;
      std::uint64_t peak = 0;
      std::size_t hot = 0;
      std::size_t cold = 0;
      std::uint64_t cold_ops = ~std::uint64_t{0};
      for (std::size_t v = 0; v < k; ++v) {
        const std::uint64_t d = vaults[v]->requests - last[v];
        last[v] = vaults[v]->requests;
        total += d;
        if (d > peak) {
          peak = d;
          hot = v;
        }
        if (d < cold_ops) {
          cold_ops = d;
          cold = v;
        }
      }
      std::vector<std::uint64_t> rdelta(SimLoad::kRanges);
      for (std::size_t i = 0; i < SimLoad::kRanges; ++i) {
        rdelta[i] = load.range_ops[i] - last_range[i];
        last_range[i] = load.range_ops[i];
      }
      for (auto& c : cooldown) {
        if (c > 0) --c;
      }
      if (total < cfg.min_window_ops) continue;  // noise floor
      const double imbalance = static_cast<double>(peak) *
                               static_cast<double>(k) /
                               static_cast<double>(total);
      if (hot == cold) continue;
      if (!thrash && imbalance < cfg.imbalance_enter) continue;
      if (!thrash && cooldown[hot] > 0) continue;
      if (migration_busy) continue;  // one migration at a time
      if (result.migrations >= cfg.max_migrations) continue;
      // --- split-key selection (mirrors AutoRebalancer::suggest_split) ---
      std::uint64_t split = 0;
      const auto& entries = load.sketch[hot];
      std::uint64_t mass = 0;
      std::size_t top = 0;
      for (std::size_t i = 0; i < SimLoad::kSketch; ++i) {
        mass += entries[i].count;
        if (entries[i].count > entries[top].count) top = i;
      }
      if (mass > 0 && entries[top].count * 2 >= mass &&
          dir.route(entries[top].key) == hot) {
        // One key dominates the sketch: isolate it by splitting at its
        // successor (kSplitOffByOne splits at the key itself, so the hot
        // key rides along with the migrated suffix — the mutation).
        const std::uint64_t cand =
            cfg.fault == RebalanceFault::kSplitOffByOne
                ? entries[top].key
                : entries[top].key + 1;
        const bool in_span = cand < dir.end_of(entries[top].key) &&
                             cand <= cfg.key_range;
        const bool strict_suffix =
            cfg.fault == RebalanceFault::kSplitOffByOne ||
            cand > partition_lo(entries[top].key);
        if (in_span && strict_suffix) split = cand;
      }
      if (split == 0) {
        // Hottest window range whose midpoint the hot vault owns.
        std::size_t best = SimLoad::kRanges;
        for (std::size_t i = 0; i < SimLoad::kRanges; ++i) {
          if (rdelta[i] == 0) continue;
          const std::uint64_t lo = load.range_lo(i);
          const std::uint64_t mid = lo + (load.range_hi(i) - lo) / 2;
          if (dir.route(mid) != hot || mid <= partition_lo(mid)) continue;
          if (best == SimLoad::kRanges || rdelta[i] > rdelta[best]) best = i;
        }
        if (best < SimLoad::kRanges) {
          const std::uint64_t lo = load.range_lo(best);
          split = lo + (load.range_hi(best) - lo) / 2;
        }
      }
      if (split == 0) {
        // Widest partition of the hot vault, split at its midpoint.
        std::uint64_t best_lo = 0;
        std::uint64_t best_hi = 0;
        for (std::size_t i = 0; i < dir.entries.size(); ++i) {
          if (dir.entries[i].second != hot) continue;
          const std::uint64_t lo = dir.entries[i].first;
          const std::uint64_t hi = i + 1 < dir.entries.size()
                                       ? dir.entries[i + 1].first
                                       : cfg.key_range + 1;
          if (hi - lo > best_hi - best_lo) {
            best_lo = lo;
            best_hi = hi;
          }
        }
        if (best_hi - best_lo >= 2) {
          split = best_lo + (best_hi - best_lo) / 2;
        }
      }
      if (split == 0) continue;  // nothing splittable this window
      const std::size_t source = dir.route(split);
      if (source != hot || source == cold) continue;
      migration_busy = true;
      Msg m;
      m.kind = Msg::Kind::kMigStart;
      m.key = split;
      m.hi = dir.end_of(split);
      m.peer = cold;
      m.reply = &reply;
      vaults[source]->inbox.send(ctx, m);
      if (!reply.await(ctx).accepted) {
        migration_busy = false;
        continue;
      }
      ++result.migrations;
      if (ctx.now() >= 2 * third) ++result.migrations_late;
      if (!thrash) cooldown[hot] = cfg.cooldown_periods;
    }
    // Drain an in-flight migration before stopping the vaults: the stops
    // below would otherwise overtake the tail of the kMigNode stream in
    // the target's FIFO inbox, and the extracted-but-not-yet-inserted keys
    // would be lost with the run's teardown (the guard is cleared by the
    // target when it processes kMigEnd, so waiting on it is exact).
    while (migration_busy) {
      ctx.advance(50'000);
      ctx.sync();
    }
  };

  // The rebalancer: at t = duration/3, split the workload's quartiles off
  // the hot range, one migration at a time (the Section 4.2.1 guard).
  engine.spawn("rebalancer", [&](Context& ctx) {
    if (cfg.rebalance && k > 1 &&
        cfg.policy == RebalancePolicy::kActiveLoadMap) {
      active_policy(ctx);
    } else if (cfg.rebalance && k > 1) {
      ctx.advance(static_cast<double>(third));
      // Quantile estimate of the Zipf mass (operator-side knowledge).
      Xoshiro256 rng(cfg.seed ^ 0x9a17ULL);
      ZipfGenerator zipf(cfg.key_range, cfg.zipf_theta);
      std::vector<std::uint64_t> sample(20000);
      for (auto& s : sample) s = zipf.next(rng) + 1;
      std::sort(sample.begin(), sample.end());
      std::vector<std::uint64_t> splits;
      for (std::size_t q = 1; q < k; ++q) {
        std::uint64_t split = sample[q * sample.size() / k];
        const std::uint64_t prev = splits.empty() ? 1 : splits.back();
        if (split <= prev) split = prev + 1;
        splits.push_back(split);
      }
      SimSlot<Reply> reply;
      // Descending split order: each range leaves the hot vault directly
      // instead of cascading through every intermediate target.
      for (std::size_t qi = splits.size(); qi-- > 0;) {
        const std::size_t q = qi;
        const std::size_t target = q + 1;
        for (;;) {
          if (migration_busy) {
            ctx.advance(50'000);
            ctx.sync();
            continue;
          }
          ctx.sync();
          const std::size_t source = dir.route(splits[q]);
          if (source == target) break;
          migration_busy = true;
          Msg m;
          m.kind = Msg::Kind::kMigStart;
          m.key = splits[q];
          m.hi = dir.end_of(splits[q]);
          m.peer = target;
          m.reply = &reply;
          vaults[source]->inbox.send(ctx, m);
          if (reply.await(ctx).accepted) {
            ++result.migrations;
            if (ctx.now() >= 2 * third) ++result.migrations_late;
            break;
          }
          migration_busy = false;
          ctx.advance(50'000);
        }
        // Wait for completion (kMigEnd clears the guard).
        while (migration_busy) {
          ctx.advance(50'000);
          ctx.sync();
        }
      }
    }
    // Counts as one "stop" so the cores can wind down.
    for (std::size_t v = 0; v < k; ++v) {
      Msg stop;
      stop.kind = Msg::Kind::kStop;
      vaults[v]->inbox.send(ctx, stop);
    }
  });

  engine.run();

  result.before = {before_ops, third};
  result.after = {after_ops, third};
  for (const auto& vault : vaults) {
    result.final_requests_per_vault.push_back(vault->requests);
  }
  std::int64_t final_size = 0;
  for (const auto& vault : vaults) {
    final_size += static_cast<std::int64_t>(vault->list->size());
  }
  result.size_consistent =
      final_size == static_cast<std::int64_t>(cfg.initial_size) + net_adds;
  return result;
}

}  // namespace pimds::sim
