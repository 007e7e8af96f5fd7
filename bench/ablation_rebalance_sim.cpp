// Ablation A5b (DESIGN.md): Section 4.2.1 rebalancing at full scale, in the
// deterministic simulator (the real-thread twin is ablation_rebalance).
//
// 16 simulated CPUs drive a Zipf workload at the PIM skip-list; at t = T/3
// an online rebalancer splits the workload's quartile ranges off the hot
// vault with the paper's non-blocking migration protocol. Throughput is
// measured before ([0, T/3)) and after ([2T/3, T)) the migrations.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "sim/ds/skiplists.hpp"

int main(int argc, char** argv) {
  using namespace pimds;
  using namespace pimds::bench;

  JsonReporter json(argc, argv, "ablation_rebalance_sim");
  banner("Ablation A5b: skip-list rebalancing under Zipf skew (simulator)");
  Table table({"theta", "k", "before", "after", "gain", "migrated",
               "rej/fwd/def", "consistent"},
              13);
  table.print_header();
  for (double theta : {0.6, 0.9, 0.99}) {
    for (std::size_t k : {4, 8}) {
      sim::RebalanceConfig cfg;
      cfg.zipf_theta = theta;
      cfg.partitions = k;
      cfg.num_cpus = 4 * k;
      const auto r = sim::run_pim_skiplist_rebalance(cfg);
      char th[16];
      std::snprintf(th, sizeof(th), "%.2f", theta);
      char flow[32];
      std::snprintf(flow, sizeof(flow), "%lu/%lu/%lu",
                    static_cast<unsigned long>(r.rejections),
                    static_cast<unsigned long>(r.forwarded),
                    static_cast<unsigned long>(r.deferred));
      table.print_row({th, std::to_string(k), mops(r.before.ops_per_sec()),
                       mops(r.after.ops_per_sec()),
                       ratio(r.after.ops_per_sec(), r.before.ops_per_sec()),
                       std::to_string(r.migrated_keys), flow,
                       r.size_consistent ? "yes" : "NO"});
      const JsonReporter::Params params{{"theta", th},
                                        {"partitions", std::to_string(k)}};
      json.record(std::string("before_theta") + th + "_k" + std::to_string(k),
                  params, r.before.ops_per_sec());
      json.record(std::string("after_theta") + th + "_k" + std::to_string(k),
                  params, r.after.ops_per_sec());
    }
  }

  // Gated scenario (perf_gate.py: notes_min): ACTIVE LoadMap policy vs two
  // controls on one deterministic seed. The acceptance bar is the issue's:
  // under theta = 0.99 the active policy must cut the windowed peak vault
  // imbalance of the run's final third by >= 2x against observe-only
  // (no intervention), while keeping throughput within 5% of the
  // uniform-key baseline. Doc-level notes carry both numbers to the gate.
  {
    std::printf("\ngated: active LoadMap policy, theta=0.99 k=4 seed=1\n");
    const sim::Time duration = 90'000'000;
    const auto gated_base = [&] {
      sim::RebalanceConfig cfg;
      cfg.seed = 1;
      cfg.num_cpus = 16;
      cfg.partitions = 4;
      cfg.key_range = 1 << 16;
      cfg.initial_size = 1 << 15;
      cfg.zipf_theta = 0.99;
      cfg.duration_ns = duration;
      cfg.policy_period_ns = 1'000'000;
      return cfg;
    };
    sim::RebalanceConfig observe = gated_base();
    observe.policy = sim::RebalancePolicy::kNone;  // skew, no intervention
    const auto r_obs = sim::run_pim_skiplist_rebalance(observe);
    sim::RebalanceConfig uniform = gated_base();
    uniform.policy = sim::RebalancePolicy::kNone;
    uniform.zipf_theta = 0.0;  // no skew: the throughput yardstick
    const auto r_uni = sim::run_pim_skiplist_rebalance(uniform);
    sim::RebalanceConfig active = gated_base();
    active.policy = sim::RebalancePolicy::kActiveLoadMap;
    active.imbalance_enter = 1.2;
    active.cooldown_periods = 1;
    const auto r_act = sim::run_pim_skiplist_rebalance(active);

    // Peak windowed imbalance over the final third (layout has settled).
    const double peak_obs =
        r_obs.peak_imbalance(2 * duration / 3, duration, 200);
    const double peak_act =
        r_act.peak_imbalance(2 * duration / 3, duration, 200);
    const double cut = peak_act > 0.0 ? peak_obs / peak_act : 0.0;
    const double tput_ratio =
        r_uni.after.total_ops > 0
            ? static_cast<double>(r_act.after.total_ops) /
                  static_cast<double>(r_uni.after.total_ops)
            : 0.0;
    std::printf(
        "  peak imbalance (final third): observe-only %.2f, active %.2f "
        "-> cut %.2fx\n"
        "  throughput (final third): active/uniform = %.3f, "
        "%llu migrations (%llu late), consistent=%s\n",
        peak_obs, peak_act, cut, tput_ratio,
        static_cast<unsigned long long>(r_act.migrations),
        static_cast<unsigned long long>(r_act.migrations_late),
        r_act.size_consistent ? "yes" : "NO");
    const JsonReporter::Params gp{{"theta", "0.99"}, {"partitions", "4"}};
    json.record("gated_observe_theta0.99_k4", gp, r_obs.after.ops_per_sec());
    json.record("gated_uniform_theta0.00_k4",
                {{"theta", "0.00"}, {"partitions", "4"}},
                r_uni.after.ops_per_sec());
    json.record("gated_active_theta0.99_k4", gp, r_act.after.ops_per_sec());
    json.note("imbalance_cut", cut);
    json.note("active_vs_uniform_tput", tput_ratio);
    json.note("active_migrations", static_cast<double>(r_act.migrations));
    json.note("active_migrations_late",
              static_cast<double>(r_act.migrations_late));
    json.note("active_size_consistent",
              r_act.size_consistent ? 1.0 : 0.0);
  }

  // Control: the same skewed runs without rebalancing.
  std::printf("\ncontrols (no rebalancing):\n");
  for (double theta : {0.6, 0.9, 0.99}) {
    sim::RebalanceConfig cfg;
    cfg.zipf_theta = theta;
    cfg.policy = sim::RebalancePolicy::kNone;
    const auto r = sim::run_pim_skiplist_rebalance(cfg);
    std::printf("  theta=%.2f k=4: before %s after %s Mops/s (flat)\n",
                theta, mops(r.before.ops_per_sec()).c_str(),
                mops(r.after.ops_per_sec()).c_str());
  }

  std::printf(
      "\nReading: static partitions pin the Zipf head on one vault; live\n"
      "quartile migrations (source keeps serving, forwarding and deferring\n"
      "exactly per Section 4.2.1) recover multi-vault parallelism. The\n"
      "'consistent' column checks no key was lost or duplicated.\n");
  return 0;
}
