// Ablation A5b (DESIGN.md): Section 4.2.1 rebalancing at full scale, in the
// deterministic simulator (the real-thread twin is ablation_rebalance).
//
// 16 simulated CPUs drive a Zipf workload at the PIM skip-list; at t = T/3
// an online rebalancer splits the workload's quartile ranges off the hot
// vault with the paper's non-blocking migration protocol. Throughput is
// measured before ([0, T/3)) and after ([2T/3, T)) the migrations.
#include <algorithm>
#include <cstdio>
#include <vector>

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
  // controls. The acceptance bar: under theta = 0.99 the active policy
  // must cut the windowed peak vault imbalance of the run's final third by
  // >= 2x against observe-only (no intervention), while keeping throughput
  // within 5% of the uniform-key baseline. One seed is one draw from a
  // wide distribution (the active run's final-third throughput spans
  // 284K-854K ops/s over seeds 1-20), so every record and note is the
  // median over seeds 1-5, and the runs stay deterministic.
  {
    std::printf("\ngated: active LoadMap policy, theta=0.99 k=4, "
                "median of seeds 1-5\n");
    const sim::Time duration = 90'000'000;
    const auto gated_base = [&](std::uint64_t seed) {
      sim::RebalanceConfig cfg;
      cfg.seed = seed;
      cfg.num_cpus = 16;
      cfg.partitions = 4;
      cfg.key_range = 1 << 16;
      cfg.initial_size = 1 << 15;
      cfg.zipf_theta = 0.99;
      cfg.duration_ns = duration;
      cfg.policy_period_ns = 1'000'000;
      return cfg;
    };
    std::vector<double> obs_tput, uni_tput, act_tput, peak_obs, peak_act,
        migrations, late;
    bool consistent = true;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      sim::RebalanceConfig observe = gated_base(seed);
      observe.policy = sim::RebalancePolicy::kNone;  // skew, no intervention
      const auto r_obs = sim::run_pim_skiplist_rebalance(observe);
      sim::RebalanceConfig uniform = gated_base(seed);
      uniform.policy = sim::RebalancePolicy::kNone;
      uniform.zipf_theta = 0.0;  // no skew: the throughput yardstick
      const auto r_uni = sim::run_pim_skiplist_rebalance(uniform);
      sim::RebalanceConfig active = gated_base(seed);
      active.policy = sim::RebalancePolicy::kActiveLoadMap;
      active.trigger.imbalance_enter = 1.2;
      active.trigger.cooldown_periods = 1;
      const auto r_act = sim::run_pim_skiplist_rebalance(active);
      // Peak windowed imbalance over the final third (layout has settled).
      peak_obs.push_back(r_obs.peak_imbalance(2 * duration / 3, duration, 200));
      peak_act.push_back(r_act.peak_imbalance(2 * duration / 3, duration, 200));
      obs_tput.push_back(r_obs.after.ops_per_sec());
      uni_tput.push_back(r_uni.after.ops_per_sec());
      act_tput.push_back(r_act.after.ops_per_sec());
      migrations.push_back(static_cast<double>(r_act.migrations));
      late.push_back(static_cast<double>(r_act.migrations_late));
      consistent = consistent && r_act.size_consistent;
      std::printf(
          "  seed %llu: peak imbalance observe-only %.2f, active %.2f; "
          "final third observe %s, uniform %s, active %s Mops/s; "
          "%llu migrations (%llu late)\n",
          static_cast<unsigned long long>(seed), peak_obs.back(),
          peak_act.back(), mops(obs_tput.back()).c_str(),
          mops(uni_tput.back()).c_str(), mops(act_tput.back()).c_str(),
          static_cast<unsigned long long>(r_act.migrations),
          static_cast<unsigned long long>(r_act.migrations_late));
    }
    const auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const double med_peak_act = median(peak_act);
    const double cut =
        med_peak_act > 0.0 ? median(peak_obs) / med_peak_act : 0.0;
    const double med_uni = median(uni_tput);
    const double tput_ratio = med_uni > 0.0 ? median(act_tput) / med_uni : 0.0;
    std::printf(
        "  medians: imbalance cut %.2fx, active/uniform throughput %.3f, "
        "consistent=%s\n",
        cut, tput_ratio, consistent ? "yes" : "NO");
    const JsonReporter::Params gp{{"theta", "0.99"}, {"partitions", "4"}};
    json.record("gated_observe_theta0.99_k4", gp, median(obs_tput));
    json.record("gated_uniform_theta0.00_k4",
                {{"theta", "0.00"}, {"partitions", "4"}}, med_uni);
    json.record("gated_active_theta0.99_k4", gp, median(act_tput));
    json.note("imbalance_cut", cut);
    json.note("active_vs_uniform_tput", tput_ratio);
    json.note("active_migrations", median(migrations));
    json.note("active_migrations_late", median(late));
    json.note("active_size_consistent", consistent ? 1.0 : 0.0);
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
