// Ablation A5 (DESIGN.md): skip-list rebalancing under skew
// (Section 4.2.1), on the REAL-thread PIM emulation.
//
// A Zipf-distributed workload concentrates requests on the lowest key
// range, overloading one vault. We run the partitioned PIM skip-list with
// static partitions, observe the imbalance, then split the hot partition
// with the non-blocking migration protocol — while the workload keeps
// running — and measure throughput before and after.
// `--active` swaps the manual operator split for the closed loop: the
// AutoRebalancer's ACTIVE mode watches the LoadMap and drives the same
// migration protocol itself. Run with --telemetry and check the stream
// with scripts/telemetry_report.py --assert-rebalance-settles: the windows
// must go hot -> migrated -> settled.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "common/zipf.hpp"
#include "core/auto_rebalancer.hpp"
#include "core/pim_skiplist.hpp"

int main(int argc, char** argv) {
  using namespace pimds;
  using namespace pimds::bench;

  JsonReporter json(argc, argv, "ablation_rebalance");
  bool active = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--active") == 0) active = true;
  }
  banner(active ? "Ablation A5: PIM skip-list ACTIVE auto-rebalancing "
                  "under Zipf skew (real threads)"
                : "Ablation A5: PIM skip-list rebalancing under Zipf skew "
                  "(real threads)");
  constexpr std::uint64_t kKeyMax = 1 << 16;
  constexpr std::size_t kVaults = 4;
  constexpr int kCpuThreads = 2;  // the host has 2 cores

  runtime::PimSystem::Config config;
  config.num_vaults = kVaults;
  runtime::PimSystem system(config);
  core::PimSkipList::Options options;
  options.key_max = kKeyMax;
  core::PimSkipList list(system, options);
  system.start();

  // Preload half the key space.
  {
    Xoshiro256 rng(1);
    for (int i = 0; i < 20000; ++i) list.add(rng.next_in(1, kKeyMax));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> cpus;
  for (int t = 0; t < kCpuThreads; ++t) {
    cpus.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      ZipfGenerator zipf(kKeyMax, 0.99);  // rank 0 = key 1: vault 0 is hot
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t key = zipf.next(rng) + 1;
        switch (rng.next_below(3)) {
          case 0: list.add(key); break;
          case 1: list.remove(key); break;
          default: list.contains(key);
        }
        ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto measure = [&](const char* phase, double seconds) {
    const std::uint64_t before = ops.load();
    const auto stats_before = list.vault_stats();
    const std::uint64_t t0 = now_ns();
    spin_for_ns(static_cast<std::uint64_t>(seconds * 1e9));
    const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
    const double tput = static_cast<double>(ops.load() - before) / elapsed;
    std::printf("%-28s %8.0f ops/s", phase, tput);
    const auto stats_after = list.vault_stats();
    std::uint64_t total = 0;
    std::uint64_t peak = 0;
    std::printf("   load share/vault:");
    for (std::size_t v = 0; v < stats_after.size(); ++v) {
      const std::uint64_t d =
          stats_after[v].requests - stats_before[v].requests;
      total += d;
      peak = std::max(peak, d);
    }
    for (std::size_t v = 0; v < stats_after.size(); ++v) {
      const std::uint64_t d =
          stats_after[v].requests - stats_before[v].requests;
      std::printf(" %.0f%%",
                  100.0 * static_cast<double>(d) /
                      static_cast<double>(total == 0 ? 1 : total));
    }
    std::printf("  (peak %.0f%%)\n",
                100.0 * static_cast<double>(peak) /
                    static_cast<double>(total == 0 ? 1 : total));
    return tput;
  };

  double before = 0.0;
  double after = 0.0;
  if (active) {
    // Closed loop: measure the hot phase with NO intervention (the
    // telemetry stream needs the hot windows on record), then hand the
    // list to the active policy and measure again once it has settled.
    before = measure("static partitions (skewed)", 1.0);
    core::AutoRebalancer::Options act_opts;
    act_opts.period = std::chrono::milliseconds(100);
    act_opts.trigger.imbalance_enter = 1.5;
    act_opts.imbalance_exit = 1.3;
    act_opts.trigger.cooldown_periods = 1;
    act_opts.trigger.min_window_ops = 200;
    core::AutoRebalancer rebalancer(list, act_opts);
    rebalancer.start();
    spin_for_ns(1'500'000'000);  // a dozen policy windows to act
    after = measure("active rebalancer (settled)", 1.0);
    rebalancer.stop();
    while (list.migration_active()) std::this_thread::yield();
    std::printf("active rebalancer: %zu migrations; partitions now:\n",
                rebalancer.migrations_triggered());
    for (const auto& e : list.partitions()) {
      std::printf("  [%lu, ...) -> vault %zu\n",
                  static_cast<unsigned long>(e.sentinel), e.vault);
    }
    json.note("active_migrations",
              static_cast<double>(rebalancer.migrations_triggered()));
    json.note("combined_batches",
              static_cast<double>(list.combined_batches()));
    json.note("combined_ops", static_cast<double>(list.combined_ops()));
  } else {
  // Observe-only rebalancer during the skewed phase: it consumes the
  // skip-list LoadMap's HotVaultReport and logs would-trigger decisions
  // (no migration — the manual quartile split below stays the ablation's
  // controlled variable). Its would_trigger count is the telemetry-plane
  // acceptance signal: under theta = 0.99 the hot vault must exceed the
  // imbalance threshold.
  core::AutoRebalancer::Options obs_opts;
  obs_opts.observe_only = true;
  obs_opts.period = std::chrono::milliseconds(100);
  core::AutoRebalancer observer(list, obs_opts);
  observer.start();

  before = measure("static partitions (skewed)", 1.0);

  observer.stop();
  const auto hot_report = observer.last_report();
  std::printf("observe-only rebalancer: %zu would-trigger decisions; "
              "last report: %s\n",
              observer.would_trigger_count(), hot_report.summary().c_str());
  json.note("would_trigger", static_cast<double>(observer.would_trigger_count()));
  json.note("observed_imbalance_ratio", hot_report.imbalance_ratio);

  // Pick split keys at the workload's empirical quartiles — the policy an
  // operator (or an automatic rebalancer watching vault_stats()) would use
  // — and peel them off the hot partition live.
  std::vector<std::uint64_t> splits;
  {
    Xoshiro256 rng(7);
    ZipfGenerator zipf(kKeyMax, 0.99);
    std::vector<std::uint64_t> sample(100000);
    for (auto& s : sample) s = zipf.next(rng) + 1;
    std::sort(sample.begin(), sample.end());
    for (std::size_t q = 1; q < kVaults; ++q) {
      std::uint64_t split = sample[q * sample.size() / kVaults];
      const std::uint64_t prev = splits.empty() ? 1 : splits.back();
      if (split <= prev) split = prev + 1;
      splits.push_back(split);
    }
  }
  for (std::size_t v = 1; v < kVaults; ++v) {
    while (!list.migrate(splits[v - 1], v)) std::this_thread::yield();
    while (list.migration_active()) std::this_thread::yield();
  }
  std::printf("migrated quartile ranges (splits at %lu, %lu, %lu); "
              "partitions now:\n",
              static_cast<unsigned long>(splits[0]),
              static_cast<unsigned long>(splits[1]),
              static_cast<unsigned long>(splits[2]));
  for (const auto& e : list.partitions()) {
    std::printf("  [%lu, ...) -> vault %zu\n",
                static_cast<unsigned long>(e.sentinel), e.vault);
  }

  after = measure("after rebalancing", 1.0);
  }

  stop.store(true);
  for (auto& t : cpus) t.join();
  system.stop();

  json.record("static_skewed", {{"vaults", std::to_string(kVaults)}}, before);
  json.record("after_rebalance", {{"vaults", std::to_string(kVaults)}}, after);
  json.note("rebalance_gain", after / before);
  std::printf("\nthroughput change: %.2fx (host has %d worker threads; on a "
              "many-core host the spread grows with the number of vaults)\n",
              after / before, kCpuThreads);
  return 0;
}
