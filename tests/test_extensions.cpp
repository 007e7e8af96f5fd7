// Tests for the extension features beyond the paper's core: the
// auto-rebalancing policy, runtime fat-node combining (queue enqueues and
// skip-list ops), the simulated Michael-Scott queue, and the VaultIndex
// migration helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "core/auto_rebalancer.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/pim_skiplist.hpp"
#include "core/vault_index.hpp"
#include "obs/metrics.hpp"
#include "runtime/fat_arena.hpp"
#include "sim/ds/queues.hpp"

namespace pimds {
namespace {

/// The widest domain an index takes: every key below 2^32 shares window 0.
constexpr std::uint64_t kWidestKeyMax = core::VaultIndex::kMaxKeySpan - 1;

TEST(VaultIndexMigrationHelpers, ExtractDrainsInAscendingOrder) {
  runtime::Vault vault(0, 4u << 20);
  core::VaultIndex list(vault, 0, kWidestKeyMax);
  Xoshiro256 rng(1);
  std::set<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t k = rng.next_in(1, 5000);
    if (list.add(k)) keys.insert(k);
  }
  // Extract [100, 2000) and check order + completeness.
  std::uint64_t cursor = 100;
  std::vector<std::uint64_t> extracted;
  for (;;) {
    const auto k = list.extract_first_at_least(cursor);
    if (!k.has_value() || *k >= 2000) break;
    extracted.push_back(*k);
    cursor = *k + 1;
  }
  std::vector<std::uint64_t> expected;
  for (const auto k : keys) {
    if (k >= 100 && k < 2000) expected.push_back(k);
  }
  EXPECT_EQ(extracted, expected);
  for (const auto k : expected) EXPECT_FALSE(list.contains(k));
}

TEST(VaultIndexMigrationHelpers, AscendingInsertMatchesRegularAdd) {
  runtime::Vault vault(0, 4u << 20);
  core::VaultIndex via_cursor(vault, 0, kWidestKeyMax);
  runtime::Vault vault2(1, 4u << 20);
  core::VaultIndex regular(vault2, 0, kWidestKeyMax);
  core::VaultIndex::InsertCursor cursor;
  Xoshiro256 rng(2);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(rng.next_in(1, 1000));
  std::sort(keys.begin(), keys.end());
  for (const auto k : keys) {
    ASSERT_EQ(via_cursor.insert_ascending(cursor, k), regular.add(k)) << k;
  }
  EXPECT_EQ(via_cursor.size(), regular.size());
  for (std::uint64_t k = 1; k <= 1000; ++k) {
    ASSERT_EQ(via_cursor.contains(k), regular.contains(k)) << k;
  }
}

TEST(VaultIndexMigrationHelpers, CursorSurvivesInterleavedMutations) {
  runtime::Vault vault(0, 4u << 20);
  core::VaultIndex list(vault, 0, kWidestKeyMax);
  core::VaultIndex::InsertCursor cursor;
  for (std::uint64_t k = 10; k <= 300; k += 10) {
    ASSERT_TRUE(list.insert_ascending(cursor, k));
    if (k % 50 == 0) {
      list.add(k + 1);       // invalidates the fingers
      list.remove(k - 10);
    }
  }
  EXPECT_TRUE(list.contains(300));
  EXPECT_TRUE(list.contains(51));
  EXPECT_FALSE(list.contains(40));
}

/// Zipf(0.99) reads pile onto vault 0: the default policy must split it.
void expect_zipf_hot_spot_spread() {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimSkipList::Options options;
  options.key_max = 1 << 16;
  core::PimSkipList list(system, options);
  core::AutoRebalancer::Options rb_options;
  rb_options.period = std::chrono::milliseconds(20);
  core::AutoRebalancer rebalancer(list, rb_options);
  system.start();
  std::size_t loaded = 0;
  {
    Xoshiro256 rng(3);
    for (int i = 0; i < 5000; ++i) {
      loaded += list.add(rng.next_in(1, 1 << 16));  // random draws collide
    }
  }
  rebalancer.start();

  std::atomic<bool> stop{false};
  std::thread worker([&] {
    Xoshiro256 rng(4);
    ZipfGenerator zipf(1 << 16, 0.99);
    while (!stop.load(std::memory_order_relaxed)) {
      list.contains(zipf.next(rng) + 1);
    }
  });
  // Give the policy a few periods to act — on a host with more runnable
  // threads than cores, as many more as it takes to see the split land.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((rebalancer.migrations_triggered() == 0 ||
          list.partitions().size() <= 4) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  worker.join();
  rebalancer.stop();
  system.stop();

  EXPECT_GT(rebalancer.migrations_triggered(), 0u)
      << "a theta=0.99 hot spot must trip a 2x imbalance trigger";
  EXPECT_GT(list.partitions().size(), 4u)
      << "splits should have created new sentinels";
  EXPECT_EQ(list.size(), loaded) << "rebalancing must not lose keys";
}

TEST(AutoRebalancer, SpreadsAZipfHotSpot) { expect_zipf_hot_spot_spread(); }

TEST(AutoRebalancer, SpreadsAZipfHotSpotWithMetricsOff) {
  // The LoadMap's range cells and sketch are the policy's input, not
  // telemetry: --no-obs must not blind the rebalancer.
  obs::set_metrics_enabled(false);
  expect_zipf_hot_spot_spread();
  obs::set_metrics_enabled(true);
}

TEST(AutoRebalancer, StaysQuietUnderUniformLoad) {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimSkipList::Options options;
  options.key_max = 1 << 16;
  core::PimSkipList list(system, options);
  core::AutoRebalancer::Options rb_options;
  rb_options.period = std::chrono::milliseconds(10);
  core::AutoRebalancer rebalancer(list, rb_options);
  system.start();
  rebalancer.start();
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    Xoshiro256 rng(5);
    while (!stop.load(std::memory_order_relaxed)) {
      list.contains(rng.next_in(1, 1 << 16));  // uniform: balanced
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  worker.join();
  rebalancer.stop();
  system.stop();
  EXPECT_EQ(rebalancer.migrations_triggered(), 0u)
      << "uniform load must not trigger migrations";
}

TEST(RuntimeFatNodes, SkipListOpsAllRideTheVaultCombiner) {
  // Every skip-list op travels in a fat kOpBatch through its vault's
  // RequestCombiner. Four threads on one vault's range: every op issued is
  // counted as combined, each applies exactly once, and a batch larger
  // than the message's inline payload forms, whose FatArena spill the
  // vault must release. Whether three requests meet one flush is up to the
  // scheduler, so the round repeats on a fresh list, each checked, until a
  // spill forms, up to a fixed cap.
  ASSERT_TRUE(obs::metrics_enabled()) << "spills are counted by the registry";
  const obs::Counter& spills =
      obs::Registry::instance().counter("runtime.fat_arena.acquires");
  constexpr int kMaxRounds = 50;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kOpsPerThread = 2000;
  bool spilled = false;
  for (int round = 0; round < kMaxRounds && !spilled; ++round) {
    const std::uint64_t spills_before = spills.value();
    const std::uint64_t outstanding_before =
        runtime::FatArena::instance().outstanding();
    runtime::PimSystem::Config config;
    config.num_vaults = 4;
    runtime::PimSystem system(config);
    core::PimSkipList::Options options;
    options.key_max = 1 << 16;
    core::PimSkipList list(system, options);
    system.start();
    const std::uint64_t hot_lo = list.partitions()[1].sentinel;
    constexpr std::uint64_t kHotKeys = 256;  // dense: adds and removes hit
    ASSERT_EQ(list.directory().route(hot_lo), 1u);
    ASSERT_EQ(list.directory().route(hot_lo + kHotKeys - 1), 1u);
    std::atomic<std::uint64_t> adds_ok{0};
    std::atomic<std::uint64_t> removes_ok{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        Xoshiro256 rng(40 + static_cast<std::uint64_t>(round * kThreads + t));
        for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
          const std::uint64_t key = hot_lo + rng.next_below(kHotKeys);
          switch (rng.next_below(3)) {
            case 0:
              adds_ok.fetch_add(list.add(key), std::memory_order_relaxed);
              break;
            case 1:
              removes_ok.fetch_add(list.remove(key),
                                   std::memory_order_relaxed);
              break;
            default:
              list.contains(key);
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    system.stop();

    EXPECT_EQ(list.combined_ops(), kThreads * kOpsPerThread)
        << "round " << round << ": every op must ride the combiner";
    EXPECT_EQ(list.size(), adds_ok.load() - removes_ok.load())
        << "round " << round << ": combined ops must apply exactly once";
    EXPECT_EQ(runtime::FatArena::instance().outstanding(), outstanding_before)
        << "round " << round << ": a spilled batch was not released";
    spilled = spills.value() > spills_before;
  }
  EXPECT_TRUE(spilled) << "4 threads on one vault never formed a batch of "
                       << runtime::kMessageInlineFat + 1;
}

TEST(RuntimeFatNodes, QueueStaysFifoWithEnqueueCombining) {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimFifoQueue::Options options;
  options.segment_threshold = 64;
  options.enqueue_combining = true;
  core::PimFifoQueue queue(system, options);
  system.start();
  constexpr std::uint64_t kPer = 20000;
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        queue.enqueue((static_cast<std::uint64_t>(p) << 32) | i);
      }
    });
  }
  std::vector<std::int64_t> last(2, -1);
  std::uint64_t consumed = 0;
  while (consumed < 2 * kPer) {
    const auto v = queue.dequeue();
    if (!v.has_value()) continue;
    const auto producer = static_cast<std::size_t>(*v >> 32);
    const auto seq = static_cast<std::int64_t>(*v & 0xffffffff);
    ASSERT_GT(seq, last[producer]) << "per-producer FIFO violated";
    last[producer] = seq;
    ++consumed;
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(queue.dequeue().has_value());
  EXPECT_GE(queue.max_enqueue_batch(), 1u);
  system.stop();
}

TEST(SimMsQueue, DegradesWithContentionWhileFaaHolds) {
  auto throughput_at = [](std::size_t p, auto runner) {
    sim::QueueConfig cfg;
    cfg.enqueuers = p / 2;
    cfg.dequeuers = p / 2;
    cfg.duration_ns = 10'000'000;
    return runner(cfg).ops_per_sec();
  };
  const double ms_small = throughput_at(4, sim::run_ms_queue);
  const double ms_large = throughput_at(32, sim::run_ms_queue);
  const double faa_small = throughput_at(4, sim::run_faa_queue);
  const double faa_large = throughput_at(32, sim::run_faa_queue);
  EXPECT_LT(ms_large, 0.8 * ms_small)
      << "CAS retries must hurt as threads grow";
  EXPECT_GT(faa_large, 0.95 * faa_small)
      << "the F&A queue holds its bound under contention";
  EXPECT_GT(faa_large, 2.0 * ms_large)
      << "at high contention F&A clearly beats CAS retry";
}

}  // namespace
}  // namespace pimds
