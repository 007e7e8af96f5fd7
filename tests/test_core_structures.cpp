// Tests for the real-thread PIM data structures (core/): set semantics,
// FIFO semantics, combining, segment hand-off, and concurrent stress.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/pim_linked_list.hpp"
#include "core/pim_skiplist.hpp"

namespace pimds::core {
namespace {

runtime::PimSystem::Config small_config(std::size_t vaults) {
  runtime::PimSystem::Config config;
  config.num_vaults = vaults;
  config.vault_bytes = 8u << 20;
  return config;
}

TEST(PimLinkedList, MatchesStdSetSingleThreaded) {
  runtime::PimSystem system(small_config(1));
  PimLinkedList list(system);
  system.start();
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(5);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t key = rng.next_in(1, 150);
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(list.add(key), reference.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(list.remove(key), reference.erase(key) > 0);
        break;
      default:
        ASSERT_EQ(list.contains(key), reference.count(key) > 0);
    }
    ASSERT_EQ(list.size(), reference.size());
  }
  system.stop();
}

TEST(PimLinkedList, DisjointRangesBehaveSequentiallyPerThread) {
  // Each thread owns a private key range, so its operations must have
  // exactly the sequential outcomes even under full concurrency.
  runtime::PimSystem system(small_config(1));
  PimLinkedList list(system);
  system.start();
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * 1000;
      std::set<std::uint64_t> reference;
      Xoshiro256 rng(100 + t);
      for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = base + rng.next_below(200);
        bool got = false;
        bool want = false;
        switch (rng.next_below(3)) {
          case 0:
            got = list.add(key);
            want = reference.insert(key).second;
            break;
          case 1:
            got = list.remove(key);
            want = reference.erase(key) > 0;
            break;
          default:
            got = list.contains(key);
            want = reference.count(key) > 0;
        }
        if (got != want) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  system.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(list.max_observed_batch(), 1u)
      << "concurrent load should trigger combining";
}

TEST(PimSkipList, MatchesStdSetSingleThreaded) {
  runtime::PimSystem system(small_config(4));
  PimSkipList::Options options;
  options.key_max = 1 << 12;
  PimSkipList list(system, options);
  system.start();
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(6);
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t key = rng.next_in(1, 1 << 12);
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(list.add(key), reference.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(list.remove(key), reference.erase(key) > 0);
        break;
      default:
        ASSERT_EQ(list.contains(key), reference.count(key) > 0);
    }
  }
  EXPECT_EQ(list.size(), reference.size());
  system.stop();
}

TEST(PimSkipList, KeyDomainSpansAtMostTheIndexsWindows) {
  // Every vault's index stores 32-bit offsets into 4,096 windows.
  runtime::PimSystem system(small_config(2));
  PimSkipList::Options options;
  options.key_min = 1;
  options.key_max = core::VaultIndex::kMaxKeySpan + 1;
  EXPECT_THROW(PimSkipList(system, options), std::invalid_argument);
  options.key_max = core::VaultIndex::kMaxKeySpan;
  PimSkipList list(system, options);
  system.start();
  for (const std::uint64_t key :
       {options.key_min, options.key_max / 2, options.key_max}) {
    EXPECT_TRUE(list.add(key)) << key;
    EXPECT_TRUE(list.contains(key)) << key;
  }
  EXPECT_FALSE(list.contains(options.key_max - 1));
  EXPECT_EQ(list.size(), 3u);
  system.stop();
}

TEST(PimSkipList, MigrationPreservesAllKeys) {
  runtime::PimSystem system(small_config(4));
  PimSkipList::Options options;
  options.key_max = 4000;
  PimSkipList list(system, options);
  system.start();
  for (std::uint64_t k = 1; k <= 4000; k += 3) EXPECT_TRUE(list.add(k));
  const std::size_t before = list.size();

  // Partition 0 covers [1, 1000): move its suffix [500, 1000) to vault 2.
  ASSERT_TRUE(list.migrate(500, 2));
  while (list.migration_active()) std::this_thread::yield();

  EXPECT_EQ(list.size(), before);
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    ASSERT_EQ(list.contains(k), k % 3 == 1) << k;
  }
  // The directory must now route the moved range to vault 2.
  const auto parts = list.partitions();
  const auto it = std::find_if(parts.begin(), parts.end(),
                               [](const auto& e) { return e.sentinel == 500; });
  ASSERT_NE(it, parts.end()) << "suffix split must create a sentinel at 500";
  EXPECT_EQ(it->vault, 2u);
  system.stop();
}

TEST(PimSkipList, MigrationRejectsBusyAndDegenerateRequests) {
  runtime::PimSystem system(small_config(4));
  PimSkipList::Options options;
  options.key_max = 4000;
  PimSkipList list(system, options);
  system.start();
  EXPECT_FALSE(list.migrate(1, 0)) << "vault 0 already owns key 1";
  EXPECT_FALSE(list.migrate(0, 1)) << "key below key_min";
  EXPECT_FALSE(list.migrate(1, 99)) << "no such vault";
  ASSERT_TRUE(list.migrate(1, 1));  // whole partition 0 -> vault 1
  // While active (or just completed), a second migrate may be rejected;
  // after completion it must be accepted again.
  while (list.migration_active()) std::this_thread::yield();
  EXPECT_TRUE(list.migrate(1, 0));  // move it back
  while (list.migration_active()) std::this_thread::yield();
  system.stop();
}

TEST(PimSkipList, OperationsRaceWithMigrationSafely) {
  runtime::PimSystem system(small_config(4));
  PimSkipList::Options options;
  options.key_max = 4000;
  options.migrate_chunk = 4;  // slow migration: maximize overlap
  PimSkipList list(system, options);
  system.start();
  for (std::uint64_t k = 1; k <= 4000; k += 2) list.add(k);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  // Two mutator threads hammer the migrating range with contains (whose
  // expected value is stable: odd keys present, even keys absent).
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 rng(t + 1);
      while (!stop.load()) {
        const std::uint64_t key = rng.next_in(1, 4000);
        if (list.contains(key) != (key % 2 == 1)) failures.fetch_add(1);
      }
    });
  }
  // Bounce a range between vaults a few times while the readers run.
  for (int round = 0; round < 6; ++round) {
    const std::size_t to = (round % 3) + 1;
    if (list.migrate(200, to)) {
      while (list.migration_active()) std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  system.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(list.size(), 2000u);
}

TEST(PimFifoQueue, BasicFifoOrderSingleThreaded) {
  runtime::PimSystem system(small_config(4));
  // Tiny segments exercise the hand-off.
  PimFifoQueue queue(system, {.segment_threshold = 16});
  system.start();
  for (std::uint64_t i = 0; i < 500; ++i) queue.enqueue(i);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto v = queue.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i) << "FIFO order broken across segment hand-offs";
  }
  EXPECT_FALSE(queue.dequeue().has_value());
  EXPECT_GT(queue.segments_created(), 10u);
  system.stop();
}

TEST(PimFifoQueue, EmptyQueueReportsEmpty) {
  runtime::PimSystem system(small_config(2));
  PimFifoQueue queue(system, PimFifoQueue::Options{});
  system.start();
  EXPECT_FALSE(queue.dequeue().has_value());
  queue.enqueue(7);
  EXPECT_EQ(queue.dequeue(), std::optional<std::uint64_t>(7));
  EXPECT_FALSE(queue.dequeue().has_value());
  system.stop();
}

TEST(PimFifoQueue, PerProducerOrderAndNoLossUnderConcurrency) {
  runtime::PimSystem system(small_config(4));
  PimFifoQueue queue(system, {.segment_threshold = 64});
  system.start();
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 20000;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        // Tag: high bits producer id, low bits sequence.
        queue.enqueue((static_cast<std::uint64_t>(p) << 32) | i);
      }
    });
  }
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<int> order_violations{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::map<std::uint64_t, std::int64_t> last_seen;
      while (consumed.load() < kProducers * kPerProducer) {
        const auto v = queue.dequeue();
        if (!v.has_value()) continue;
        const std::uint64_t producer = *v >> 32;
        const auto seq = static_cast<std::int64_t>(*v & 0xffffffff);
        auto [it, fresh] = last_seen.try_emplace(producer, -1);
        // Per-producer order as seen by one consumer must be increasing
        // (FIFO queues preserve it even with multiple consumers).
        if (!fresh && seq <= it->second) order_violations.fetch_add(1);
        it->second = seq;
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(queue.dequeue().has_value());  // before stop(): cores alive
  system.stop();
  EXPECT_EQ(order_violations.load(), 0);
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
}

TEST(PimFifoQueue, SingleVaultStillWorks) {
  runtime::PimSystem system(small_config(1));
  PimFifoQueue queue(system, {.segment_threshold = 8});
  system.start();
  for (std::uint64_t i = 0; i < 100; ++i) queue.enqueue(i);
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(queue.dequeue(), std::optional<std::uint64_t>(i));
  }
  system.stop();
}

}  // namespace
}  // namespace pimds::core
