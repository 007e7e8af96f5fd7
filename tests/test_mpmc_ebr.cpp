// Tests for the MPMC ring (runtime mailbox transport) and epoch-based
// reclamation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/ebr.hpp"
#include "common/mpmc_queue.hpp"

namespace pimds {
namespace {

TEST(MpmcQueue, FifoWhenSingleThreaded) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99)) << "ring of 8 must reject the 9th element";
  for (int i = 0; i < 8; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpmcQueue, CapacityRoundsUpToPowerOfTwo) {
  MpmcQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(MpmcQueue, WrapsAroundManyTimes) {
  MpmcQueue<int> q(4);
  for (int round = 0; round < 1000; ++round) {
    EXPECT_TRUE(q.try_push(round));
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, round);
  }
  EXPECT_TRUE(q.empty());
}

TEST(MpmcQueue, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 20000;
  MpmcQueue<std::uint64_t> q(1024);
  std::atomic<std::uint64_t> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(static_cast<std::uint64_t>(p) * kPerProducer + i + 1);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        if (auto v = q.try_pop()) {
          sum.fetch_add(*v);
          consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // Sum of 1..N where N = kProducers * kPerProducer.
  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(MpmcQueue, PerProducerOrderIsPreserved) {
  MpmcQueue<std::pair<int, int>> q(256);  // (producer, seq)
  std::vector<std::thread> producers;
  std::atomic<bool> done{false};
  std::vector<int> last_seen(2, -1);
  std::thread consumer([&] {
    int count = 0;
    while (count < 20000) {
      if (auto v = q.try_pop()) {
        auto [p, seq] = *v;
        EXPECT_GT(seq, last_seen[p]) << "per-producer FIFO violated";
        last_seen[p] = seq;
        ++count;
      }
    }
    done.store(true);
  });
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < 10000; ++i) q.push({p, i});
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_TRUE(done.load());
}

struct CountedNode {
  static std::atomic<int> live;
  static constexpr std::uint64_t kCanary = 0xfeedfacecafebeefULL;
  std::uint64_t canary = kCanary;
  CountedNode() { live.fetch_add(1); }
  ~CountedNode() {
    canary = 0;
    live.fetch_sub(1);
  }
};
std::atomic<int> CountedNode::live{0};

TEST(Ebr, RetiredNodesAreEventuallyFreed) {
  CountedNode::live = 0;
  {
    EbrDomain domain;
    for (int i = 0; i < 1000; ++i) {
      EbrDomain::Guard guard(domain);
      guard.retire(new CountedNode());
    }
    // Batching frees most nodes along the way; the destructor frees the rest.
  }
  EXPECT_EQ(CountedNode::live.load(), 0);
}

TEST(Ebr, NodesSurviveWhileAnotherThreadIsPinned) {
  EbrDomain domain;
  CountedNode::live = 0;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EbrDomain::Guard guard(domain);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  {
    // Retire far more than one batch; the pinned reader must hold them all.
    EbrDomain::Guard guard(domain);
    for (int i = 0; i < 300; ++i) guard.retire(new CountedNode());
  }
  EXPECT_EQ(CountedNode::live.load(), 300)
      << "nodes were freed while a guard from an old epoch was active";
  release.store(true);
  reader.join();
  domain.reclaim_all_unsafe();
  EXPECT_EQ(CountedNode::live.load(), 0);
}

// Regression for the "one parked reader stalls the domain" pathology: the
// epoch_stall counter must fire while the reader is pinned, every retired
// node must survive the stall, and — the part that used to go untested —
// flush() must drain the whole backlog once the stall clears, without
// waiting for future retire traffic.
TEST(Ebr, EpochStallIsCountedAndBacklogDrainsWhenStallClears) {
  EbrDomain domain;
  CountedNode::live = 0;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    EbrDomain::Guard guard(domain);
    pinned.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!pinned.load()) std::this_thread::yield();
  constexpr int kRetired = 4 * static_cast<int>(EbrDomain::kRetireBatch);
  {
    EbrDomain::Guard guard(domain);
    for (int i = 0; i < kRetired; ++i) guard.retire(new CountedNode());
  }
  // Every full batch attempted an epoch advance and found the parked
  // reader pinned to the entry epoch.
  EXPECT_GT(domain.epoch_stalls(), 0u) << "stalled advances went uncounted";
  EXPECT_EQ(domain.stats().stalls, domain.epoch_stalls());
  EXPECT_EQ(CountedNode::live.load(), kRetired)
      << "nodes freed under a stalled reader";
  EXPECT_EQ(domain.stats().in_flight, static_cast<std::uint64_t>(kRetired));
  release.store(true);
  reader.join();
  // Stall cleared: flush alone (no new retires) must age out every bucket.
  domain.flush();
  EXPECT_EQ(CountedNode::live.load(), 0)
      << "backlog survived flush() after the stall cleared";
  EXPECT_EQ(domain.stats().in_flight, 0u);
}

TEST(Ebr, SlotsInUseCountsParticipants) {
  EbrDomain domain;
  EXPECT_EQ(domain.slots_in_use(), 0u);
  { EbrDomain::Guard guard(domain); }
  EXPECT_EQ(domain.slots_in_use(), 1u);
  { EbrDomain::Guard guard(domain); }  // same thread: claim is cached
  EXPECT_EQ(domain.slots_in_use(), 1u);
  std::thread other([&] { EbrDomain::Guard guard(domain); });
  other.join();
  EXPECT_EQ(domain.slots_in_use(), 2u);
  EXPECT_EQ(domain.stats().slots_in_use, 2u);
}

#if GTEST_HAS_DEATH_TEST
// The kMaxThreads+1'th participant must abort with a diagnostic, not
// silently corrupt a neighbor's slot (or terminate with no message, as the
// old throw-from-noexcept path did).
TEST(EbrDeathTest, SlotExhaustionFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EbrDomain domain;
        // Slots are claimed per (thread, domain) and never recycled, so
        // sequential short-lived threads exhaust the cap deterministically.
        for (std::size_t i = 0; i <= EbrDomain::kMaxThreads; ++i) {
          std::thread t([&] { EbrDomain::Guard guard(domain); });
          t.join();
        }
      },
      "participant cap exhausted");
}
#endif

TEST(Ebr, ManyThreadsRetireConcurrently) {
  EbrDomain domain;
  CountedNode::live = 0;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        EbrDomain::Guard guard(domain);
        guard.retire(new CountedNode());
      }
    });
  }
  for (auto& t : threads) t.join();
  domain.reclaim_all_unsafe();
  EXPECT_EQ(CountedNode::live.load(), 0);
}

// The central race: writers continuously swap a shared pointer and retire
// the displaced node while readers load and dereference it inside a guard.
// A premature free shows up as a canary mismatch natively and as a report
// under TSan/ASan; this is the sanitizer target for the guard-entry fence
// pairing with the epoch scan.
TEST(Ebr, LoadVsRetireKeepsNodesAlive) {
  CountedNode::live = 0;
  {
    EbrDomain domain;
    std::atomic<CountedNode*> shared{new CountedNode()};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> bad_reads{0};
    constexpr int kReaders = 2;
    constexpr int kWriters = 2;
    constexpr int kSwapsPerWriter = 20000;
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          EbrDomain::Guard guard(domain);
          CountedNode* p = shared.load(std::memory_order_acquire);
          if (p->canary != CountedNode::kCanary) {
            bad_reads.fetch_add(1);
          }
        }
      });
    }
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&] {
        for (int i = 0; i < kSwapsPerWriter; ++i) {
          auto* fresh = new CountedNode();
          EbrDomain::Guard guard(domain);
          CountedNode* old = shared.exchange(fresh);
          guard.retire(old);
        }
      });
    }
    for (std::size_t i = kReaders; i < threads.size(); ++i) threads[i].join();
    stop.store(true, std::memory_order_release);
    for (int r = 0; r < kReaders; ++r) threads[r].join();
    EXPECT_EQ(bad_reads.load(), 0u)
        << "a reader dereferenced a freed node's memory";
    delete shared.load();
    domain.reclaim_all_unsafe();
    const ReclaimStats s = domain.stats();
    EXPECT_EQ(s.retired, s.freed);
  }
  EXPECT_EQ(CountedNode::live.load(), 0);
}

}  // namespace
}  // namespace pimds
