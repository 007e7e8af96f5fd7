// Tests for the CPU baseline structures: sequential semantics against
// std::set / std::deque oracles, plus concurrent stress with per-thread and
// per-producer invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "baselines/faa_queue.hpp"
#include "baselines/fc_structures.hpp"
#include "baselines/hoh_list.hpp"
#include "baselines/lazy_list.hpp"
#include "baselines/lockfree_skiplist.hpp"
#include "baselines/ms_queue.hpp"
#include "common/rng.hpp"

namespace pimds::baselines {
namespace {

/// After a concurrent run, the structure's reclamation accounting must be
/// coherent: nothing freed that was never retired, and flush() must leave
/// no backlog once all mutators have quiesced.
void expect_reclaim_coherent(EbrDomain& r) {
  r.flush();
  const ReclaimStats s = r.stats();
  EXPECT_GE(s.retired, s.freed);
  EXPECT_EQ(s.in_flight, s.retired - s.freed);
}

// ---------- generic set-semantics checkers ----------

template <typename Set>
void check_set_semantics(Set& set, std::uint64_t key_range, int ops,
                         std::uint64_t seed) {
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t key = rng.next_in(1, key_range);
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(set.add(key), reference.insert(key).second) << "add " << key;
        break;
      case 1:
        ASSERT_EQ(set.remove(key), reference.erase(key) > 0)
            << "remove " << key;
        break;
      default:
        ASSERT_EQ(set.contains(key), reference.count(key) > 0)
            << "contains " << key;
    }
  }
}

/// Each thread mutates a private key range; outcomes must match a private
/// sequential oracle exactly, even under full concurrency.
template <typename Set>
int disjoint_range_stress(Set& set, int threads, int ops_per_thread) {
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::uint64_t base = 1 + static_cast<std::uint64_t>(t) * 100000;
      std::set<std::uint64_t> reference;
      Xoshiro256 rng(17 + t);
      for (int i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t key = base + rng.next_below(300);
        bool got = false;
        bool want = false;
        switch (rng.next_below(3)) {
          case 0:
            got = set.add(key);
            want = reference.insert(key).second;
            break;
          case 1:
            got = set.remove(key);
            want = reference.erase(key) > 0;
            break;
          default:
            got = set.contains(key);
            want = reference.count(key) > 0;
        }
        if (got != want) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  return failures.load();
}

/// Shared-range stress: verify global accounting (successful adds minus
/// successful removes equals the final size).
template <typename Set>
void shared_range_stress(Set& set, int threads, int ops_per_thread) {
  std::atomic<std::int64_t> net{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(23 + t);
      std::int64_t local = 0;
      for (int i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t key = rng.next_in(1, 128);
        if (rng.next_bool(0.5)) {
          if (set.add(key)) ++local;
        } else {
          if (set.remove(key)) --local;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  std::int64_t present = 0;
  for (std::uint64_t k = 1; k <= 128; ++k) present += set.contains(k);
  EXPECT_EQ(present, net.load())
      << "successful add/remove accounting disagrees with final contents";
}

TEST(HohList, MatchesStdSet) {
  HohList list;
  check_set_semantics(list, 200, 6000, 1);
}

TEST(HohList, DisjointRangeStress) {
  HohList list;
  EXPECT_EQ(disjoint_range_stress(list, 4, 4000), 0);
}

TEST(HohList, SharedRangeAccounting) {
  HohList list;
  shared_range_stress(list, 4, 5000);
}

TEST(LazyList, MatchesStdSet) {
  LazyList list;
  check_set_semantics(list, 200, 6000, 2);
}

TEST(LazyList, DisjointRangeStress) {
  LazyList list;
  EXPECT_EQ(disjoint_range_stress(list, 4, 4000), 0);
  expect_reclaim_coherent(list.reclaimer());
}

TEST(LazyList, SharedRangeAccounting) {
  LazyList list;
  shared_range_stress(list, 4, 5000);
  expect_reclaim_coherent(list.reclaimer());
}

TEST(LockFreeSkipList, MatchesStdSet) {
  LockFreeSkipList list;
  check_set_semantics(list, 500, 8000, 3);
}

TEST(LockFreeSkipList, DisjointRangeStress) {
  LockFreeSkipList list;
  EXPECT_EQ(disjoint_range_stress(list, 4, 6000), 0);
  expect_reclaim_coherent(list.reclaimer());
}

TEST(LockFreeSkipList, SharedRangeAccounting) {
  LockFreeSkipList list;
  shared_range_stress(list, 4, 8000);
  expect_reclaim_coherent(list.reclaimer());
}

TEST(FcLinkedList, MatchesStdSetBothModes) {
  FcLinkedList combining(true);
  check_set_semantics(combining, 200, 6000, 4);
  FcLinkedList plain(false);
  check_set_semantics(plain, 200, 6000, 4);
}

TEST(FcLinkedList, DisjointRangeStressTriggersCombining) {
  FcLinkedList list(true);
  EXPECT_EQ(disjoint_range_stress(list, 4, 4000), 0);
  EXPECT_GE(list.max_combined(), 2u)
      << "4 threads hammering one combiner should batch";
}

TEST(FcSkipList, MatchesStdSetAcrossPartitionCounts) {
  for (std::size_t k : {1u, 4u, 7u}) {
    FcSkipList list(1 << 12, k);
    check_set_semantics(list, 1 << 12, 6000, 5 + k);
    EXPECT_EQ(list.partitions(), k);
  }
}

TEST(FcSkipList, DisjointRangeStress) {
  FcSkipList list(1u << 20, 4);
  EXPECT_EQ(disjoint_range_stress(list, 4, 4000), 0);
}

// ---------- queues ----------

template <typename Queue>
void check_fifo_single_threaded(Queue& q) {
  EXPECT_FALSE(q.dequeue().has_value());
  for (std::uint64_t i = 0; i < 3000; ++i) q.enqueue(i);
  for (std::uint64_t i = 0; i < 3000; ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

/// Concurrent producers and consumers: nothing lost, nothing duplicated,
/// per-producer order preserved at each consumer.
template <typename Queue>
void check_mpmc(Queue& q, int producers, int consumers,
                std::uint64_t per_producer) {
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> consumed{0};
  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> checksum{0};
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        q.enqueue((static_cast<std::uint64_t>(p) << 32) | i);
      }
    });
  }
  const std::uint64_t total = producers * per_producer;
  for (int c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      std::map<std::uint64_t, std::int64_t> last;
      while (consumed.load() < total) {
        auto v = q.dequeue();
        if (!v.has_value()) continue;
        const std::uint64_t producer = *v >> 32;
        const auto seq = static_cast<std::int64_t>(*v & 0xffffffff);
        auto [it, fresh] = last.try_emplace(producer, -1);
        if (!fresh && seq <= it->second) violations.fetch_add(1);
        it->second = seq;
        checksum.fetch_add(*v);
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(consumed.load(), total);
  std::uint64_t expected = 0;
  for (int p = 0; p < producers; ++p) {
    for (std::uint64_t i = 0; i < per_producer; ++i) {
      expected += (static_cast<std::uint64_t>(p) << 32) | i;
    }
  }
  EXPECT_EQ(checksum.load(), expected) << "values lost or duplicated";
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(MsQueue, FifoSingleThreaded) {
  MsQueue q;
  check_fifo_single_threaded(q);
}

TEST(MsQueue, MpmcStress) {
  MsQueue q;
  check_mpmc(q, 2, 2, 20000);
  expect_reclaim_coherent(q.reclaimer());
}

TEST(FaaQueue, FifoSingleThreaded) {
  FaaQueue q;
  check_fifo_single_threaded(q);
}

TEST(FaaQueue, CrossesSegmentBoundaries) {
  FaaQueue q;
  for (std::uint64_t i = 0; i < 3 * FaaQueue::kSegmentCells + 10; ++i) {
    q.enqueue(i);
  }
  for (std::uint64_t i = 0; i < 3 * FaaQueue::kSegmentCells + 10; ++i) {
    ASSERT_EQ(q.dequeue(), std::optional<std::uint64_t>(i));
  }
  EXPECT_FALSE(q.dequeue().has_value());
  // Three segments were drained and retired along the way.
  expect_reclaim_coherent(q.reclaimer());
  EXPECT_GE(q.reclaimer().stats().retired, 3u);
}

TEST(FaaQueue, MpmcStress) {
  FaaQueue q;
  check_mpmc(q, 2, 2, 20000);
  expect_reclaim_coherent(q.reclaimer());
}

TEST(FcQueue, FifoSingleThreaded) {
  FcQueue q;
  check_fifo_single_threaded(q);
}

TEST(FcQueue, MpmcStress) {
  FcQueue q;
  check_mpmc(q, 2, 2, 20000);
}

// ---------- flat-combining harness ----------

// The FC structures' serve-in-place path, driven directly: the
// RequestCombiner leader serves the gathered batch inside its send callback
// and writes each result through the entry's slot.

TEST(CombineInPlace, EveryRequestExecutedExactlyOnce) {
  runtime::RequestCombiner fc;
  std::uint64_t shared_sum = 0;  // only the combiner touches it
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  // On a small host the threads can serialize so perfectly that every
  // combining pass serves exactly one request, making max_batch >= 2 a
  // bet on scheduling. Force one multi-request batch deterministically: the
  // first combiner stalls inside serve() until two other threads are inside
  // combine_in_place() (each publishes its record on entry), so the next
  // leader's pass must pick up a batch of at least two.
  std::atomic<int> inflight{0};
  std::atomic<bool> stalled{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 1; i <= kOps; ++i) {
        inflight.fetch_add(1);
        runtime::FatEntry e{};
        e.value = static_cast<std::uint64_t>(i);
        const int got = combine_in_place<int>(
            fc, e, [&](std::span<const runtime::FatEntry> batch) {
              if (!stalled.exchange(true)) {
                while (inflight.load() < 3) std::this_thread::yield();
                // Give the concurrent callers time to finish publishing.
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
              }
              for (const runtime::FatEntry& rec : batch) {
                shared_sum += rec.value;
                result_of<int>(rec) = static_cast<int>(rec.value);
              }
            });
        EXPECT_EQ(got, i);
        inflight.fetch_sub(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::uint64_t per_thread =
      static_cast<std::uint64_t>(kOps) * (kOps + 1) / 2;
  EXPECT_EQ(shared_sum, kThreads * per_thread);
  EXPECT_GE(fc.max_batch(), 2u);
  EXPECT_EQ(fc.requests_combined(),
            static_cast<std::uint64_t>(kThreads) * kOps);
}

TEST(CombineInPlace, ReturnsTheCallersOwnResult) {
  runtime::RequestCombiner fc;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5000; ++i) {
        const int want = t * 100000 + i;
        runtime::FatEntry e{};
        e.value = static_cast<std::uint64_t>(want);
        const int got = combine_in_place<int>(
            fc, e, [](std::span<const runtime::FatEntry> batch) {
              for (const runtime::FatEntry& rec : batch) {
                result_of<int>(rec) = static_cast<int>(rec.value);
              }
            });
        if (got != want) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Threads come and go: an FC structure keeps no per-thread state, so any
// number of distinct threads may call it over its lifetime. One thread runs
// at a time.
TEST(FcLinkedList, TwoHundredShortLivedThreadsInTurn) {
  FcLinkedList list(true);
  for (std::uint64_t key = 1; key <= 200; ++key) {
    bool added = false;
    std::thread([&] { added = list.add(key); }).join();
    ASSERT_TRUE(added) << "key " << key;
  }
  EXPECT_EQ(list.size(), 200u);
}

}  // namespace
}  // namespace pimds::baselines
