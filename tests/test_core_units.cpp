// Unit tests for the core/ building blocks used by the PIM structures:
// the sentinel directory, the vault-local skip-list, Algorithm 1's shared
// vault handler, and the sequential structures behind the flat-combining
// baselines.
#include <gtest/gtest.h>

#include <memory_resource>
#include <set>
#include <utility>
#include <vector>

#include "baselines/seq_structures.hpp"
#include "common/rng.hpp"
#include "core/local_skiplist.hpp"
#include "core/queue_vault.hpp"
#include "core/sentinel_directory.hpp"
#include "runtime/vault.hpp"

namespace pimds {
namespace {

using core::LocalSkipList;
using core::SentinelDirectory;

TEST(SentinelDirectory, RoutesByGreatestSentinelAtMostKey) {
  SentinelDirectory dir({{1, 0}, {100, 1}, {200, 2}});
  EXPECT_EQ(dir.route(1), 0u);
  EXPECT_EQ(dir.route(99), 0u);
  EXPECT_EQ(dir.route(100), 1u);
  EXPECT_EQ(dir.route(150), 1u);
  EXPECT_EQ(dir.route(200), 2u);
  EXPECT_EQ(dir.route(~std::uint64_t{0}), 2u);
}

TEST(SentinelDirectory, PartitionOfReportsBounds) {
  SentinelDirectory dir({{1, 0}, {100, 1}, {200, 2}});
  const auto mid = dir.partition_of(150);
  EXPECT_EQ(mid.lo, 100u);
  EXPECT_EQ(mid.hi, 200u);
  EXPECT_EQ(mid.vault, 1u);
  const auto last = dir.partition_of(5000);
  EXPECT_EQ(last.lo, 200u);
  EXPECT_EQ(last.hi, ~std::uint64_t{0});
}

TEST(SentinelDirectory, WholePartitionTransferRetargetsEntry) {
  SentinelDirectory dir({{1, 0}, {100, 1}});
  dir.move_range(100, 3);  // split key == existing sentinel
  EXPECT_EQ(dir.partition_count(), 2u);
  EXPECT_EQ(dir.route(150), 3u);
  EXPECT_EQ(dir.route(50), 0u);
}

TEST(SentinelDirectory, SuffixSplitInsertsSentinel) {
  SentinelDirectory dir({{1, 0}, {100, 1}});
  dir.move_range(50, 2);  // suffix [50, 100) of partition 0
  EXPECT_EQ(dir.partition_count(), 3u);
  EXPECT_EQ(dir.route(49), 0u);
  EXPECT_EQ(dir.route(50), 2u);
  EXPECT_EQ(dir.route(99), 2u);
  EXPECT_EQ(dir.route(100), 1u);
}

TEST(SentinelDirectory, RepeatedSplitsStaySorted) {
  SentinelDirectory dir({{1, 0}});
  dir.move_range(1000, 1);
  dir.move_range(100, 2);
  dir.move_range(10, 3);
  const auto snap = dir.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].sentinel, snap[i].sentinel);
  }
  EXPECT_EQ(dir.route(5), 0u);
  EXPECT_EQ(dir.route(10), 3u);
  EXPECT_EQ(dir.route(500), 2u);
  EXPECT_EQ(dir.route(5000), 1u);
}

TEST(LocalSkipList, MatchesStdSetAndCountsSteps) {
  runtime::Vault vault(0, 16u << 20);
  LocalSkipList list(vault, 0, 77);
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(9);
  std::uint64_t total_steps = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t key = rng.next_in(1, 500);
    std::uint64_t steps = 0;
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(list.add(key, &steps), reference.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(list.remove(key, &steps), reference.erase(key) > 0);
        break;
      default:
        ASSERT_EQ(list.contains(key, &steps), reference.count(key) > 0);
    }
    EXPECT_GT(steps, 0u);
    total_steps += steps;
  }
  EXPECT_EQ(list.size(), reference.size());
  EXPECT_GT(total_steps, 0u);
}

TEST(LocalSkipList, FirstAtLeastScansInOrder) {
  runtime::Vault vault(0, 1u << 20);
  LocalSkipList list(vault, 0, 3);
  for (std::uint64_t k : {10u, 20u, 30u}) list.add(k);
  EXPECT_EQ(list.first_at_least(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(list.first_at_least(10), std::optional<std::uint64_t>(10));
  EXPECT_EQ(list.first_at_least(11), std::optional<std::uint64_t>(20));
  EXPECT_EQ(list.first_at_least(30), std::optional<std::uint64_t>(30));
  EXPECT_EQ(list.first_at_least(31), std::nullopt);
}

TEST(LocalSkipList, MemoryIsReturnedToTheVault) {
  runtime::Vault vault(0, 1u << 20);
  LocalSkipList list(vault, 0, 3);
  for (std::uint64_t k = 1; k <= 200; ++k) list.add(k);
  const std::size_t peak = vault.bytes_used();
  for (std::uint64_t k = 1; k <= 200; ++k) list.remove(k);
  EXPECT_LT(vault.bytes_used(), peak);
  // Re-adding recycles free-listed blocks; usage returns to roughly the
  // previous peak (tower heights are random, so allow slack for a taller
  // second population).
  for (std::uint64_t k = 1; k <= 200; ++k) list.add(k);
  EXPECT_LE(vault.bytes_used(), peak + 1024);
}

// --------------------------------------------------- QueueVault (Alg. 1)

using core::QueueReply;
using core::QueueSignal;

/// What every vault context of one scripted run shares: the role
/// directory, the memory and its allocation balance.
struct FakeQueueWorld {
  std::size_t enq_owner = 0;
  std::size_t deq_owner = 0;
  std::pmr::unsynchronized_pool_resource memory;
  std::int64_t live_blocks = 0;
};

/// A vault context that records every call the handler makes. Requesters
/// are plain request numbers.
struct FakeQueueCtx {
  using Requester = int;

  FakeQueueCtx(FakeQueueWorld& w, std::size_t v) : world(w), vault(v) {}

  FakeQueueWorld& world;
  std::size_t vault;
  std::vector<std::pair<std::size_t, QueueSignal>> sends;
  std::vector<std::uint64_t> charges;
  /// One entry per reply() call: the (requester, reply) pairs of that fat
  /// response.
  std::vector<std::vector<std::pair<int, QueueReply>>> responses;

  std::size_t self() const { return vault; }
  std::size_t deq_role_owner() const { return world.deq_owner; }
  void send(std::size_t to, QueueSignal s) { sends.emplace_back(to, s); }
  void charge(std::uint64_t n) { charges.push_back(n); }
  void reply(const int* reqs, const QueueReply* replies, std::size_t n) {
    responses.emplace_back();
    for (std::size_t i = 0; i < n; ++i) {
      responses.back().emplace_back(reqs[i], replies[i]);
    }
  }
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    ++world.live_blocks;
    return ::new (world.memory.allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }
  template <typename T>
  void destroy(T* p) {
    --world.live_blocks;
    world.memory.deallocate(p, sizeof(T), alignof(T));
  }
  void publish_enq_role() { world.enq_owner = vault; }
  void publish_deq_role() { world.deq_owner = vault; }

  /// Forget the calls recorded so far (one script step at a time).
  void clear() {
    sends.clear();
    charges.clear();
    responses.clear();
  }
};

using FakeVault = core::QueueVault<int>;

QueueReply accepted() { return QueueReply{true, false, 0}; }
QueueReply rejected() { return QueueReply{false, false, 0}; }
QueueReply value(std::uint64_t v) { return QueueReply{true, true, v}; }
QueueReply empty() { return QueueReply{true, false, 0}; }

using Response = std::vector<std::pair<int, QueueReply>>;

/// Two vaults, threshold 2, fat nodes on: one scripted run through both
/// hand-offs, both of them once to another core and once to the same core.
TEST(QueueVault, ScriptedRunFollowsAlgorithmOne) {
  FakeQueueWorld world;
  obs::Registry::instance().reset();
  core::QueueMetrics metrics("test.queue");
  const FakeVault::Config config{/*num_vaults=*/2, /*segment_threshold=*/2,
                                 /*antipodal_placement=*/true,
                                 /*enqueue_combining=*/true,
                                 /*fat_node_capacity=*/8};
  FakeVault v0(config, metrics);
  FakeVault v1(config, metrics);
  FakeQueueCtx c0{world, 0};
  FakeQueueCtx c1{world, 1};
  FakeVault* vaults[] = {&v0, &v1};
  EXPECT_EQ(FakeVault::prefill(
                0, [&](std::size_t v) -> FakeVault& { return *vaults[v]; },
                [&](std::size_t v) { return FakeQueueCtx{world, v}; }),
            0u);
  EXPECT_EQ(world.live_blocks, 1) << "one empty segment holds both roles";

  // Three enqueues in two messages gather into one fat node: one access,
  // one response. The segment outgrew the threshold, so the enqueue role
  // goes opposite the dequeue core (vault 0): to vault 1.
  v0.enqueue(10, 1);
  v0.enqueue(11, 2);
  v0.end_message(c0);
  v0.enqueue(12, 3);
  v0.end_message(c0);
  EXPECT_TRUE(c0.responses.empty()) << "combining gathers the whole pass";
  v0.serve(c0);
  EXPECT_EQ(c0.charges, (std::vector<std::uint64_t>{1}));
  ASSERT_EQ(c0.responses.size(), 1u);
  EXPECT_EQ(c0.responses[0],
            (Response{{1, accepted()}, {2, accepted()}, {3, accepted()}}));
  EXPECT_EQ(c0.sends, (std::vector<std::pair<std::size_t, QueueSignal>>{
                          {1, QueueSignal::kNewEnqSeg}}));
  c0.clear();

  // Stale routing: vault 0 no longer holds the enqueue role.
  v0.enqueue(13, 4);
  v0.serve(c0);
  EXPECT_TRUE(c0.charges.empty());
  EXPECT_EQ(c0.responses, (std::vector<Response>{{{4, rejected()}}}));
  c0.clear();

  // Vault 1 takes the role (allocation charged, directory published) and
  // serves the retry with two more. Full again, and the dequeue role is
  // still on vault 0, so the opposite core is vault 1 itself: a self
  // hand-off, applied at once without a message.
  v1.signal(c1, QueueSignal::kNewEnqSeg);
  EXPECT_EQ(world.enq_owner, 1u);
  v1.enqueue(13, 4);
  v1.enqueue(14, 5);
  v1.enqueue(15, 6);
  v1.serve(c1);
  EXPECT_EQ(c1.charges, (std::vector<std::uint64_t>{1, 1, 1}))
      << "newEnqSeg allocation, the fat node, the self hand-off allocation";
  EXPECT_EQ(c1.responses, (std::vector<Response>{{{4, accepted()},
                                                  {5, accepted()},
                                                  {6, accepted()}}}));
  EXPECT_TRUE(c1.sends.empty()) << "a self hand-off sends nothing";
  EXPECT_EQ(v1.stats().segments_created, 2u);
  v1.enqueue(16, 7);
  v1.serve(c1);
  c1.clear();

  // Vault 0 pops its three values (one access for the fat node's worth),
  // finds the segment exhausted, hands the dequeue role to the segment's
  // successor on vault 1 and rejects; the next dequeue is stale.
  for (int r = 8; r <= 12; ++r) v0.dequeue(r);
  v0.serve(c0);
  EXPECT_EQ(c0.charges, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(c0.responses, (std::vector<Response>{{{8, value(10)},
                                                  {9, value(11)},
                                                  {10, value(12)},
                                                  {11, rejected()},
                                                  {12, rejected()}}}));
  EXPECT_EQ(c0.sends, (std::vector<std::pair<std::size_t, QueueSignal>>{
                          {1, QueueSignal::kNewDeqSeg}}));
  EXPECT_EQ(v0.stats().segments_destroyed, 1u);
  c0.clear();

  // Vault 1 takes the dequeue role. Its first segment runs out after three
  // values; the successor is its own, so the role passes at once and the
  // following dequeues are served from it, down to "empty". The batch reads
  // two fat nodes, one per enqueue group: 13-15, whose answers (and the
  // rejection) ship before the second read, and 16.
  v1.signal(c1, QueueSignal::kNewDeqSeg);
  EXPECT_EQ(world.deq_owner, 1u);
  for (int r = 13; r <= 17; ++r) v1.dequeue(r);
  v1.serve(c1);
  EXPECT_EQ(c1.responses, (std::vector<Response>{{{13, value(13)},
                                                  {14, value(14)},
                                                  {15, value(15)},
                                                  {16, rejected()}},
                                                 {{17, value(16)}}}));
  EXPECT_EQ(c1.charges, (std::vector<std::uint64_t>{1, 1}));
  EXPECT_TRUE(c1.sends.empty());
  c1.clear();
  v1.dequeue(18);
  v1.serve(c1);
  EXPECT_EQ(c1.responses, (std::vector<Response>{{{18, empty()}}}));
  EXPECT_TRUE(c1.charges.empty()) << "an empty answer reads no node";

  EXPECT_EQ(world.live_blocks, 1) << "only the last segment is left";
  const auto snap = obs::Registry::instance().snapshot();
  const auto* handoffs = snap.find_counter("test.queue.segment_handoffs");
  ASSERT_NE(handoffs, nullptr);
  EXPECT_EQ(handoffs->value, 4u) << "two enqueue and two dequeue hand-offs";
}

/// Without fat nodes every message is served on its own and every value
/// costs one access — dequeues included.
TEST(QueueVault, WithoutCombiningEachValueCostsOneAccess) {
  FakeQueueWorld world;
  core::QueueMetrics metrics("test.queue");
  const FakeVault::Config config{1, 1024, true, /*enqueue_combining=*/false,
                                 8};
  FakeVault vault(config, metrics);
  FakeQueueCtx ctx{world, 0};
  FakeVault::prefill(
      0, [&](std::size_t) -> FakeVault& { return vault; },
      [&](std::size_t) { return FakeQueueCtx{world, 0}; });

  vault.enqueue(1, 1);
  vault.end_message(ctx);
  EXPECT_EQ(ctx.responses.size(), 1u) << "served at the end of its message";
  // A CPU-combined message of three enqueues: one response, three accesses.
  vault.enqueue(2, 2);
  vault.enqueue(3, 3);
  vault.enqueue(4, 4);
  vault.end_message(ctx);
  EXPECT_EQ(ctx.charges, (std::vector<std::uint64_t>{1, 3}));
  ctx.clear();

  for (int r = 5; r <= 9; ++r) vault.dequeue(r);
  vault.end_message(ctx);
  EXPECT_EQ(ctx.charges, (std::vector<std::uint64_t>{1, 1, 1, 1}))
      << "four dequeued values, four accesses";
  EXPECT_EQ(ctx.responses,
            (std::vector<Response>{{{5, value(1)}},
                                   {{6, value(2)}},
                                   {{7, value(3)}},
                                   {{8, value(4)}, {9, empty()}}}))
      << "each value is answered as soon as its node is read";
  EXPECT_EQ(world.live_blocks, 1) << "nodes freed, the segment remains";
}

/// A fat node holds one enqueue group, split every fat_node_capacity
/// values. A dequeue batch pays one access per fat node it reads from,
/// including one that an earlier batch began, and answers each fat node's
/// values together once it is read.
TEST(QueueVault, DequeuesPayForEachFatNodeTheyRead) {
  FakeQueueWorld world;
  core::QueueMetrics metrics("test.queue");
  const FakeVault::Config config{1, 1024, true, /*enqueue_combining=*/true,
                                 /*fat_node_capacity=*/4};
  FakeVault vault(config, metrics);
  FakeQueueCtx ctx{world, 0};
  FakeVault::prefill(
      0, [&](std::size_t) -> FakeVault& { return vault; },
      [&](std::size_t) { return FakeQueueCtx{world, 0}; });

  // Groups {1,2}, {3,4} and {5..10}: fat nodes [1,2] [3,4] [5..8] [9,10].
  int r = 1;  // request numbers; the i-th enqueue carries value i
  for (const int group : {2, 2, 6}) {
    for (int i = 0; i < group; ++i, ++r) vault.enqueue(r, r);
    vault.serve(ctx);
  }
  EXPECT_EQ(ctx.charges, (std::vector<std::uint64_t>{1, 1, 2}));
  ctx.clear();

  const auto dequeue_batch = [&](int n) {
    for (int i = 0; i < n; ++i) vault.dequeue(r++);
    vault.serve(ctx);
  };
  dequeue_batch(3);  // 1 2 | 3
  dequeue_batch(5);  // 4 | 5 6 7 8
  dequeue_batch(3);  // 9 10, then empty
  EXPECT_EQ(ctx.charges, (std::vector<std::uint64_t>(5, 1)))
      << "five fat node reads for ten values";
  EXPECT_EQ(ctx.responses,
            (std::vector<Response>{{{11, value(1)}, {12, value(2)}},
                                   {{13, value(3)}},
                                   {{14, value(4)}},
                                   {{15, value(5)},
                                    {16, value(6)},
                                    {17, value(7)},
                                    {18, value(8)}},
                                   {{19, value(9)},
                                    {20, value(10)},
                                    {21, empty()}}}));
}

TEST(SeqList, CursorBatchesEqualScratchExecution) {
  baselines::SeqList with_cursor;
  baselines::SeqList plain;
  Xoshiro256 rng(21);
  // Pre-populate identically.
  for (std::uint64_t k = 2; k <= 100; k += 2) {
    with_cursor.add(k);
    plain.add(k);
  }
  // Ascending batch through the cursor API must equal one-by-one calls.
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 50; ++i) keys.push_back(rng.next_in(1, 120));
  std::sort(keys.begin(), keys.end());
  baselines::SeqList::Cursor cursor;
  for (const std::uint64_t k : keys) {
    EXPECT_EQ(with_cursor.add_from(&cursor, k), plain.add(k)) << k;
  }
  EXPECT_EQ(with_cursor.size(), plain.size());
}

TEST(SeqSkipList, MatchesStdSet) {
  baselines::SeqSkipList list(0, 5);
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(31);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next_in(1, 400);
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
}

}  // namespace
}  // namespace pimds
