// Semantic and charge-rule tests for the sequential cores the simulator
// runs (core::SortedList, core::SkipList): they must be correct sets, and
// they must charge exactly the hops the Section 4 cost model counts. Hops
// are counted through each test's own hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#include "core/skip_list.hpp"
#include "core/sorted_list.hpp"
#include "sim/ds/skiplists.hpp"

namespace pimds::sim {
namespace {

using core::SkipList;
using core::SortedList;

/// Hop-cost hook that counts charges and charge calls.
struct HopCounter {
  std::uint64_t hops = 0;
  std::uint64_t calls = 0;
  auto hook() {
    return [this](std::uint64_t n) {
      hops += n;
      ++calls;
    };
  }
};

bool reference_apply(std::set<std::uint64_t>& reference, SetOp op,
                     std::uint64_t key) {
  switch (op) {
    case SetOp::kAdd:
      return reference.insert(key).second;
    case SetOp::kRemove:
      return reference.erase(key) > 0;
    case SetOp::kContains:
      return reference.count(key) > 0;
  }
  return false;
}

TEST(SortedList, MatchesStdSetOnRandomOps) {
  SortedList<> list;
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(7);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next_in(1, 200);
    const SetOp op = static_cast<SetOp>(rng.next_below(3));
    // Charge rule: the head read plus one hop per node with a smaller key,
    // one charge call per access.
    const auto smaller = static_cast<std::uint64_t>(
        std::distance(reference.begin(), reference.lower_bound(key)));
    HopCounter counter;
    const bool got = list.execute(op, key, counter.hook());
    ASSERT_EQ(got, reference_apply(reference, op, key))
        << "op " << static_cast<int>(op) << " key " << key;
    ASSERT_EQ(counter.hops, 1 + smaller);
    ASSERT_EQ(counter.calls, counter.hops);
    ASSERT_EQ(list.size(), reference.size());
  }
  // Final structural sweep.
  const auto keys = list.keys();
  ASSERT_EQ(keys, std::vector<std::uint64_t>(reference.begin(),
                                             reference.end()));
}

TEST(SortedList, PopulateCreatesDistinctSortedKeys) {
  SortedList<> list;
  Xoshiro256 rng(3);
  list.populate(rng, 300, 1000);
  EXPECT_EQ(list.size(), 300u);
  const auto keys = list.keys();
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LT(keys[i - 1], keys[i]) << "keys must be strictly increasing";
  }
  EXPECT_GE(keys.front(), 1u);
  EXPECT_LE(keys.back(), 1000u);
}

TEST(SortedList, CombinedBatchMatchesSequentialExecution) {
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    SortedList<> combined;
    SortedList<> sequential;
    Xoshiro256 setup(trial);
    combined.populate(setup, 50, 300);
    Xoshiro256 setup2(trial);
    sequential.populate(setup2, 50, 300);

    std::vector<SetRequest> batch;
    for (int i = 0; i < 20; ++i) {
      batch.push_back({static_cast<SetOp>(rng.next_below(3)),
                       rng.next_in(1, 300)});
    }
    std::vector<bool> combined_results(batch.size());
    combined.execute_batch(batch, combined_results, [](std::uint64_t) {});

    // The combined batch must behave as if served one by one in ascending
    // key order (stable for equal keys).
    std::vector<std::size_t> order(batch.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return batch[a].key < batch[b].key;
                     });
    std::vector<bool> expected(batch.size());
    for (std::size_t idx : order) {
      expected[idx] = sequential.execute(batch[idx].op, batch[idx].key,
                                         [](std::uint64_t) {});
    }
    ASSERT_EQ(combined_results, expected) << "trial " << trial;
    ASSERT_EQ(combined.keys(), sequential.keys()) << "trial " << trial;
  }
}

TEST(SortedList, SortedBatchPaysOneTraversal) {
  // An ascending batch over the keys 2, 4, ..., 100 walks the list once:
  // the head plus every node below the largest key, however many requests
  // ride along — the Section 4.1 combining rule.
  SortedList<> list;
  for (std::uint64_t k = 2; k <= 100; k += 2) {
    ASSERT_TRUE(list.execute(SetOp::kAdd, k, [](std::uint64_t) {}));
  }
  std::vector<SetRequest> batch;
  for (std::uint64_t k = 61; k >= 11; k -= 10) {
    batch.push_back({SetOp::kContains, k});  // arrival order is descending
  }
  std::vector<bool> results(batch.size());
  HopCounter counter;
  list.execute_batch(batch, results, counter.hook());
  EXPECT_EQ(counter.hops, 1u + 30u);  // head + the 30 even keys below 61
  EXPECT_EQ(std::count(results.begin(), results.end(), true), 0);
  // Equal keys are served in arrival order: add, contains, remove, contains.
  const std::vector<SetRequest> same_key = {{SetOp::kAdd, 7},
                                            {SetOp::kContains, 7},
                                            {SetOp::kRemove, 7},
                                            {SetOp::kContains, 7}};
  std::vector<bool> same_results(same_key.size());
  list.execute_batch(same_key, same_results, [](std::uint64_t) {});
  EXPECT_EQ(same_results, (std::vector<bool>{true, true, true, false}));
  EXPECT_EQ(list.size(), 50u);
}

TEST(SkipList, MatchesStdSetOnRandomOps) {
  SkipList list(0);
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(13);
  Xoshiro256 towers(5);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t key = rng.next_in(1, 400);
    const SetOp op = static_cast<SetOp>(rng.next_below(3));
    HopCounter counter;
    const bool got = list.execute(op, key, towers, counter.hook());
    ASSERT_EQ(got, reference_apply(reference, op, key));
    ASSERT_EQ(counter.calls, 1u) << "a search is charged in one call";
    ASSERT_GE(counter.hops, 1u);
    ASSERT_EQ(list.size(), reference.size());
  }
  ASSERT_EQ(list.keys(), std::vector<std::uint64_t>(reference.begin(),
                                                    reference.end()));
}

TEST(SkipList, SearchStepsAreLogarithmic) {
  SkipList list(0);
  Xoshiro256 rng(17);
  list.populate(rng, 1 << 14, 1, 1 << 16);
  EXPECT_EQ(list.size(), std::size_t{1} << 14);
  HopCounter counter;
  for (int i = 0; i < 2000; ++i) {
    list.execute(SetOp::kContains, rng.next_in(1, 1 << 16), rng,
                 counter.hook());
  }
  // beta = Theta(log N): ~2 log2(16384) = 28, generously bracketed.
  const double beta = static_cast<double>(counter.hops) /
                      static_cast<double>(counter.calls);
  EXPECT_GT(beta, 14.0);
  EXPECT_LT(beta, 56.0);
}

TEST(SkipList, EmptyListSearchReadsOneLevel) {
  // The search starts at the highest populated level: an empty list reads
  // only the head's bottom link.
  SkipList list(0);
  Xoshiro256 rng(1);
  HopCounter counter;
  EXPECT_FALSE(list.execute(SetOp::kContains, 5, rng, counter.hook()));
  EXPECT_EQ(counter.hops, 1u);
}

TEST(SkipList, SentinelPartitioningRoutesEveryKeyOnce) {
  // partition_of and partition_sentinel must tile [1, N] exactly, and each
  // partition's list accepts exactly its own keys above its sentinel.
  const std::uint64_t n = 1000;
  for (std::size_t k : {1u, 3u, 8u, 16u}) {
    std::vector<std::uint64_t> count(k, 0);
    std::vector<std::unique_ptr<SkipList>> parts;
    for (std::size_t p = 0; p < k; ++p) {
      parts.push_back(
          std::make_unique<SkipList>(partition_sentinel(p, n, k)));
    }
    Xoshiro256 rng(k);
    for (std::uint64_t key = 1; key <= n; ++key) {
      const std::size_t p = partition_of(key, n, k);
      ASSERT_LT(p, k);
      ASSERT_GT(key, partition_sentinel(p, n, k))
          << "key must exceed its partition's sentinel";
      ASSERT_TRUE(parts[p]->insert_for_setup(rng, key));
      ++count[p];
    }
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < k; ++p) {
      EXPECT_GT(count[p], 0u);
      EXPECT_EQ(parts[p]->size(), count[p]);
      total += count[p];
    }
    EXPECT_EQ(total, n);
  }
}

}  // namespace
}  // namespace pimds::sim
