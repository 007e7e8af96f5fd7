// Unit tests for the core/ building blocks used by the PIM structures:
// the sentinel directory, the vault-local fat-node index, Algorithm 1's and
// Section 4.2.1's shared vault handlers, and the shared sorted list on heap
// and vault nodes (its semantics and charge rule are in
// test_sim_structures).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory_resource>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "core/queue_vault.hpp"
#include "core/rebalance_step.hpp"
#include "core/sentinel_directory.hpp"
#include "core/skip_list_vault.hpp"
#include "core/sorted_list.hpp"
#include "core/vault_index.hpp"
#include "obs/loadmap.hpp"
#include "runtime/vault.hpp"

namespace pimds {
namespace {

using core::SentinelDirectory;
using core::VaultIndex;

/// The widest domain an index takes, [0, 2^44 - 1]: its windows span
/// 2^32 keys, so every key below 2^32 shares window 0's tree.
constexpr std::uint64_t kWidestKeyMax = VaultIndex::kMaxKeySpan - 1;

/// Hop-cost hook adding each charged call's accesses to `total`.
auto tally(std::uint64_t& total) {
  return [&total](std::uint64_t n) { total += n; };
}

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

TEST(VaultIndex, MatchesStdSetAndCountsSteps) {
  runtime::Vault vault(0, 16u << 20);
  VaultIndex list(vault, 0, kWidestKeyMax);
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(9);
  std::uint64_t total_steps = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t key = rng.next_in(1, 500);
    std::uint64_t steps = 0;
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(list.add(key, tally(steps)), reference.insert(key).second);
        break;
      case 1:
        ASSERT_EQ(list.remove(key, tally(steps)), reference.erase(key) > 0);
        break;
      default:
        ASSERT_EQ(list.contains(key, tally(steps)), reference.count(key) > 0);
    }
    EXPECT_GT(steps, 0u);
    total_steps += steps;
  }
  EXPECT_EQ(list.size(), reference.size());
  EXPECT_GT(total_steps, 0u);
}

TEST(VaultIndex, FirstAtLeastScansInOrder) {
  runtime::Vault vault(0, 1u << 20);
  VaultIndex list(vault, 0, kWidestKeyMax);
  for (std::uint64_t k : {10u, 20u, 30u}) list.add(k);
  EXPECT_EQ(list.first_at_least(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(list.first_at_least(10), std::optional<std::uint64_t>(10));
  EXPECT_EQ(list.first_at_least(11), std::optional<std::uint64_t>(20));
  EXPECT_EQ(list.first_at_least(30), std::optional<std::uint64_t>(30));
  EXPECT_EQ(list.first_at_least(31), std::nullopt);
}

TEST(VaultIndex, MemoryIsReturnedToTheVault) {
  runtime::Vault vault(0, 1u << 20);
  VaultIndex list(vault, 0, kWidestKeyMax);
  for (std::uint64_t k = 1; k <= 200; ++k) list.add(k);
  const std::size_t peak = vault.bytes_used();
  for (std::uint64_t k = 1; k <= 200; ++k) list.remove(k);
  EXPECT_LT(vault.bytes_used(), peak);
  // Re-adding recycles free-listed blocks; usage returns to roughly the
  // previous peak (allow slack for a differently split second population).
  for (std::uint64_t k = 1; k <= 200; ++k) list.add(k);
  EXPECT_LE(vault.bytes_used(), peak + 1024);
}

/// An index over `n` distinct uniform keys in [1, 2^16] (perfbench's
/// per-vault shape at n = 8,192).
void fill_uniform(VaultIndex& index, std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  while (index.size() < n) index.add(1 + rng.next_below(1u << 16));
}

TEST(VaultIndex, ContainsChargesExactlyTheHeight) {
  runtime::Vault vault(0, 16u << 20);
  VaultIndex index(vault, 0, kWidestKeyMax);
  std::uint64_t steps = 0;
  EXPECT_FALSE(index.contains(5, tally(steps)));
  EXPECT_EQ(steps, 1u);  // an empty index is one root leaf
  fill_uniform(index, 8192, 1);
  ASSERT_GE(index.height(), 4);
  Xoshiro256 rng(2);
  for (int i = 0; i < 2000; ++i) {
    steps = 0;
    index.contains(1 + rng.next_below(1u << 16), tally(steps));
    ASSERT_EQ(steps, static_cast<std::uint64_t>(index.height()));
  }
}

TEST(VaultIndex, BothNodeKindsFitOneBlockAtThirtyOneAndFifteenEntries) {
  static_assert(VaultIndex::kLeafKeys == 31 && VaultIndex::kFanout == 15);
  runtime::Vault vault(0, 1u << 20);
  VaultIndex index(vault, 0, kWidestKeyMax);
  // A root leaf takes 31 keys; the 32nd splits it.
  std::uint64_t key = 1;
  while (index.height() == 1) index.add(key++);
  EXPECT_EQ(index.size(), 32u);
  // An ascending fill only ever splits the last leaf, so the largest
  // two-level tree is one inner root over 15 leaves.
  std::uint64_t most_blocks = 0;
  while (index.height() == 2) {
    most_blocks = std::max(most_blocks, vault.live_blocks());
    index.add(key++);
  }
  EXPECT_EQ(most_blocks, 1u + VaultIndex::kFanout);
  // Every block, leaf or inner, is at most one 128-byte vault read; the
  // root region is one allocation of one such block per window.
  EXPECT_LE(vault.bytes_used(),
            (vault.live_blocks() - 1 + index.windows()) *
                VaultIndex::kNodeBytes);
}

TEST(VaultIndex, GrowthFromPrefillToFourteenThousandKeysStaysAtHeightFour) {
  // perfbench skiplist_read's 90/5/5 contains/add/remove mix, replayed
  // from its 8,192-key prefill until the vault holds 14,000 keys (about
  // what a 20 s run grows it to).
  runtime::Vault vault(0, 16u << 20);
  VaultIndex index(vault, 0, kWidestKeyMax);
  fill_uniform(index, 8192, 1);
  ASSERT_EQ(index.height(), 4);
  Xoshiro256 rng(7);
  std::uint64_t probes = 0;
  while (index.size() < 14000) {
    const std::uint64_t key = 1 + rng.next_below(1u << 16);
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 5) {
      index.add(key);
    } else if (pick < 10) {
      index.remove(key);
    } else {
      std::uint64_t steps = 0;
      index.contains(key, tally(steps));
      ASSERT_EQ(steps, 4u) << "at " << index.size() << " keys";
      ++probes;
    }
    ASSERT_EQ(index.height(), 4) << "at " << index.size() << " keys";
  }
  EXPECT_GT(probes, 100000u);
}

TEST(VaultIndex, AddChargesHeightPlusTheNodesItsSplitCreated) {
  runtime::Vault vault(0, 16u << 20);
  VaultIndex index(vault, 0, kWidestKeyMax);
  Xoshiro256 rng(3);
  std::uint64_t splits = 0;
  std::uint64_t root_splits = 0;
  for (int i = 0; i < 6000; ++i) {
    const int height = index.height();
    const std::uint64_t blocks = vault.live_blocks();  // adds never free
    std::uint64_t steps = 0;
    const bool added = index.add(1 + rng.next_below(1u << 16), tally(steps));
    const std::uint64_t created = vault.live_blocks() - blocks;
    ASSERT_EQ(steps, static_cast<std::uint64_t>(height) + created);
    if (!added) {
      ASSERT_EQ(created, 0u);
    }
    splits += created > 0;
    root_splits += index.height() > height;
  }
  EXPECT_GT(splits, 100u);
  EXPECT_GE(root_splits, 3u);
}

TEST(VaultIndex, MigrationHelpersStayUnderTheOneKeyLayoutsPerKeyCharge) {
  // The one-key layout charged 2 per extracted key and at least 2 per
  // ascending insert (the insertion point plus one tower link). Fingers on
  // the current leaf bring both to about one descent or split per leaf.
  constexpr std::uint64_t kKeys = 1000;
  runtime::Vault source_vault(0, 16u << 20);
  VaultIndex source(source_vault, 0, kWidestKeyMax);
  for (std::uint64_t k = 1; k <= 3 * kKeys; ++k) source.add(k);
  std::uint64_t extract_steps = 0;
  std::uint64_t cursor = kKeys;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const auto key =
        source.extract_first_at_least(cursor, tally(extract_steps));
    ASSERT_EQ(key, std::optional<std::uint64_t>(cursor));
    cursor = *key + 1;
  }
  EXPECT_LE(extract_steps, 2 * kKeys);
  EXPECT_LE(extract_steps, kKeys / 4);  // ~1,000 / 7 leaves drained
  EXPECT_EQ(source.first_at_least(kKeys), std::optional(2 * kKeys));

  // The target already holds keys on both sides of the incoming range.
  runtime::Vault target_vault(1, 16u << 20);
  VaultIndex target(target_vault, 0, kWidestKeyMax);
  for (std::uint64_t k = 1; k < kKeys; ++k) target.add(k);
  for (std::uint64_t k = 2 * kKeys; k <= 3 * kKeys; ++k) target.add(k);
  VaultIndex::InsertCursor finger;
  std::uint64_t insert_steps = 0;
  for (std::uint64_t k = kKeys; k < 2 * kKeys; ++k) {
    ASSERT_TRUE(target.insert_ascending(finger, k, tally(insert_steps)));
  }
  EXPECT_LE(insert_steps, 2 * kKeys);
  EXPECT_LE(insert_steps, kKeys / 4);
  EXPECT_EQ(target.size(), 3 * kKeys);
}

TEST(VaultIndex, DifferentialAgainstStdSetThroughGrowthAndCollapse) {
  runtime::Vault vault(0, 16u << 20);
  VaultIndex index(vault, 0, kWidestKeyMax);
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(5);
  const auto check_first_at_least = [&](std::uint64_t key) {
    const auto it = reference.lower_bound(key);
    const std::optional<std::uint64_t> want =
        it == reference.end() ? std::nullopt : std::optional(*it);
    ASSERT_EQ(index.first_at_least(key), want) << key;
  };
  // Grow past three inner levels while mixing in removes.
  while (index.height() < 5) {
    const std::uint64_t key = 1 + rng.next_below(1u << 16);
    if (rng.next_below(4) == 0) {
      ASSERT_EQ(index.remove(key), reference.erase(key) > 0) << key;
    } else {
      ASSERT_EQ(index.add(key), reference.insert(key).second) << key;
    }
  }
  ASSERT_EQ(index.size(), reference.size());
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = 1 + rng.next_below(1u << 16);
    ASSERT_EQ(index.contains(key), reference.count(key) > 0) << key;
    check_first_at_least(key);
  }
  // Empty a middle band: its leaves are freed, and first_at_least from
  // inside the band must cross them to the next live key.
  std::uint64_t leaf_frees = 0;
  std::uint64_t cascades = 0;
  const auto erase = [&](std::uint64_t key) {
    const std::uint64_t blocks = vault.live_blocks();
    ASSERT_EQ(index.remove(key), reference.erase(key) > 0) << key;
    leaf_frees += vault.live_blocks() < blocks;
    cascades += vault.live_blocks() + 1 < blocks;
  };
  for (std::uint64_t key = 20000; key < 30000; ++key) erase(key);
  EXPECT_GT(leaf_frees, 0u);
  for (std::uint64_t key = 19990; key < 30010; key += 7) {
    check_first_at_least(key);
  }
  // Drain: half in random order, then the rest by an extraction sweep,
  // until one root leaf is left.
  std::vector<std::uint64_t> rest(reference.begin(), reference.end());
  for (std::size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.next_below(i)]);
  }
  rest.resize(rest.size() / 2);
  std::uint64_t collapses = 0;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const int height = index.height();
    erase(rest[i]);
    collapses += index.height() < height;
    if (i % 64 == 0) {
      check_first_at_least(rest[i]);
      ASSERT_EQ(index.contains(rest[i]), false);
    }
  }
  std::uint64_t cursor = 0;
  while (!reference.empty()) {
    const int height = index.height();
    const auto key = index.extract_first_at_least(cursor);
    ASSERT_EQ(key, std::optional(*reference.begin()));
    reference.erase(reference.begin());
    collapses += index.height() < height;
    cursor = *key + 1;
  }
  EXPECT_EQ(index.extract_first_at_least(0), std::nullopt);
  EXPECT_GT(cascades, 0u);
  EXPECT_GT(collapses, 0u);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.height(), 1);
  EXPECT_EQ(vault.live_blocks(), 1u);  // the root leaf
  EXPECT_EQ(index.first_at_least(0), std::nullopt);
}

// ------------------------------------------- VaultIndex key windows

/// perfbench's skip-list domain, [1, 2^17]: kMaxWindows equal windows, of
/// which vault 0 owns the lower half.
constexpr std::uint64_t kBenchKeyMax = std::uint64_t{1} << 17;

TEST(WindowedVaultIndex, ContainsChargesExactlyItsWindowsHeight) {
  runtime::Vault vault(0, 16u << 20);
  VaultIndex index(vault, 1, kBenchKeyMax);
  ASSERT_EQ(index.windows(), VaultIndex::kMaxWindows);
  ASSERT_EQ(kBenchKeyMax % index.windows(), 0u);
  const std::uint64_t width = kBenchKeyMax / index.windows();
  ASSERT_EQ(index.window_start(1), 1 + width);
  // Vault 0's half, [1, 2^16], at ~31 of a window's 32 keys: a window
  // that holds all 32 outgrows its root leaf.
  fill_uniform(index, VaultIndex::kLeafKeys * (index.windows() / 2), 1);
  Xoshiro256 rng(2);
  constexpr int kProbes = 4000;
  std::uint64_t total = 0;
  for (int i = 0; i < kProbes; ++i) {
    const std::uint64_t key = 1 + rng.next_below(1u << 16);
    std::uint64_t steps = 0;
    index.contains(key, tally(steps));
    ASSERT_EQ(steps, static_cast<std::uint64_t>(index.height(key))) << key;
    total += steps;
  }
  // One tree over the vault is 5 levels here; a window's is 1 or 2.
  EXPECT_GT(total, static_cast<std::uint64_t>(kProbes));
  EXPECT_LT(static_cast<double>(total) / kProbes, 2.0);
  EXPECT_EQ(index.height(), 2);
}

TEST(WindowedVaultIndex, SkewedWriteMixReadsOneNodePerOp) {
  // perfbench skiplist_skew_write's mix through one index over its domain:
  // a 16,384-key uniform prefill, then 25% add, 25% remove and 50%
  // contains on Zipf(0.99) keys, rank 0 on key 1. The hot windows peak
  // below a 31-key leaf, so no window grows a second level and every op,
  // update or not, reads its window's root leaf and nothing else.
  runtime::Vault vault(0, 16u << 20);
  VaultIndex index(vault, 1, kBenchKeyMax);
  Xoshiro256 rng(1);
  while (index.size() < 16384) index.add(1 + rng.next_below(kBenchKeyMax));
  const ZipfGenerator zipf(kBenchKeyMax, 0.99);
  constexpr std::uint64_t kOps = 500000;
  std::uint64_t reads = 0;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    const std::uint64_t pick = rng.next_below(100);
    const std::uint64_t key = 1 + zipf.next(rng);
    index.execute(pick < 25   ? core::SetOp::kAdd
                  : pick < 50 ? core::SetOp::kRemove
                              : core::SetOp::kContains,
                  key, tally(reads));
  }
  EXPECT_EQ(reads, kOps);
  EXPECT_EQ(index.height(), 1);
}

/// True if `bytes` bytes from `p` all read zero.
bool all_zero(const void* p, std::size_t bytes) {
  const auto* b = static_cast<const unsigned char*>(p);
  return std::all_of(b, b + bytes, [](unsigned char c) { return c == 0; });
}

TEST(WindowedVaultIndex, ZeroRegionIsAnEmptyIndex) {
  runtime::Vault vault(0, 16u << 20);
  VaultIndex index(vault, 1, kBenchKeyMax);
  constexpr std::size_t kNode = VaultIndex::kNodeBytes;
  const std::uint32_t windows = index.windows();
  // The root region is the fresh vault's only block, at the arena base.
  ASSERT_EQ(vault.allocs(), 1u);
  ASSERT_EQ(vault.bytes_used(), windows * kNode);
  const auto* region = static_cast<const unsigned char*>(vault.at_offset(0));
  ASSERT_TRUE(all_zero(region, windows * kNode));
  for (std::uint32_t w = 0; w < windows; ++w) {
    std::uint64_t steps = 0;
    ASSERT_FALSE(index.contains(index.window_start(w), tally(steps))) << w;
    ASSERT_EQ(steps, 1u) << w;
  }
  EXPECT_EQ(index.first_at_least(0), std::nullopt);
  EXPECT_EQ(index.size(), 0u);

  const std::uint32_t w = windows / 2;
  ASSERT_TRUE(index.add(index.window_start(w) + 1));
  EXPECT_FALSE(all_zero(region + w * kNode, kNode));
  EXPECT_TRUE(all_zero(region, w * kNode));
  EXPECT_TRUE(all_zero(region + (w + 1) * kNode, (windows - w - 1) * kNode));
  EXPECT_EQ(index.first_at_least(0),
            std::optional(index.window_start(w) + 1));
  EXPECT_EQ(vault.allocs(), 1u);  // the key fit in the window's root leaf

  // A region small enough for a recycled block still starts zeroed.
  runtime::Vault used(1, 1u << 16);
  void* stale = used.allocate(kNode, alignof(std::max_align_t));
  std::fill_n(static_cast<unsigned char*>(stale), kNode, 0xff);
  used.deallocate(stale, kNode, alignof(std::max_align_t));
  VaultIndex one(used, 7, 7);
  ASSERT_EQ(one.windows(), 1u);
  EXPECT_FALSE(one.contains(7));
  EXPECT_EQ(one.first_at_least(0), std::nullopt);
  EXPECT_TRUE(one.add(7));
  EXPECT_EQ(one.first_at_least(0), std::optional<std::uint64_t>(7));
}

TEST(WindowedVaultIndex, WindowEdgesStoreOffsetsAndReturnAbsoluteKeys) {
  // The widest domain, high in the key space: every window spans 2^32
  // keys, so a window's last key sits at the largest 32-bit offset.
  runtime::Vault vault(0, 16u << 20);
  const std::uint64_t key_min = std::uint64_t{1} << 60;
  const std::uint64_t key_max = key_min + VaultIndex::kMaxKeySpan - 1;
  VaultIndex index(vault, key_min, key_max);
  ASSERT_EQ(index.windows(), VaultIndex::kMaxWindows);
  ASSERT_EQ(index.window_start(0), key_min);
  ASSERT_EQ(index.window_start(1) - index.window_start(0),
            VaultIndex::kMaxWindowKeys);
  const auto window_end = [&](std::uint32_t w) {
    return w + 1 < index.windows() ? index.window_start(w + 1) - 1 : key_max;
  };
  ASSERT_EQ(window_end(index.windows() - 1), key_max);
  // Both edges of windows 0, 1 and the last; windows 2 to last - 1 empty.
  std::vector<std::uint64_t> keys;
  for (const std::uint32_t w : {0u, 1u, index.windows() - 1}) {
    for (const std::uint64_t key :
         {index.window_start(w), index.window_start(w) + 1, window_end(w) - 1,
          window_end(w)}) {
      std::uint64_t steps = 0;
      ASSERT_TRUE(index.add(key, tally(steps))) << key;
      ASSERT_EQ(steps, 1u) << key;
      keys.push_back(key);
    }
  }
  for (const std::uint64_t key : keys) ASSERT_TRUE(index.contains(key)) << key;
  for (const std::uint32_t w : {0u, 1u, 2u, index.windows() - 1}) {
    ASSERT_FALSE(index.contains(index.window_start(w) + 2)) << w;
    ASSERT_FALSE(index.contains(window_end(w) - 2)) << w;
  }
  // A scan hands back absolute keys and crosses window edges and the empty
  // windows between window 1 and the last.
  std::vector<std::uint64_t> scanned;
  for (std::uint64_t cursor = 0;;) {
    const auto next = index.first_at_least(cursor);
    if (!next.has_value()) break;
    scanned.push_back(*next);
    cursor = *next + 1;
  }
  EXPECT_EQ(scanned, keys);
  EXPECT_EQ(index.first_at_least(window_end(1) + 1),
            std::optional(index.window_start(index.windows() - 1)));

  // Keys outside the domain. Below key_min is the first window's side and
  // above key_max the last's: a lookup misses at the charge of a miss
  // there, though the saturated offset matches a stored edge key.
  for (std::uint64_t key = key_min; index.height(key_min) == 1; ++key) {
    index.add(key + 2);
  }
  const int first_height = index.height(key_min);
  for (const std::uint64_t outside :
       {std::uint64_t{0}, key_min - 1, key_max + 1, ~std::uint64_t{0}}) {
    const int height = outside < key_min ? first_height : 1;
    std::uint64_t steps = 0;
    EXPECT_FALSE(index.contains(outside, tally(steps))) << outside;
    EXPECT_EQ(steps, static_cast<std::uint64_t>(height)) << outside;
    steps = 0;
    EXPECT_FALSE(index.remove(outside, tally(steps))) << outside;
    EXPECT_EQ(steps, static_cast<std::uint64_t>(height)) << outside;
  }
  const std::size_t size = index.size();
#ifdef NDEBUG
  // add asserts its key is inside; without asserts it inserts nothing.
  EXPECT_FALSE(index.add(key_min - 1));
  EXPECT_FALSE(index.add(key_max + 1));
#endif
  EXPECT_EQ(index.size(), size);
  EXPECT_TRUE(index.contains(key_min));
  EXPECT_TRUE(index.contains(key_max));
  // A scan from below key_min starts at it; one past key_max finds none.
  EXPECT_EQ(index.first_at_least(0), std::optional(key_min));
  EXPECT_EQ(index.first_at_least(key_max), std::optional(key_max));
  EXPECT_EQ(index.first_at_least(key_max + 1), std::nullopt);
  EXPECT_EQ(index.extract_first_at_least(key_max + 1), std::nullopt);
  EXPECT_EQ(index.size(), size);
  // An extraction sweep drains in ascending absolute order.
  std::set<std::uint64_t> want;
  for (std::uint64_t cursor = 0;;) {
    const auto next = index.first_at_least(cursor);
    if (!next.has_value()) break;
    want.insert(*next);
    cursor = *next + 1;
  }
  std::vector<std::uint64_t> drained;
  for (std::uint64_t cursor = 0;;) {
    const auto next = index.extract_first_at_least(cursor);
    if (!next.has_value()) break;
    drained.push_back(*next);
    cursor = *next + 1;
  }
  EXPECT_EQ(drained, std::vector<std::uint64_t>(want.begin(), want.end()));
  EXPECT_EQ(index.size(), 0u);

  // A span 4,096 does not divide: windows round up to 11 keys, so the
  // last of the 3,724 windows holds the 10 left over.
  runtime::Vault narrow_vault(1, 4u << 20);
  const std::uint64_t lo = 5;
  const std::uint64_t hi = lo + 4096 * 10 + 2;
  VaultIndex narrow(narrow_vault, lo, hi);
  ASSERT_EQ(narrow.windows(), 3724u);
  ASSERT_EQ(narrow.window_start(1), lo + 11);
  const std::uint64_t last = narrow.window_start(narrow.windows() - 1);
  ASSERT_EQ(hi - last + 1, 10u);
  for (const std::uint64_t key : {lo, last - 1, last, hi}) {
    ASSERT_TRUE(narrow.add(key)) << key;
  }
  EXPECT_EQ(narrow.first_at_least(lo + 1), std::optional(last - 1));
  EXPECT_EQ(narrow.first_at_least(last + 1), std::optional(hi));
  EXPECT_EQ(narrow.first_at_least(hi + 1), std::nullopt);
  EXPECT_FALSE(narrow.contains(hi + 1));
  EXPECT_EQ(narrow.extract_first_at_least(last), std::optional(last));
  EXPECT_EQ(narrow.extract_first_at_least(last), std::optional(hi));
  EXPECT_EQ(narrow.extract_first_at_least(last), std::nullopt);

  // A window may span at most 2^32 keys.
  runtime::Vault spare(2, 1u << 20);
  EXPECT_NO_THROW(VaultIndex(spare, 1, VaultIndex::kMaxKeySpan));
  EXPECT_THROW(VaultIndex(spare, 0, VaultIndex::kMaxKeySpan),
               std::invalid_argument);
  EXPECT_THROW(VaultIndex(spare, 0, ~std::uint64_t{0}), std::invalid_argument);
  EXPECT_THROW(VaultIndex(spare, 10, 9), std::invalid_argument);
}

TEST(WindowedVaultIndex, ClusteredKeysChargeWhatOneWholeDomainTreeCharges) {
  runtime::Vault windowed_vault(0, 16u << 20);
  VaultIndex windowed(windowed_vault, 1, kBenchKeyMax);
  runtime::Vault whole_vault(1, 16u << 20);
  VaultIndex whole(whole_vault, 0, kWidestKeyMax);  // one tree below 2^32
  const std::uint64_t lo = windowed.window_start(5);
  const std::uint64_t span = windowed.window_start(6) - lo;
  Xoshiro256 rng(4);
  int splits = 0;
  int collapses = 0;
  const auto same = [&](int op, std::uint64_t key) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    const int height = whole.height();
    if (op == 0) {
      ASSERT_EQ(windowed.add(key, tally(a)), whole.add(key, tally(b))) << key;
    } else if (op == 1) {
      ASSERT_EQ(windowed.remove(key, tally(a)), whole.remove(key, tally(b)))
          << key;
    } else {
      ASSERT_EQ(windowed.contains(key, tally(a)),
                whole.contains(key, tally(b)))
          << key;
    }
    ASSERT_EQ(a, b) << "op " << op << " key " << key;
    ASSERT_EQ(windowed.height(key), whole.height());
    splits += whole.height() > height;
    collapses += whole.height() < height;
  };
  // Grow the window's tree to its fullest, then shrink it, so roots split
  // and collapse on both sides.
  for (int add_share : {3, 0}) {
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t key = lo + rng.next_below(span);
      const int dice = static_cast<int>(rng.next_below(4));
      same(dice < add_share ? 0 : dice == 3 ? 2 : 1, key);
    }
  }
  EXPECT_GT(splits, 0);
  EXPECT_GT(collapses, 0);
  for (std::uint64_t key = lo; key < lo + span; key += 2) same(0, key);
  // A migration sweep out of the window, and back in through a finger.
  std::vector<std::uint64_t> moved;
  for (std::uint64_t cursor = lo;;) {
    const auto next = windowed.first_at_least(cursor);
    ASSERT_EQ(next, whole.first_at_least(cursor));
    if (!next.has_value()) break;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    ASSERT_EQ(windowed.extract_first_at_least(cursor, tally(a)),
              whole.extract_first_at_least(cursor, tally(b)));
    ASSERT_EQ(a, b) << *next;
    moved.push_back(*next);
    cursor = *next + 1;
  }
  VaultIndex::InsertCursor windowed_finger;
  VaultIndex::InsertCursor whole_finger;
  for (const std::uint64_t key : moved) {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    ASSERT_TRUE(windowed.insert_ascending(windowed_finger, key, tally(a)));
    ASSERT_TRUE(whole.insert_ascending(whole_finger, key, tally(b)));
    ASSERT_EQ(a, b) << key;
  }
  EXPECT_EQ(windowed.size(), whole.size());
}

TEST(WindowedVaultIndex, DifferentialAgainstStdSetAcrossManyWindows) {
  runtime::Vault vault(0, 32u << 20);
  // 1,024-key windows: ~625 keys each at the fill below, past the ~350 a
  // window takes to grow a third level.
  VaultIndex index(vault, 1, 1u << 22);
  const std::uint64_t width = index.window_start(1) - index.window_start(0);
  std::set<std::uint64_t> reference;
  Xoshiro256 rng(6);
  constexpr std::uint64_t kKeys = 1u << 16;  // the lowest kKeys / width windows
  std::uint64_t splits = 0;
  std::uint64_t collapses = 0;
  const auto apply = [&](bool add, std::uint64_t key) {
    const int height = index.height(key);
    std::uint64_t steps = 0;
    if (add) {
      ASSERT_EQ(index.add(key, tally(steps)), reference.insert(key).second)
          << key;
      ASSERT_GE(steps, static_cast<std::uint64_t>(height));
    } else {
      ASSERT_EQ(index.remove(key, tally(steps)), reference.erase(key) > 0)
          << key;
      // The descent, plus one read per collapsed child off the path.
      ASSERT_EQ(steps, static_cast<std::uint64_t>(
                           height + height - index.height(key)))
          << key;
    }
    splits += index.height(key) > height;
    collapses += index.height(key) < height;
  };
  const auto check = [&](std::uint64_t key) {
    std::uint64_t steps = 0;
    ASSERT_EQ(index.contains(key, tally(steps)), reference.count(key) > 0)
        << key;
    ASSERT_EQ(steps, static_cast<std::uint64_t>(index.height(key)));
    const auto it = reference.lower_bound(key);
    const std::optional<std::uint64_t> want =
        it == reference.end() ? std::nullopt : std::optional(*it);
    ASSERT_EQ(index.first_at_least(key), want) << key;
  };
  // Grow every window to three levels while mixing in removes.
  while (reference.size() < 40000) {
    apply(rng.next_below(4) != 0, 1 + rng.next_below(kKeys));
  }
  EXPECT_EQ(index.height(), 3);
  ASSERT_EQ(index.size(), reference.size());
  EXPECT_GE(splits, 2 * (kKeys / width));  // two root splits per window
  for (int i = 0; i < 3000; ++i) check(1 + rng.next_below(kKeys + 4096));
  // Empty windows 20-29: first_at_least must cross them.
  for (std::uint64_t key = index.window_start(20);
       key < index.window_start(30); ++key) {
    apply(false, key);
  }
  for (std::uint64_t key = index.window_start(19);
       key < index.window_start(31); key += 97) {
    check(key);
  }
  // Drain in random order until every window is one empty root leaf.
  std::vector<std::uint64_t> rest(reference.begin(), reference.end());
  for (std::size_t i = rest.size(); i > 1; --i) {
    std::swap(rest[i - 1], rest[rng.next_below(i)]);
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    apply(false, rest[i]);
    if (i % 97 == 0) check(rest[i]);
  }
  EXPECT_GT(collapses, 0u);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.height(), 1);
  EXPECT_EQ(vault.live_blocks(), 1u);  // the root region
  EXPECT_EQ(index.first_at_least(0), std::nullopt);
}

TEST(WindowedVaultIndex, MigrationHelpersSweepAcrossWindowsIncludingEmptyOnes) {
  runtime::Vault source_vault(0, 16u << 20);
  VaultIndex source(source_vault, 1, 1u << 18);
  const std::uint64_t width = source.window_start(1) - source.window_start(0);
  constexpr std::uint32_t kFirst = 10;
  const std::uint64_t lo = source.window_start(kFirst);
  const std::uint64_t hi = source.window_start(kFirst + 5);
  // Windows kFirst + 2 and kFirst + 3 stay empty; the neighbors outside
  // [lo, hi) are full and must stay put.
  const auto in_sweep = [&](std::uint64_t key) {
    return key >= lo && key < hi &&
           (key < source.window_start(kFirst + 2) ||
            key >= source.window_start(kFirst + 4));
  };
  std::vector<std::uint64_t> expected;
  for (std::uint64_t key = source.window_start(kFirst - 1);
       key < source.window_start(kFirst + 6); ++key) {
    if (key >= lo && key < hi && !in_sweep(key)) continue;
    source.add(key);
    if (in_sweep(key)) expected.push_back(key);
  }
  ASSERT_EQ(expected.size(), 3 * width);
  std::vector<std::uint64_t> moved;
  std::uint64_t extract_steps = 0;
  for (std::uint64_t cursor = lo;;) {
    const auto next = source.first_at_least(cursor);
    if (!next.has_value() || *next >= hi) break;
    ASSERT_EQ(source.extract_first_at_least(cursor, tally(extract_steps)),
              next);
    moved.push_back(*next);
    cursor = *next + 1;
  }
  EXPECT_EQ(moved, expected);
  EXPECT_LE(extract_steps, moved.size() / 4);
  EXPECT_EQ(source.size(), 2 * width);
  EXPECT_EQ(source.first_at_least(lo), std::optional(hi));
  for (std::uint32_t w = kFirst; w < kFirst + 5; ++w) {
    EXPECT_EQ(source.height(source.window_start(w)), 1) << w;
  }

  // The target holds the full windows on both sides of the incoming range.
  runtime::Vault target_vault(1, 16u << 20);
  VaultIndex target(target_vault, 1, 1u << 18);
  for (std::uint64_t key = source.window_start(kFirst - 1); key < lo; ++key) {
    target.add(key);
  }
  for (std::uint64_t key = hi; key < source.window_start(kFirst + 6); ++key) {
    target.add(key);
  }
  VaultIndex::InsertCursor finger;
  std::uint64_t insert_steps = 0;
  for (const std::uint64_t key : moved) {
    ASSERT_TRUE(target.insert_ascending(finger, key, tally(insert_steps)));
  }
  EXPECT_LE(insert_steps, moved.size() / 4);
  EXPECT_EQ(target.size(), 5 * width);
  for (std::uint64_t key = source.window_start(kFirst - 1);
       key < source.window_start(kFirst + 6); ++key) {
    ASSERT_EQ(target.contains(key), key < lo || key >= hi || in_sweep(key))
        << key;
  }
}

// ------------------------------------------ SkipListVault (Sec. 4.2.1)

/// Two vaults' shared state for SkipListVault's context: per-vault FIFO
/// inboxes of core-to-core signals, the replies, the directory and the
/// load map. Requesters are plain ids.
struct SkipListBus {
  using Signal = core::SkipListSignal<int>;
  struct Mail {
    std::size_t from;
    Signal signal;
  };
  struct Reply {
    int who;
    core::SkipListReply reply;
  };

  std::deque<Mail> inbox[2];
  std::vector<Reply> replies;
  SentinelDirectory dir{{{1, 0}, {1000, 1}}};
  obs::LoadMap load{[] {
    obs::LoadMap::Options o;
    o.num_vaults = 2;
    o.key_min = 1;
    o.key_max = 1999;
    return o;
  }()};
  int migrations_done = 0;
};

struct FakeSkipListCtx {
  SkipListBus& bus;
  std::size_t vault;

  std::size_t self() const { return vault; }
  void send(std::size_t to, const SkipListBus::Signal& s) {
    bus.inbox[to].push_back({vault, s});
  }
  void charge(std::uint64_t) {}
  void reply(int who, core::SkipListReply r) {
    bus.replies.push_back({who, r});
  }
  void record(std::uint64_t key) { bus.load.record(vault, key); }
  void publish_range(std::uint64_t lo, std::size_t to) {
    bus.dir.move_range(lo, to);
  }
  void migration_done() { ++bus.migrations_done; }
};

TEST(SkipListVault, EachOpCountsOnceThroughForwardDeferAndReject) {
  using Handler = core::SkipListVault<VaultIndex, int>;
  using Kind = SkipListBus::Signal::Kind;
  runtime::Vault memory0(0, 1u << 20);
  runtime::Vault memory1(1, 1u << 20);
  Handler source(2, core::NoMigrationFault{}, memory0, 1, 1999);
  Handler target(2, core::NoMigrationFault{}, memory1, 1, 1999);
  Handler* at[2] = {&source, &target};
  SkipListBus bus;
  Handler::assign_initial(bus.dir,
                          [&](std::size_t v) -> Handler& { return *at[v]; });
  FakeSkipListCtx ctx0{bus, 0};
  FakeSkipListCtx ctx1{bus, 1};
  const auto deliver = [&](Kind expected) {
    ASSERT_FALSE(bus.inbox[1].empty());
    const SkipListBus::Mail mail = bus.inbox[1].front();
    bus.inbox[1].pop_front();
    ASSERT_EQ(mail.signal.kind, expected);
    target.receive(ctx1, mail.from, mail.signal);
  };
  const auto last_reply = [&] { return bus.replies.back(); };

  for (std::uint64_t key = 100; key <= 600; key += 100) {
    source.request(ctx0, core::SetOp::kAdd, key, 0);
  }
  source.start_migration(ctx0, 300, 1000, 1, -1);
  EXPECT_TRUE(last_reply().reply.accepted);
  source.step_migration(ctx0);  // moves 300 and 400 (chunk of 2)

  // Moved key at the source: forwarded. Unmoved key: served there.
  source.request(ctx0, core::SetOp::kContains, 300, 1);
  source.request(ctx0, core::SetOp::kContains, 500, 2);
  EXPECT_EQ(last_reply().who, 2);
  EXPECT_TRUE(last_reply().reply.result);
  // The target does not own the range yet: rejected.
  target.request(ctx1, core::SetOp::kContains, 350, 3);
  EXPECT_EQ(last_reply().who, 3);
  EXPECT_FALSE(last_reply().reply.accepted);

  deliver(Kind::kMigBegin);
  // A direct request for the incoming range waits for kMigEnd.
  const std::size_t replies_before = bus.replies.size();
  target.request(ctx1, core::SetOp::kAdd, 450, 4);
  EXPECT_EQ(bus.replies.size(), replies_before);
  deliver(Kind::kMigNode);
  deliver(Kind::kMigNode);
  deliver(Kind::kForward);
  EXPECT_EQ(last_reply().who, 1);
  EXPECT_TRUE(last_reply().reply.result);

  source.step_migration(ctx0);  // moves 500 and 600
  source.step_migration(ctx0);  // nothing left: hand-over
  EXPECT_FALSE(source.migrating_out());
  EXPECT_EQ(bus.dir.route(300), 1u);
  deliver(Kind::kMigNode);
  deliver(Kind::kMigNode);
  deliver(Kind::kMigEnd);
  EXPECT_TRUE(bus.inbox[1].empty());
  EXPECT_EQ(bus.migrations_done, 1);
  EXPECT_EQ(last_reply().who, 4);
  EXPECT_TRUE(last_reply().reply.result);
  // The rejected request, retried, executes at its new owner.
  target.request(ctx1, core::SetOp::kContains, 350, 3);
  EXPECT_TRUE(last_reply().reply.accepted);
  EXPECT_FALSE(last_reply().reply.result);

  // Executed: the source's 6 adds and op 2; the target's ops 1, 4 and 3.
  EXPECT_EQ(source.stats().requests.load(), 7u);
  EXPECT_EQ(target.stats().requests.load(), 3u);
  EXPECT_EQ(bus.load.vault_ops(0), 7u);
  EXPECT_EQ(bus.load.vault_ops(1), 3u);
  EXPECT_EQ(source.stats().forwarded.load(), 1u);
  EXPECT_EQ(target.stats().deferred.load(), 1u);
  EXPECT_EQ(target.stats().rejected.load(), 1u);
  EXPECT_EQ(source.stats().migrated_keys.load(), 4u);
  EXPECT_EQ(source.stats().keys.load(), 2u);  // 100 and 200
  EXPECT_EQ(target.stats().keys.load(), 5u);  // 300..600 and 450
  EXPECT_EQ(target.index().size(), 5u);
  // Every requester got exactly one accepted answer.
  std::vector<int> accepted;
  for (const SkipListBus::Reply& r : bus.replies) {
    if (r.reply.accepted) accepted.push_back(r.who);
  }
  std::sort(accepted.begin(), accepted.end());
  EXPECT_EQ(accepted,
            (std::vector<int>{-1, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}));
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
// ---------------------------------------------------------------------------
// RebalanceStep: the policy decision both AutoRebalancer and the simulator's
// active policy call, driven by hand-built reports over a 4-vault layout.
// ---------------------------------------------------------------------------

using core::RebalanceMove;
using core::RebalanceOptions;
using Report = obs::LoadMap::HotVaultReport;

constexpr std::uint64_t kStepKeyMax = 1 << 16;

/// The runtime skip list's initial layout over [1, 2^16]: vault v owns
/// [1 + v * 2^14, 1 + (v + 1) * 2^14).
SentinelDirectory step_layout() {
  return SentinelDirectory(
      SentinelDirectory::equal_ranges(1, kStepKeyMax, 4));
}

/// A window with the given per-vault ops (hot/cold/ratio as LoadMap fills
/// them); no hot keys or ranges, so a split falls back to the hot vault's
/// widest partition.
Report window(std::vector<std::uint64_t> ops) {
  Report rep;
  rep.per_vault_ops = std::move(ops);
  for (const std::uint64_t n : rep.per_vault_ops) rep.window_ops += n;
  const auto& v = rep.per_vault_ops;
  rep.hottest = static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
  rep.coldest = static_cast<std::size_t>(
      std::min_element(v.begin(), v.end()) - v.begin());
  rep.hottest_ops = v[rep.hottest];
  rep.coldest_ops = v[rep.coldest];
  rep.mean_ops = static_cast<double>(rep.window_ops) / 4.0;
  rep.imbalance_ratio =
      rep.mean_ops > 0.0 ? static_cast<double>(rep.hottest_ops) / rep.mean_ops
                         : 0.0;
  return rep;
}

/// Vault 0's widest-partition midpoint under step_layout().
constexpr std::uint64_t kVault0Mid = 1 + (1 << 14) / 2;

/// sim::RebalanceFault's two policy mutants, switchable per test.
struct PolicyMutant {
  bool thrash = false;
  bool off_by_one = false;
  bool ignore_hysteresis() const noexcept { return thrash; }
  bool split_at_hot_key() const noexcept { return off_by_one; }
};

void expect_move(const std::optional<RebalanceMove>& move,
                 std::uint64_t split, std::size_t source,
                 std::size_t target) {
  ASSERT_TRUE(move.has_value());
  EXPECT_EQ(move->split, split);
  EXPECT_EQ(move->source, source);
  EXPECT_EQ(move->target, target);
}

TEST(RebalanceStep, EnterThresholdGatesTheWindow) {
  const SentinelDirectory dir = step_layout();
  core::RebalanceStep<> step(RebalanceOptions{});  // enter 2.0, floor 100
  // 190 of 400 ops: ratio 1.9, below ENTER.
  EXPECT_FALSE(step.decide(window({190, 90, 70, 50}), dir, kStepKeyMax, false));
  // 200 of 400 ops: ratio 2.0 is at ENTER, so vault 0 sheds the upper half
  // of its partition to the coldest vault.
  expect_move(step.decide(window({200, 100, 60, 40}), dir, kStepKeyMax, false),
              kVault0Mid, 0, 3);
  EXPECT_EQ(step.migrations(), 0u) << "a decision is not a migration";
}

TEST(RebalanceStep, NoiseFloorSkipsSmallWindows) {
  const SentinelDirectory dir = step_layout();
  RebalanceOptions opts;
  opts.min_window_ops = 100;
  core::RebalanceStep<> step(opts);
  // Ratio 3.2, but 50 ops is noise.
  EXPECT_FALSE(step.decide(window({40, 4, 3, 3}), dir, kStepKeyMax, false));
  expect_move(step.decide(window({80, 8, 6, 6}), dir, kStepKeyMax, false),
              kVault0Mid, 0, 2);
  // Balanced or empty windows never trigger.
  EXPECT_FALSE(step.decide(window({0, 0, 0, 0}), dir, kStepKeyMax, false));
  EXPECT_FALSE(step.decide(window({50, 50, 50, 50}), dir, kStepKeyMax, false));
}

TEST(RebalanceStep, CooldownBarsARecentSourceAndTicksDown) {
  const SentinelDirectory dir = step_layout();
  RebalanceOptions opts;
  opts.cooldown_periods = 3;
  core::RebalanceStep<> step(opts);
  const Report hot0 = window({300, 50, 30, 20});
  const auto move = step.decide(hot0, dir, kStepKeyMax, false);
  ASSERT_TRUE(move.has_value());
  step.migrated(*move);
  EXPECT_EQ(step.migrations(), 1u);
  // Each window ticks the cooldown down first: 3 -> 2 -> 1 bar vault 0 for
  // two windows, the third finds it at 0.
  EXPECT_FALSE(step.decide(hot0, dir, kStepKeyMax, false));
  // Another hot vault is not barred meanwhile (vault 1 owns
  // [2^14 + 1, 2^15 + 1)).
  expect_move(step.decide(window({50, 300, 30, 20}), dir, kStepKeyMax, false),
              (1 << 14) + 1 + (1 << 13), 1, 3);
  expect_move(step.decide(hot0, dir, kStepKeyMax, false), kVault0Mid, 0, 3);
}

TEST(RebalanceStep, BusyIsANoOp) {
  const SentinelDirectory dir = step_layout();
  RebalanceOptions opts;
  opts.cooldown_periods = 0;
  core::RebalanceStep<> step(opts);
  const Report hot0 = window({300, 50, 30, 20});
  EXPECT_FALSE(step.decide(hot0, dir, kStepKeyMax, /*migration_busy=*/true))
      << "one migration at a time";
  EXPECT_TRUE(step.decide(hot0, dir, kStepKeyMax, false).has_value());
}

TEST(RebalanceStep, ThrashFaultIgnoresThresholdAndCooldown) {
  const SentinelDirectory dir = step_layout();
  RebalanceOptions opts;
  opts.cooldown_periods = 5;
  core::RebalanceStep<PolicyMutant> clean(opts);
  core::RebalanceStep<PolicyMutant> thrash(opts, PolicyMutant{true, false});
  // Ratio 1.2: below ENTER.
  const Report mild = window({120, 100, 100, 80});
  EXPECT_FALSE(clean.decide(mild, dir, kStepKeyMax, false));
  const auto move = thrash.decide(mild, dir, kStepKeyMax, false);
  expect_move(move, kVault0Mid, 0, 3);
  thrash.migrated(*move);
  // The source's cooldown does not hold the mutant back either.
  EXPECT_TRUE(thrash.decide(mild, dir, kStepKeyMax, false).has_value());
  // The noise floor and the one-at-a-time guard still hold.
  EXPECT_FALSE(thrash.decide(window({12, 10, 10, 8}), dir, kStepKeyMax, false));
  EXPECT_FALSE(thrash.decide(mild, dir, kStepKeyMax, true));
}

TEST(RebalanceStep, SplitOffByOneFaultSplitsAtTheHotKey) {
  const SentinelDirectory dir = step_layout();
  using Step = core::RebalanceStep<PolicyMutant>;
  const PolicyMutant off_by_one{false, true};
  Report rep = window({900, 50, 30, 20});
  rep.hot_keys = {{/*key=*/777, /*count=*/600}, {778, 200}, {12, 100}};
  EXPECT_EQ(Step::suggest_split(rep, 0, dir, kStepKeyMax), 778u)
      << "clean: the dominant key's successor";
  EXPECT_EQ(Step::suggest_split(rep, 0, dir, kStepKeyMax, off_by_one), 777u)
      << "mutant: the dominant key itself";
  // A dominant key at its partition's sentinel: the mutant's split is the
  // whole partition, hot key included; the clean split keeps the key.
  rep.hot_keys = {{/*key=*/1, /*count=*/600}, {2, 200}};
  EXPECT_EQ(Step::suggest_split(rep, 0, dir, kStepKeyMax), 2u);
  Step mutant(RebalanceOptions{}, off_by_one);
  expect_move(mutant.decide(rep, dir, kStepKeyMax, false), 1, 0, 3);
}

TEST(RebalanceStep, SuggestSplitIsolatesADominantTopKey) {
  // When ONE key dominates the hot vault's sketch, the split must be that
  // key's SUCCESSOR (isolating the hot key), not a midpoint that relocates
  // or keeps the entire hot spot. The mutant that splits AT the hot key is
  // kSplitOffByOne (above).
  const SentinelDirectory dir = step_layout();
  using Step = core::RebalanceStep<>;

  Report rep;
  rep.window_ops = 1000;
  rep.hottest = 0;
  rep.coldest = 3;
  rep.hot_keys = {{/*key=*/777, /*count=*/600},
                  {/*key=*/778, /*count=*/200},
                  {/*key=*/12, /*count=*/100}};
  rep.hot_ranges = {{/*lo=*/512, /*hi=*/1023, /*ops=*/900}};
  EXPECT_EQ(Step::suggest_split(rep, /*hot=*/0, dir, kStepKeyMax), 778u)
      << "dominant top key (600 >= half of 900 tracked) -> successor split";

  // No dominance (top key holds < half the tracked mass): fall back to the
  // hottest owned range's midpoint.
  rep.hot_keys = {{777, 300}, {5000, 290}, {12, 280}};
  EXPECT_EQ(Step::suggest_split(rep, 0, dir, kStepKeyMax),
            512u + (1023u - 512u) / 2)
      << "no dominant key -> hottest-range midpoint";

  // Dominant key owned by ANOTHER vault: rule 1 must not fire for vault 0;
  // with the hot range also outside vault 0, fall through to the widest
  // partition midpoint.
  rep.hot_keys = {{/*key=*/(1u << 15) + 9, /*count=*/600}, {778, 200}};
  rep.hot_ranges = {{/*lo=*/1u << 15, /*hi=*/(1u << 15) + 1023, /*ops=*/900}};
  const auto parts = dir.snapshot();
  ASSERT_GE(parts.size(), 2u);
  const std::uint64_t p_lo = parts[0].sentinel;  // vault 0's only partition
  const std::uint64_t p_hi = parts[1].sentinel;
  EXPECT_EQ(Step::suggest_split(rep, 0, dir, kStepKeyMax),
            p_lo + (p_hi - p_lo) / 2)
      << "foreign hot key/range -> widest owned partition midpoint";
}

TEST(QueueVault, ScriptedRunFollowsAlgorithmOne) {
  FakeQueueWorld world;
  obs::Registry::instance().reset();
  core::QueueMetrics metrics("test.queue");
  const FakeVault::Config config{.num_vaults = 2, .segment_threshold = 2,
                                 .enqueue_combining = true};
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
  const FakeVault::Config config{.enqueue_combining = false};
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

/// A fat node holds one enqueue group, split every kFatNodeCapacity (8)
/// values. A dequeue batch pays one access per fat node it reads from,
/// including one that an earlier batch began, and answers each fat node's
/// values together once it is read.
TEST(QueueVault, DequeuesPayForEachFatNodeTheyRead) {
  static_assert(FakeVault::kFatNodeCapacity == 8);
  FakeQueueWorld world;
  core::QueueMetrics metrics("test.queue");
  FakeVault vault(FakeVault::Config{}, metrics);
  FakeQueueCtx ctx{world, 0};
  FakeVault::prefill(
      0, [&](std::size_t) -> FakeVault& { return vault; },
      [&](std::size_t) { return FakeQueueCtx{world, 0}; });

  // Groups {1,2}, {3,4} and {5..14}: fat nodes [1,2] [3,4] [5..12] [13,14].
  int r = 1;  // request numbers; the i-th enqueue carries value i
  for (const int group : {2, 2, 10}) {
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
  dequeue_batch(9);  // 4 | 5 .. 12
  dequeue_batch(3);  // 13 14, then empty
  EXPECT_EQ(ctx.charges, (std::vector<std::uint64_t>(5, 1)))
      << "five fat node reads for fourteen values";
  EXPECT_EQ(ctx.responses,
            (std::vector<Response>{{{15, value(1)}, {16, value(2)}},
                                   {{17, value(3)}},
                                   {{18, value(4)}},
                                   {{19, value(5)},
                                    {20, value(6)},
                                    {21, value(7)},
                                    {22, value(8)},
                                    {23, value(9)},
                                    {24, value(10)},
                                    {25, value(11)},
                                    {26, value(12)}},
                                   {{27, value(13)},
                                    {28, value(14)},
                                    {29, empty()}}}));
}

TEST(SortedList, HeapAndVaultNodesRunTheSameStream) {
  // One fixed op stream, single ops and sorted batches alike, on heap nodes
  // and on vault nodes: the same results, keys and per-op hop counts, and
  // every vault block the removes free goes back to the vault.
  runtime::Vault vault(0, 1u << 20);
  {
    core::SortedList<> heap;
    core::SortedList<runtime::Vault> in_vault(vault);
    EXPECT_EQ(vault.live_blocks(), 1u);  // the dummy head
    Xoshiro256 rng(41);
    for (int round = 0; round < 400; ++round) {
      std::uint64_t heap_hops = 0;
      std::uint64_t vault_hops = 0;
      const auto count_heap = [&](std::uint64_t n) { heap_hops += n; };
      const auto count_vault = [&](std::uint64_t n) { vault_hops += n; };
      if (round % 4 == 3) {
        std::vector<core::SetRequest> batch(1 + rng.next_below(16));
        for (auto& req : batch) {
          req = {static_cast<core::SetOp>(rng.next_below(3)),
                 rng.next_in(1, 300)};
        }
        std::vector<bool> heap_results(batch.size());
        std::vector<bool> vault_results(batch.size());
        heap.execute_batch(batch, heap_results, count_heap);
        in_vault.execute_batch(batch, vault_results, count_vault);
        ASSERT_EQ(heap_results, vault_results) << "round " << round;
      } else {
        const auto op = static_cast<core::SetOp>(rng.next_below(3));
        const std::uint64_t key = rng.next_in(1, 300);
        ASSERT_EQ(heap.execute(op, key, count_heap),
                  in_vault.execute(op, key, count_vault))
            << "round " << round;
      }
      ASSERT_EQ(heap_hops, vault_hops) << "round " << round;
      ASSERT_EQ(heap.keys(), in_vault.keys()) << "round " << round;
    }
    ASSERT_GT(in_vault.size(), 0u);
    EXPECT_EQ(vault.live_blocks(), 1 + in_vault.size());
    const auto none = [](std::uint64_t) {};
    for (const std::uint64_t key : heap.keys()) {
      ASSERT_TRUE(heap.execute(core::SetOp::kRemove, key, none));
      ASSERT_TRUE(in_vault.execute(core::SetOp::kRemove, key, none));
    }
    EXPECT_EQ(in_vault.size(), 0u);
    EXPECT_EQ(vault.live_blocks(), 1u);
  }
  EXPECT_EQ(vault.live_blocks(), 0u);
}

}  // namespace
}  // namespace pimds
