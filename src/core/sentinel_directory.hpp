// CPU-side sentinel directory for the partitioned PIM skip-list
// (Section 4.2, Figure 3).
//
// "CPUs also store a copy of each sentinel node in regular DRAM ... with an
// extra variable indicating the vault containing the sentinel node." Here
// that copy is one shared table: entries map a sentinel key (the inclusive
// lower bound of a partition) to the vault currently owning that range.
// PIM cores update it at the end of a migration — our stand-in for the
// paper's notify-all-CPUs broadcast; the rejection/retry path absorbs any
// staleness a real broadcast would also have.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

namespace pimds::core {

class SentinelDirectory {
 public:
  struct Entry {
    std::uint64_t sentinel;  ///< partition covers [sentinel, next.sentinel)
    std::size_t vault;
  };

  explicit SentinelDirectory(std::vector<Entry> entries)
      : entries_(std::move(entries)) {
    assert(std::is_sorted(entries_.begin(), entries_.end(),
                          [](const Entry& a, const Entry& b) {
                            return a.sentinel < b.sentinel;
                          }));
    assert(!entries_.empty());
  }

  /// [key_min, key_max] split into `vaults` equal ranges, range v on
  /// vault v: the initial layout (Section 4.2).
  static std::vector<Entry> equal_ranges(std::uint64_t key_min,
                                         std::uint64_t key_max,
                                         std::size_t vaults) {
    const std::uint64_t span = key_max - key_min + 1;
    std::vector<Entry> entries;
    for (std::size_t v = 0; v < vaults; ++v) {
      entries.push_back({key_min + v * span / vaults, v});
    }
    return entries;
  }

  /// Vault owning `key` (greatest sentinel <= key). The hot read path:
  /// sentinels are few and CPU-cached, so a shared lock + binary search
  /// stands in for the paper's cached sentinel lookup.
  std::size_t route(std::uint64_t key) const {
    std::shared_lock lock(mutex_);
    return locate_unlocked(key)->vault;
  }

  /// [sentinel, end) of the partition containing `key`; `end` is the next
  /// sentinel or UINT64_MAX for the last partition.
  struct Range {
    std::uint64_t lo;
    std::uint64_t hi;
    std::size_t vault;
  };
  Range partition_of(std::uint64_t key) const {
    std::shared_lock lock(mutex_);
    const auto it = locate_unlocked(key);
    const std::uint64_t hi = (it + 1) == entries_.end()
                                 ? ~std::uint64_t{0}
                                 : (it + 1)->sentinel;
    return {it->sentinel, hi, it->vault};
  }

  std::vector<Entry> snapshot() const {
    std::shared_lock lock(mutex_);
    return entries_;
  }

  /// Record that the range [split_key, end-of-its-partition) now belongs to
  /// `new_vault`: either retargets an existing entry (whole-partition move)
  /// or inserts a new sentinel (suffix split). Called by the migration
  /// source core when every node has been handed over (Section 4.2.1).
  void move_range(std::uint64_t split_key, std::size_t new_vault) {
    std::unique_lock lock(mutex_);
    const auto it =
        entries_.begin() + (locate_unlocked(split_key) - entries_.cbegin());
    if (it->sentinel == split_key) {
      it->vault = new_vault;
      // Merge with an identical-vault predecessor is possible but kept:
      // extra sentinels are harmless and the paper never deletes them.
      return;
    }
    entries_.insert(it + 1, Entry{split_key, new_vault});
  }

  std::size_t partition_count() const {
    std::shared_lock lock(mutex_);
    return entries_.size();
  }

 private:
  std::vector<Entry>::const_iterator locate_unlocked(
      std::uint64_t key) const {
    auto it = std::upper_bound(entries_.begin(), entries_.end(), key,
                               [](std::uint64_t k, const Entry& e) {
                                 return k < e.sentinel;
                               });
    assert(it != entries_.begin() && "key below the first sentinel");
    return it - 1;
  }

  mutable std::shared_mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace pimds::core
