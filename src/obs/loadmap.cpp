#include "obs/loadmap.hpp"

#include <algorithm>
#include <cstdio>

namespace pimds::obs {

LoadMap::LoadMap(Options opts) : opts_(std::move(opts)) {
  if (opts_.num_vaults == 0) opts_.num_vaults = 1;
  if (opts_.num_ranges == 0) opts_.num_ranges = 1;
  if (opts_.key_max <= opts_.key_min) opts_.key_max = opts_.key_min + 1;
  shards_.reserve(opts_.num_vaults);
  for (std::size_t v = 0; v < opts_.num_vaults; ++v) {
    shards_.push_back(std::make_unique<Shard>());
  }
  ranges_ = std::make_unique<CachePadded<std::atomic<std::uint64_t>>[]>(
      opts_.num_vaults * opts_.num_ranges);
  last_range_ops_.assign(opts_.num_vaults * opts_.num_ranges, 0);
  if (!opts_.registry_prefix.empty()) {
    Registry& reg = Registry::instance();
    for (std::size_t v = 0; v < opts_.num_vaults; ++v) {
      reg_handles_.push_back(reg.register_counter(
          opts_.registry_prefix + ".vault" + std::to_string(v) + ".ops",
          &shards_[v]->ops));
    }
  }
}

std::uint64_t LoadMap::range_lo(std::size_t idx) const noexcept {
  // Smallest key with range_of(key) == idx: off * R >= idx * slots, so
  // lo = key_min + ceil(idx * slots / R), in 128-bit to match range_of().
  const unsigned __int128 slots =
      static_cast<unsigned __int128>(opts_.key_max - opts_.key_min) + 1;
  const unsigned __int128 r = opts_.num_ranges;
  return opts_.key_min +
         static_cast<std::uint64_t>((idx * slots + r - 1) / r);
}

std::uint64_t LoadMap::range_hi(std::size_t idx) const noexcept {
  if (idx + 1 >= opts_.num_ranges) return opts_.key_max;
  return range_lo(idx + 1) - 1;
}

void LoadMap::sketch_update(Shard& s, std::uint64_t key) noexcept {
  // SpaceSaving (Metwally et al.): track the kSketchEntries heaviest keys;
  // a new key evicts the current minimum and inherits its count + 1 (the
  // classic over-estimate). Single writer per vault, so plain load/store
  // on the atomic cells is enough — atomics only make concurrent *readers*
  // well-defined.
  auto& entries = s.sketch;
  std::size_t min_idx = 0;
  std::uint64_t min_count = ~std::uint64_t{0};
  for (std::size_t i = 0; i < kSketchEntries; ++i) {
    const std::uint64_t c = entries[i].count.load(std::memory_order_relaxed);
    if (c != 0 && entries[i].key.load(std::memory_order_relaxed) == key) {
      entries[i].count.store(c + 1, std::memory_order_relaxed);
      return;
    }
    if (c < min_count) {
      min_count = c;
      min_idx = i;
    }
  }
  entries[min_idx].key.store(key, std::memory_order_relaxed);
  entries[min_idx].count.store(min_count + 1, std::memory_order_relaxed);
}

LoadMap::HotVaultReport LoadMap::report() {
  std::lock_guard<std::mutex> lock(report_mu_);
  HotVaultReport rep;
  // Window ops per range (all vaults) and per vault (all its ranges).
  rep.per_vault_ops.assign(opts_.num_vaults, 0);
  std::vector<RangeLoad> loads;
  for (std::size_t r = 0; r < opts_.num_ranges; ++r) {
    std::uint64_t window = 0;
    for (std::size_t v = 0; v < opts_.num_vaults; ++v) {
      const std::size_t i = v * opts_.num_ranges + r;
      const std::uint64_t cur =
          ranges_[i].value.load(std::memory_order_relaxed);
      const std::uint64_t d = cur - last_range_ops_[i];
      last_range_ops_[i] = cur;
      rep.per_vault_ops[v] += d;
      window += d;
    }
    if (window > 0) loads.push_back({range_lo(r), range_hi(r), window});
  }
  for (const std::uint64_t ops : rep.per_vault_ops) rep.window_ops += ops;
  const auto hot = std::max_element(rep.per_vault_ops.begin(),
                                    rep.per_vault_ops.end());
  const auto cold = std::min_element(rep.per_vault_ops.begin(),
                                     rep.per_vault_ops.end());
  rep.hottest = static_cast<std::size_t>(hot - rep.per_vault_ops.begin());
  rep.coldest = static_cast<std::size_t>(cold - rep.per_vault_ops.begin());
  rep.hottest_ops = *hot;
  rep.coldest_ops = *cold;
  rep.mean_ops = static_cast<double>(rep.window_ops) /
                 static_cast<double>(opts_.num_vaults);
  rep.imbalance_ratio =
      rep.mean_ops > 0.0 ? static_cast<double>(rep.hottest_ops) / rep.mean_ops
                         : 0.0;

  std::stable_sort(loads.begin(), loads.end(),
                   [](const RangeLoad& a, const RangeLoad& b) {
                     return a.ops > b.ops;
                   });
  rep.hot_ranges = std::move(loads);

  // The hottest vault's sketch (cumulative counts; SpaceSaving does not
  // support windowed subtraction).
  for (const SketchEntry& e : shards_[rep.hottest]->sketch) {
    const std::uint64_t c = e.count.load(std::memory_order_relaxed);
    if (c > 0) {
      rep.hot_keys.push_back({e.key.load(std::memory_order_relaxed), c});
    }
  }
  std::stable_sort(rep.hot_keys.begin(), rep.hot_keys.end(),
                   [](const KeyLoad& a, const KeyLoad& b) {
                     return a.count > b.count;
                   });
  return rep;
}

std::string LoadMap::HotVaultReport::summary() const {
  char buf[256];
  const double share =
      window_ops > 0
          ? 100.0 * static_cast<double>(hottest_ops) /
                static_cast<double>(window_ops)
          : 0.0;
  std::snprintf(buf, sizeof(buf),
                "hot vault %zu (%.1f%% of %llu ops, ratio %.2f), cold vault "
                "%zu, %zu ranges in the window",
                hottest, share,
                static_cast<unsigned long long>(window_ops), imbalance_ratio,
                coldest, hot_ranges.size());
  return buf;
}

}  // namespace pimds::obs
