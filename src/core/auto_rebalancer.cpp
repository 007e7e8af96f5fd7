#include "core/auto_rebalancer.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "obs/metrics.hpp"

namespace pimds::core {

namespace {

obs::Counter& triggered_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("rebalancer.triggered");
  return c;
}

obs::Counter& migrated_keys_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("rebalancer.migrated_keys");
  return c;
}

obs::Counter& would_trigger_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("rebalancer.would_trigger");
  return c;
}

obs::Gauge& settled_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge(
      "rebalancer.settled", obs::GaugeMerge::kLast);
  return g;
}

}  // namespace

AutoRebalancer::AutoRebalancer(PimSkipList& list, Options options)
    : list_(list),
      options_(options),
      step_(options.trigger) {}

AutoRebalancer::AutoRebalancer(PimSkipList& list)
    : AutoRebalancer(list, Options{}) {}

void AutoRebalancer::start() {
  if (started_) return;
  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  last_migrated_keys_ = list_.migrated_keys();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(options_.period);
      tick();
    }
  });
}

void AutoRebalancer::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  started_ = false;
  account_migrated_keys();  // attribute keys from the final migration
}

obs::LoadMap::HotVaultReport AutoRebalancer::last_report() const {
  std::lock_guard<std::mutex> lock(report_mu_);
  return last_report_;
}

void AutoRebalancer::account_migrated_keys() {
  const std::uint64_t cur = list_.migrated_keys();
  if (cur > last_migrated_keys_) {
    migrated_keys_counter().add(cur - last_migrated_keys_);
    last_migrated_keys_ = cur;
  }
}

void AutoRebalancer::tick() {
  const obs::LoadMap::HotVaultReport rep = list_.loadmap().report();
  account_migrated_keys();
  if (rep.window_ops >= options_.trigger.min_window_ops) {
    {
      std::lock_guard<std::mutex> lock(report_mu_);
      last_report_ = rep;
    }
    const bool settled = rep.imbalance_ratio < options_.imbalance_exit;
    settled_.store(settled, std::memory_order_relaxed);
    settled_gauge().set(settled ? 1 : 0);
  }
  const SentinelDirectory& dir = list_.directory();
  const std::optional<RebalanceMove> move = step_.decide(
      rep, dir, list_.options().key_max, list_.migration_active());
  if (!move) return;
  if (options_.observe_only) {
    would_trigger_.fetch_add(1, std::memory_order_relaxed);
    would_trigger_counter().add(1);
    if (options_.log_decisions) {
      std::fprintf(stderr,
                   "[auto_rebalancer] would-trigger: %s; would migrate "
                   "[%llu, end of partition) -> vault %zu (threshold %.2f)\n",
                   rep.summary().c_str(),
                   static_cast<unsigned long long>(move->split), move->target,
                   options_.trigger.imbalance_enter);
    }
    return;
  }
  const std::uint64_t hi = std::min(dir.partition_of(move->split).hi,
                                    list_.options().key_max + 1);
  if (!list_.migrate(move->split, move->target)) return;
  step_.migrated(*move);
  migrations_.fetch_add(1, std::memory_order_relaxed);
  triggered_counter().add(1);
  if (options_.log_decisions) {
    std::fprintf(stderr,
                 "[auto_rebalancer] trigger: %s; migrating [%llu, %llu) "
                 "vault %zu -> vault %zu\n",
                 rep.summary().c_str(),
                 static_cast<unsigned long long>(move->split),
                 static_cast<unsigned long long>(hi), move->source,
                 move->target);
  }
}

}  // namespace pimds::core
