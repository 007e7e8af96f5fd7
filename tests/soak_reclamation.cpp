// Churn/soak test for epoch-based reclamation: sustained insert/delete
// churn over every lock-free baseline while a rotating "parked reader"
// periodically stalls inside a guard — the exact workload that makes
// unbounded-garbage bugs (and the EBR stalled-reader pathology) visible.
//
// Assertions, checked continuously and at exit:
//   - bounded RSS: resident-set growth over the run stays under a ceiling
//     (a reclamation leak grows RSS linearly with churn);
//   - bounded retire backlog: each domain's in_flight count returns below
//     a threshold once stalls clear and flush() runs.
//
// Hours-capable but minutes-default:
//   soak_reclamation [--seconds N] [--rss-ceiling-mb M] [--threads T]
// The ctest registration runs a short smoke (--seconds 2); CI's soak job
// runs it under ASan/LSan and TSan; nightly/manual runs pass larger
// --seconds. Exit code 0 = all assertions held.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <unistd.h>

#include "baselines/faa_queue.hpp"
#include "baselines/lazy_list.hpp"
#include "baselines/lockfree_skiplist.hpp"
#include "baselines/ms_queue.hpp"
#include "common/ebr.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"

namespace {

using namespace pimds;
using namespace pimds::baselines;

int g_failures = 0;

#define SOAK_CHECK(cond, ...)                          \
  do {                                                 \
    if (!(cond)) {                                     \
      std::fprintf(stderr, "SOAK FAIL: " __VA_ARGS__); \
      std::fprintf(stderr, " [%s]\n", #cond);          \
      ++g_failures;                                    \
    }                                                  \
  } while (0)

/// Resident set size in bytes via /proc/self/statm (0 if unreadable, e.g.
/// on non-Linux hosts — the RSS assertion is then skipped).
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long rss_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &size_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::size_t>(rss_pages) *
         static_cast<std::size_t>(page > 0 ? page : 4096);
}

struct SoakConfig {
  double seconds = 120.0;  // minutes-default; ctest/CI pass a short value
  std::size_t rss_ceiling_mb = 256;  // growth allowance over the baseline
  unsigned threads = 4;
};

/// One churn phase over one structure instance: `threads` workers mutate
/// under a mixed workload while one extra thread repeatedly parks inside a
/// guard for ~10ms at a time (the reclamation stall generator).
template <typename MakeStructure, typename Op>
void churn_phase(const char* what, double seconds, unsigned threads,
                 MakeStructure make, Op op) {
  auto structure = make();
  EbrDomain& reclaimer = structure->reclaimer();
  std::atomic<bool> stop{false};
  std::atomic<bool> drain{false};
  std::atomic<unsigned> churning{threads};
  std::atomic<std::uint64_t> total_ops{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(0x50ac ^ (t * 0x9e37u));
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        op(*structure, rng);
        ++n;
      }
      total_ops.fetch_add(n, std::memory_order_relaxed);
      churning.fetch_sub(1, std::memory_order_release);
      // Limbo lists are per-thread, so each worker drains its own
      // backlog — this is the "backlog returns to bounded once the stall
      // clears" check. The flush must wait until the parker is gone (drain
      // flag) AND every sibling has left its final op's guard, or an epoch
      // advance would stall on a still-pinned reader and silently skip the
      // drain.
      while (!drain.load(std::memory_order_acquire) ||
             churning.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
      }
      reclaimer.flush();
    });
  }
  // Stall generator: parks a guard, holds it, releases, repeats, which
  // forces epoch stalls.
  std::thread parker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      {
        EbrDomain::Guard guard(reclaimer);
        const std::uint64_t t0 = now_ns();
        while (now_ns() - t0 < 10'000'000 &&
               !stop.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const std::uint64_t t0 = now_ns();
  std::uint64_t max_in_flight = 0;
  while (static_cast<double>(now_ns() - t0) * 1e-9 < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const ReclaimStats s = reclaimer.stats();
    if (s.in_flight > max_in_flight) max_in_flight = s.in_flight;
  }
  stop.store(true);
  parker.join();  // the stall source must be gone before workers drain
  drain.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  // Every mutator flushed its own backlog with no guard pinned anywhere:
  // nothing proportional to the churn volume may remain in flight. The
  // small slack covers retire-vs-free counter tearing while flushes raced.
  const ReclaimStats s = reclaimer.stats();
  const std::uint64_t backlog_bound = 64 * (threads + 2);
  SOAK_CHECK(s.in_flight <= backlog_bound,
             "%s: retire backlog %llu exceeds bound %llu after quiesce",
             what, static_cast<unsigned long long>(s.in_flight),
             static_cast<unsigned long long>(backlog_bound));
  SOAK_CHECK(s.freed <= s.retired, "%s: freed %llu > retired %llu", what,
             static_cast<unsigned long long>(s.freed),
             static_cast<unsigned long long>(s.retired));
  std::printf(
      "  %-22s %8.2f Mops  retired %10llu  freed %10llu  "
      "in-flight %6llu (peak %8llu)  stalls %llu\n",
      what, static_cast<double>(total_ops.load()) / seconds * 1e-6,
      static_cast<unsigned long long>(s.retired),
      static_cast<unsigned long long>(s.freed),
      static_cast<unsigned long long>(s.in_flight),
      static_cast<unsigned long long>(max_in_flight),
      static_cast<unsigned long long>(s.stalls));
}

void run_all(const SoakConfig& cfg) {
  // Four structures share the time budget; each phase gets its own
  // instance so teardown (reclaim_all) is exercised every cycle.
  const double per = cfg.seconds / 4.0;
  std::printf("%.1fs per structure, %u churn threads + parker:\n", per,
              cfg.threads);

  churn_phase(
      "lazy_list", per, cfg.threads,
      [] { return std::make_unique<LazyList>(); },
      [](LazyList& l, Xoshiro256& rng) {
        const std::uint64_t key = rng.next_in(1, 512);
        switch (rng.next_below(3)) {
          case 0: l.add(key); break;
          case 1: l.remove(key); break;
          default: l.contains(key);
        }
      });
  churn_phase(
      "lockfree_skiplist", per, cfg.threads,
      [] { return std::make_unique<LockFreeSkipList>(); },
      [](LockFreeSkipList& l, Xoshiro256& rng) {
        const std::uint64_t key = rng.next_in(1, 4096);
        switch (rng.next_below(3)) {
          case 0: l.add(key); break;
          case 1: l.remove(key); break;
          default: l.contains(key);
        }
      });
  churn_phase(
      "ms_queue", per, cfg.threads,
      [] { return std::make_unique<MsQueue>(); },
      [](MsQueue& q, Xoshiro256& rng) {
        if (rng.next_bool(0.5)) {
          q.enqueue(rng.next() >> 2);
        } else {
          q.dequeue();
        }
      });
  churn_phase(
      "faa_queue", per, cfg.threads,
      [] { return std::make_unique<FaaQueue>(); },
      [](FaaQueue& q, Xoshiro256& rng) {
        if (rng.next_bool(0.5)) {
          q.enqueue(rng.next() >> 2);
        } else {
          q.dequeue();
        }
      });
}

}  // namespace

int main(int argc, char** argv) {
  SoakConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(arg, "--seconds") == 0) {
      if (const char* v = next()) cfg.seconds = std::atof(v);
    } else if (std::strcmp(arg, "--rss-ceiling-mb") == 0) {
      if (const char* v = next()) {
        cfg.rss_ceiling_mb = static_cast<std::size_t>(std::atoll(v));
      }
    } else if (std::strcmp(arg, "--threads") == 0) {
      if (const char* v = next()) {
        cfg.threads = static_cast<unsigned>(std::atoi(v));
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seconds N] [--rss-ceiling-mb M] "
                   "[--threads T]\n",
                   argv[0]);
      return 2;
    }
  }
  std::printf("soak_reclamation: %.1fs total, rss ceiling +%zu MB\n",
              cfg.seconds, cfg.rss_ceiling_mb);

  // RSS baseline after a warm-up churn burst, so allocator warm-up and
  // thread stacks don't count against the ceiling.
  {
    SoakConfig warm = cfg;
    warm.seconds = 0.2;
    run_all(warm);
  }
  const std::size_t rss_before = rss_bytes();

  run_all(cfg);

  const std::size_t rss_after = rss_bytes();
  if (rss_before != 0 && rss_after != 0) {
    const std::size_t growth =
        rss_after > rss_before ? rss_after - rss_before : 0;
    std::printf("RSS: %.1f MB -> %.1f MB (growth %.1f MB, ceiling %zu MB)\n",
                rss_before / 1048576.0, rss_after / 1048576.0,
                growth / 1048576.0, cfg.rss_ceiling_mb);
    SOAK_CHECK(growth <= cfg.rss_ceiling_mb * 1048576u,
               "RSS grew %.1f MB over the run (ceiling %zu MB) — "
               "reclamation is leaking under churn",
               growth / 1048576.0, cfg.rss_ceiling_mb);
  } else {
    std::printf("RSS: /proc/self/statm unavailable; RSS assertion skipped\n");
  }

  if (g_failures == 0) {
    std::printf("soak_reclamation: PASS\n");
    return 0;
  }
  std::fprintf(stderr, "soak_reclamation: %d assertion(s) failed\n",
               g_failures);
  return 1;
}
