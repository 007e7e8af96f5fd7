// Native (real-thread) throughput of every real structure in the library,
// at 1..hardware_threads() CPU worker threads.
//
// This is the paper's Figure 2 / Figure 4 methodology run on THIS host:
// the paper used a 28-hyperthread Xeon; this container exposes very few
// cores, so the scaling portion of those figures lives in the simulator
// benches (fig2_linked_lists, fig4_skiplists). What this binary shows
// natively is the leg the paper's argument stands on: flat-combining-style
// single-executor structures do not scale with threads, while fine-grained
// and lock-free structures do — plus the real PIM emulation running with
// injected Section 3 latencies.
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "baselines/fc_structures.hpp"
#include "baselines/faa_queue.hpp"
#include "baselines/hoh_list.hpp"
#include "baselines/lazy_list.hpp"
#include "baselines/lockfree_skiplist.hpp"
#include "baselines/ms_queue.hpp"
#include "bench/bench_util.hpp"
#include "common/barrier.hpp"
#include "common/rng.hpp"
#include "common/thread_utils.hpp"
#include "common/timing.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/pim_linked_list.hpp"
#include "core/pim_skiplist.hpp"

namespace {

using namespace pimds;
using namespace pimds::bench;

constexpr double kSeconds = 0.4;

/// Run `op(thread_id, rng)` from `threads` workers for kSeconds; return
/// aggregate ops/s.
double measure(std::size_t threads,
               const std::function<void(int, Xoshiro256&)>& op) {
  SpinBarrier barrier(threads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> counts(threads, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      pin_to_cpu(t);
      Xoshiro256 rng(0xbe5c * (t + 1));
      barrier.arrive_and_wait();
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        op(static_cast<int>(t), rng);
        ++n;
      }
      counts[t] = n;
    });
  }
  barrier.arrive_and_wait();
  const std::uint64_t t0 = now_ns();
  spin_for_ns(static_cast<std::uint64_t>(kSeconds * 1e9));
  stop.store(true);
  const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
  for (auto& w : workers) w.join();
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  return static_cast<double>(total) / elapsed;
}

template <typename Set>
void prefill(Set& set, std::size_t n, std::uint64_t range) {
  Xoshiro256 rng(1);
  std::size_t added = 0;
  while (added < n) added += set.add(rng.next_in(1, range));
}

template <typename Set>
std::function<void(int, Xoshiro256&)> set_op(Set& set, std::uint64_t range) {
  return [&set, range](int, Xoshiro256& rng) {
    const std::uint64_t key = rng.next_in(1, range);
    switch (rng.next_below(3)) {
      case 0: set.add(key); break;
      case 1: set.remove(key); break;
      default: set.contains(key);
    }
  };
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv, "native_structures");
  const std::size_t max_threads = hardware_threads();
  std::printf("host: %zu hardware threads (the paper used 28; see the\n"
              "simulator benches for full-scale sweeps)\n",
              max_threads);

  banner("Native lists (key range 800, prefilled 400)");
  {
    Table table({"threads", "hand-over-hand", "lazy", "FC", "FC+comb"}, 16);
    table.print_header();
    for (std::size_t p = 1; p <= max_threads; p *= 2) {
      baselines::HohList hoh;
      prefill(hoh, 400, 800);
      baselines::LazyList lazy;
      prefill(lazy, 400, 800);
      baselines::FcLinkedList fc_plain(false);
      prefill(fc_plain, 400, 800);
      baselines::FcLinkedList fc_comb(true);
      prefill(fc_comb, 400, 800);
      const double hoh_t = measure(p, set_op(hoh, 800));
      const double lazy_t = measure(p, set_op(lazy, 800));
      const double fc_comb_t = measure(p, set_op(fc_comb, 800));
      table.print_row({std::to_string(p), mops(hoh_t), mops(lazy_t),
                       mops(measure(p, set_op(fc_plain, 800))),
                       mops(fc_comb_t)});
      const JsonReporter::Params params{{"threads", std::to_string(p)}};
      json.record("hoh_list_p" + std::to_string(p), params, hoh_t);
      json.record("lazy_list_p" + std::to_string(p), params, lazy_t);
      json.record("fc_comb_list_p" + std::to_string(p), params, fc_comb_t);
    }
  }

  banner("Native skip-lists (key range 1<<16, prefilled 1<<15)");
  {
    Table table({"threads", "lock-free", "FC k=1", "FC k=4"}, 16);
    table.print_header();
    for (std::size_t p = 1; p <= max_threads; p *= 2) {
      baselines::LockFreeSkipList lf;
      prefill(lf, 1 << 15, 1 << 16);
      baselines::FcSkipList fc1(1 << 16, 1);
      prefill(fc1, 1 << 15, 1 << 16);
      baselines::FcSkipList fc4(1 << 16, 4);
      prefill(fc4, 1 << 15, 1 << 16);
      const double lf_t = measure(p, set_op(lf, 1 << 16));
      table.print_row({std::to_string(p), mops(lf_t),
                       mops(measure(p, set_op(fc1, 1 << 16))),
                       mops(measure(p, set_op(fc4, 1 << 16)))});
      json.record("lockfree_skiplist_p" + std::to_string(p),
                  {{"threads", std::to_string(p)}}, lf_t);
    }
  }

  banner("Native queues (prefilled 1<<16; alternating enq/deq per thread)");
  {
    Table table({"threads", "Michael-Scott", "F&A", "FC"}, 16);
    table.print_header();
    for (std::size_t p = 1; p <= max_threads; p *= 2) {
      const auto queue_op = [](auto& q) {
        return [&q](int, Xoshiro256& rng) {
          if (rng.next_bool(0.5)) {
            q.enqueue(rng.next() >> 2);
          } else {
            q.dequeue();
          }
        };
      };
      baselines::MsQueue ms;
      for (int i = 0; i < (1 << 16); ++i) ms.enqueue(i);
      baselines::FaaQueue faa;
      for (int i = 0; i < (1 << 16); ++i) faa.enqueue(i);
      baselines::FcQueue fc;
      for (int i = 0; i < (1 << 16); ++i) fc.enqueue(i);
      const double ms_t = measure(p, queue_op(ms));
      const double faa_t = measure(p, queue_op(faa));
      table.print_row({std::to_string(p), mops(ms_t), mops(faa_t),
                       mops(measure(p, queue_op(fc)))});
      const JsonReporter::Params qparams{{"threads", std::to_string(p)}};
      json.record("ms_queue_p" + std::to_string(p), qparams, ms_t);
      json.record("faa_queue_p" + std::to_string(p), qparams, faa_t);
    }
  }

  banner("PIM emulation with injected Section 3 latencies (2 CPU threads)");
  {
    // Real PimSystem, latency injection ON: every vault access costs Lpim,
    // every message leg Lmessage, mirroring the model on real threads.
    runtime::PimSystem::Config config;
    config.num_vaults = 2;
    config.inject_latency = true;
    config.params.pim_ns = 2000.0;  // scaled up so injection >> overheads
    {
      runtime::PimSystem system(config);
      core::PimLinkedList list(system);
      system.start();
      prefill(list, 100, 200);
      const double tput = measure(2, set_op(list, 200));
      system.stop();
      json.record("pim_linked_list_combining", {{"threads", "2"}}, tput);
      std::printf("PIM linked-list (combining):   %s Mops/s "
                  "(max batch observed: %zu)\n",
                  mops(tput).c_str(), list.max_observed_batch());
    }
    {
      runtime::PimSystem system(config);
      core::PimFifoQueue queue(system);
      system.start();
      for (int i = 0; i < 4096; ++i) queue.enqueue(i);
      const double tput = measure(2, [&](int t, Xoshiro256&) {
        if (t % 2 == 0) {
          queue.enqueue(1);
        } else {
          queue.dequeue();
        }
      });
      system.stop();
      json.record("pim_fifo_queue", {{"threads", "2"}}, tput);
      std::printf("PIM FIFO queue:                %s Mops/s "
                  "(segments created: %lu, rejections: %lu)\n",
                  mops(tput).c_str(),
                  static_cast<unsigned long>(queue.segments_created()),
                  static_cast<unsigned long>(queue.rejections()));
    }
  }
  return 0;
}
