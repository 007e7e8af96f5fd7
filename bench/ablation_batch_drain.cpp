// Ablation A4: the batched mailbox drain + pipelined response path of the
// native runtime (this repo's Section 5.2 reproduction on real threads).
//
// All runs inject the paper-default latency model (r1 = r2 = 3, r3 = 1, so
// Lmessage = 3 * Lpim) and drive a PimFifoQueue with mixed enqueue+dequeue
// traffic. The paper fixes only the ratios; pim_ns sets the absolute scale
// and defaults here to 10 us so the injected latencies dominate this host's
// scheduler noise (see common/latency.hpp and DESIGN.md §5 — at the 200 ns
// scale a 1-2 us context switch swamps the 0.6 us message latency and every
// path measures the scheduler, not the protocol). The axes:
//  - seed per-message path (batch_drain off, no combining: the core blocks
//    on every message's delivery time → Lmessage + Lpim per op) vs. the
//    batched path (drain every deliverable message per pass → Lpim per op);
//  - drain batch size sweep.
// Response pipelining on/off (Section 5.2 / Figure 6) is ablation A3, run in
// the simulator (ablation_pipelining).
//
// Emits BENCH_batch_drain.json (--json <file>) with a "speedup" note:
// batched+pipelined vs. seed per-message, measured in this same binary.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/thread_utils.hpp"
#include "common/timing.hpp"
#include "core/pim_fifo_queue.hpp"
#include "runtime/system.hpp"

namespace {

using namespace pimds;

struct RunConfig {
  bool batch_drain = true;
  bool cpu_combining = true;
  bool enqueue_combining = true;
  std::size_t drain_batch = 64;
};

double pim_ns_scale = 10000.0;  // Lpim = 10 us, Lmessage = 30 us
std::uint64_t gather_ns = 0;    // 0 = the runtime's auto window (Lpim)

double run_queue(const RunConfig& rc, std::size_t threads, std::size_t ops_per_thread) {
  runtime::PimSystem::Config config;
  config.num_vaults = 2;
  config.inject_latency = true;
  config.params = LatencyParams::paper_defaults();  // r1 = r2 = 3, r3 = 1
  config.params.pim_ns = pim_ns_scale;
  config.batch_drain = rc.batch_drain;
  config.drain_batch = rc.drain_batch;
  // Give each vault core its own CPU when the host has them to spare;
  // on smaller hosts pinning would just stack everything on CPU 0.
  config.pin_cores = hardware_threads() > config.num_vaults;
  config.drain_gather_window_ns = gather_ns;
  runtime::PimSystem system(config);
  core::PimFifoQueue::Options qopts;
  qopts.enqueue_combining = rc.enqueue_combining;
  qopts.cpu_combining = rc.cpu_combining;
  core::PimFifoQueue queue(system, qopts);
  system.start();

  Stopwatch watch;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        queue.enqueue(t * ops_per_thread + i);
        queue.dequeue();
      }
    });
  }
  for (auto& w : workers) w.join();
  const double secs = watch.elapsed_s();
  system.stop();
  // enqueue + dequeue each count as one operation.
  return static_cast<double>(2 * threads * ops_per_thread) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimds::bench;

  // 18 threads keep both PIM cores saturated (each CPU thread has at most
  // one request in flight, so concurrency comes from thread count alone)
  // while holding sender-side queueing under the perf gate's mailbox_queue
  // ceiling. The 4 us gather window (vs the Lpim auto-window) drains the
  // vault mailbox eagerly: CPU-side combining already lands fat messages,
  // so a long gather adds queueing delay without deepening vault batches.
  std::size_t threads = 18;
  std::size_t ops = 600;
  gather_ns = 4000;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads") threads = std::strtoul(argv[i + 1], nullptr, 10);
    if (a == "--ops") ops = std::strtoul(argv[i + 1], nullptr, 10);
    if (a == "--pim-ns") pim_ns_scale = std::strtod(argv[i + 1], nullptr);
    if (a == "--gather-ns") gather_ns = std::strtoul(argv[i + 1], nullptr, 10);
  }

  JsonReporter json(argc, argv, "batch_drain");

  banner("Ablation A4a: seed per-message path vs batched+pipelined path");
  Table table({"path", "Mops/s", "vs seed"}, 26);
  table.print_header();

  RunConfig seed;
  seed.batch_drain = false;
  seed.cpu_combining = false;
  seed.enqueue_combining = false;
  // Warm-up (thread pool / allocator / injector calibration), then measure
  // each path best-of-3: the headline is a RATIO of two capacities, and on
  // an oversubscribed host a single rep of either leg can eat an unlucky
  // scheduling burst that the other leg didn't — the same reasoning behind
  // perf_gate.py's best-of-N across fresh runs.
  constexpr int kReps = 3;
  run_queue(seed, threads, ops / 8);
  double seed_tput = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    seed_tput = std::max(seed_tput, run_queue(seed, threads, ops));
  }
  table.print_row({"seed per-message", mops(seed_tput), "1.00x"});
  json.record("seed_per_message",
              {{"batch_drain", "off"},
               {"pipelining", "on"},
               {"combining", "off"},
               {"threads", std::to_string(threads)}},
              seed_tput);

  RunConfig batched;  // all defaults on
  run_queue(batched, threads, ops / 8);
  // The attribution section the perf gate reads must describe THESE runs —
  // the optimized batched+pipelined lane path — not an average that folds
  // in the seed leg above and the ablation legs below, whose whole point
  // is degenerate queueing. Zero the registry-owned phase histograms while
  // no system is live, then snapshot right after the measured reps.
  obs::Registry::instance().reset();
  double batched_tput = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    batched_tput = std::max(batched_tput, run_queue(batched, threads, ops));
  }
  json.capture_attribution();
  table.print_row({"batch drain + pipelining", mops(batched_tput),
                   ratio(batched_tput, seed_tput)});
  json.record("batch_drain_pipelined",
              {{"batch_drain", "on"},
               {"pipelining", "on"},
               {"combining", "on"},
               {"drain_batch", "64"},
               {"threads", std::to_string(threads)}},
              batched_tput);
  json.note("speedup", batched_tput / seed_tput);
  // Model conformance: the seed path serializes each core at
  // Lmessage + Lpim per op while the batched+pipelined path approaches
  // Lpim per op, so the analytic ceiling on the batched throughput is
  // seed * (Lmessage + Lpim) / Lpim. Real threads land well below the
  // ceiling (scheduler wakeups are not in the model); the divergence is
  // expected to be large and negative, and the perf gate only holds the
  // measured speedup ratio, not this bound.
  {
    const LatencyParams lp = LatencyParams::paper_defaults();
    const double ideal = (lp.message() + lp.pim()) / lp.pim();
    json.conformance("batched_vs_seed.ideal_bound", seed_tput * ideal,
                     batched_tput);
  }
  std::printf("(acceptance: batched+pipelined >= 1.5x seed; measured %.2fx)\n",
              batched_tput / seed_tput);

  banner("Ablation A4c: drain batch size sweep (batched path)");
  {
    Table t3({"drain_batch", "Mops/s"}, 16);
    t3.print_header();
    for (std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                              std::size_t{64}}) {
      RunConfig rc;
      rc.drain_batch = batch;
      const double tput = run_queue(rc, threads, ops / 2);
      t3.print_row({std::to_string(batch), mops(tput)});
      json.record("drain_batch_" + std::to_string(batch),
                  {{"batch_drain", "on"},
                   {"drain_batch", std::to_string(batch)},
                   {"threads", std::to_string(threads)}},
                  tput);
    }
  }
  return 0;
}
