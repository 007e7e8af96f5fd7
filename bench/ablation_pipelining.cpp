// Ablation A3 (DESIGN.md): the design knobs of the PIM FIFO queue —
// response pipelining (Figure 6), segment threshold (incl. the
// single-segment "short queue" regime), and Section 5.1's fat-node enqueue
// combining.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "model/queue_model.hpp"
#include "sim/ds/queues.hpp"

int main(int argc, char** argv) {
  using namespace pimds;
  using namespace pimds::bench;
  using sim::PimQueueOptions;

  JsonReporter json(argc, argv, "ablation_pipelining");

  sim::QueueConfig cfg;
  cfg.enqueuers = 12;
  cfg.dequeuers = 12;
  cfg.duration_ns = 15'000'000;
  const LatencyParams lp = cfg.params;

  banner("Ablation A3a: pipelining on/off (Figure 6)");
  {
    Table table({"pipelining", "sim Mops/s", "model Mops/s"}, 16);
    table.print_header();
    PimQueueOptions on;
    PimQueueOptions off;
    off.pipelining = false;
    const double t_on = sim::run_pim_queue(cfg, on).run.ops_per_sec();
    const double t_off = sim::run_pim_queue(cfg, off).run.ops_per_sec();
    table.print_row({"on", mops(t_on),
                     mops(2 * model::pim_queue_pipelined(lp))});
    table.print_row({"off", mops(t_off),
                     mops(2 * model::pim_queue_unpipelined(lp))});
    json.record("pipelining_on", {{"pipelining", "on"}}, t_on);
    json.record("pipelining_off", {{"pipelining", "off"}}, t_off);
  }

  banner("Ablation A3b: segment threshold sweep");
  {
    Table table({"threshold", "Mops/s", "segments", "rejections"}, 14);
    table.print_header();
    for (std::uint64_t threshold : {64ull, 256ull, 1024ull, 4096ull, 16384ull}) {
      PimQueueOptions opts;
      opts.segment_threshold = threshold;
      const auto r = sim::run_pim_queue(cfg, opts);
      table.print_row({std::to_string(threshold),
                       mops(r.run.ops_per_sec()),
                       std::to_string(r.segments_created),
                       std::to_string(r.rejections)});
      json.record("threshold_" + std::to_string(threshold),
                  {{"segment_threshold", std::to_string(threshold)}},
                  r.run.ops_per_sec());
    }
    PimQueueOptions single;
    single.num_vaults = 1;
    single.segment_threshold = ~std::uint64_t{0};
    const auto r = sim::run_pim_queue(cfg, single);
    table.print_row({"1-segment", mops(r.run.ops_per_sec()), "0",
                     std::to_string(r.rejections)});
    std::printf("(paper: the single-segment 'short queue' regime halves "
                "throughput: model %.2f Mops/s)\n",
                2 * model::pim_queue_single_segment(lp) * 1e-6);
  }

  banner("Ablation A3d: fat-node enqueue combining (Section 5.1)");
  {
    // Enqueue-only pressure shows the enqueue core's ceiling directly.
    sim::QueueConfig ecfg = cfg;
    ecfg.enqueuers = 24;
    ecfg.dequeuers = 0;
    Table table({"enq combining", "enq-side Mops/s", "note"}, 18);
    table.print_header();
    PimQueueOptions plain;
    table.print_row({"off",
                     mops(sim::run_pim_queue(ecfg, plain).run.ops_per_sec()),
                     "1 access/value"});
    PimQueueOptions fat;
    fat.enqueue_combining = true;
    table.print_row({"on",
                     mops(sim::run_pim_queue(ecfg, fat).run.ops_per_sec()),
                     "1 access/8 values"});
    std::printf("(the paper: 'store the nodes to be enqueued in an array as "
                "a fat node, to reduce memory accesses')\n");
  }
  return 0;
}
