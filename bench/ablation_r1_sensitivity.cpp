// Ablation A4 (DESIGN.md): sensitivity to r1 (how much faster PIM memory is
// than a CPU DRAM access). The paper fixes r1 = 3 from HMC-era estimates;
// this sweep shows which conclusions survive slower or faster PIM silicon,
// including the Section 1 claim that at r1 = 2 the naive PIM list still
// loses to a fine-grained-lock list on 3 CPU threads, while the combining
// PIM list already wins.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "sim/ds/linked_lists.hpp"
#include "sim/ds/queues.hpp"

int main(int argc, char** argv) {
  using namespace pimds;
  using namespace pimds::bench;

  JsonReporter json(argc, argv, "ablation_r1_sensitivity");
  banner("Ablation A4: r1 sweep — who wins at what PIM speed?");
  {
    Table table({"r1", "fine-grained", "PIM no-comb", "PIM comb",
                 "PIM queue", "F&A queue"},
                14);
    table.print_header();
    for (double r1 : {1.0, 1.5, 2.0, 3.0, 4.0, 6.0}) {
      // Hold Lcpu fixed at 600 ns and vary the PIM access speed, so the
      // sweep answers "how fast must PIM silicon be", not "how slow is the
      // CPU".
      LatencyParams params;
      params.r1 = r1;
      params.pim_ns = 600.0 / r1;
      sim::ListConfig lcfg;
      lcfg.params = params;
      lcfg.num_cpus = 8;
      lcfg.key_range = 800;
      lcfg.initial_size = 400;
      lcfg.duration_ns = 15'000'000;
      sim::QueueConfig qcfg;
      qcfg.params = params;
      qcfg.enqueuers = qcfg.dequeuers = 12;
      qcfg.duration_ns = 10'000'000;
      char r1s[16];
      std::snprintf(r1s, sizeof(r1s), "%.1f", r1);
      const double fg = sim::run_fine_grained_list(lcfg).ops_per_sec();
      const double pim_comb = sim::run_pim_list(lcfg, true).ops_per_sec();
      const double pim_q =
          sim::run_pim_queue(qcfg, sim::PimQueueOptions{}).run.ops_per_sec();
      table.print_row(
          {r1s, mops(fg),
           mops(sim::run_pim_list(lcfg, false).ops_per_sec()),
           mops(pim_comb), mops(pim_q),
           mops(sim::run_faa_queue(qcfg).ops_per_sec())});
      const JsonReporter::Params jp{{"r1", r1s}};
      json.record(std::string("fine_grained_r1_") + r1s, jp, fg);
      json.record(std::string("pim_comb_r1_") + r1s, jp, pim_comb);
      json.record(std::string("pim_queue_r1_") + r1s, jp, pim_q);
    }
    std::printf(
        "(Lcpu fixed at 600 ns, Lpim = Lcpu/r1. Even at r1 = 6 the naive\n"
        " PIM list loses to 8 fine-grained threads; with combining the PIM\n"
        " list wins from r1 >= 2 — Section 4.1's central point. The PIM\n"
        " queue beats F&A once r1 > 1, per the r1*r3 > 1 crossover.)\n");
  }
  return 0;
}
