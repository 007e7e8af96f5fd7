// Tests for request-level latency attribution (obs/phase.hpp): the
// per-phase histograms recorded by the simulator and the native runtime
// must tile each operation's independently measured end-to-end latency —
// exactly in virtual time, within scheduler noise on real threads — and
// the attribution_report/attribution_json summaries must reflect that.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/pim_fifo_queue.hpp"
#include "obs/obs.hpp"
#include "runtime/system.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"

namespace pimds {
namespace {

obs::AttributionReport fresh_report() {
  return obs::attribution_report(obs::Registry::instance().snapshot());
}

TEST(PhaseTaxonomy, NamesAndHistogramsLineUp) {
  using obs::Phase;
  EXPECT_STREQ(obs::phase_name(Phase::kIssue), "issue");
  EXPECT_STREQ(obs::phase_name(Phase::kCombinerWait), "combiner_wait");
  EXPECT_STREQ(obs::phase_name(Phase::kRequestFlight), "request_flight");
  EXPECT_STREQ(obs::phase_name(Phase::kMailboxQueue), "mailbox_queue");
  EXPECT_STREQ(obs::phase_name(Phase::kVaultService), "vault_service");
  EXPECT_STREQ(obs::phase_name(Phase::kResponseFlight), "response_flight");
  EXPECT_STREQ(obs::phase_name(Phase::kCpuReceive), "cpu_receive");
  EXPECT_STREQ(obs::phase_name(Phase::kTotal), "total");
  EXPECT_STREQ(obs::phase_domain_name(obs::PhaseDomain::kRuntime), "runtime");
  EXPECT_STREQ(obs::phase_domain_name(obs::PhaseDomain::kSim), "sim");

  obs::Registry::instance().reset();
  obs::record_sim_phase(obs::Phase::kVaultService, 123);
  const auto snap = obs::Registry::instance().snapshot();
  const auto* h = snap.find_histogram("sim.phase.vault_service");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->data.count, 1u);
  EXPECT_EQ(h->data.sum, 123u);
}

TEST(RequestIds, MonotoneAndNeverZero) {
  const std::uint64_t a = obs::next_request_id();
  const std::uint64_t b = obs::next_request_id();
  EXPECT_NE(a, 0u);
  EXPECT_GT(b, a);
}

// The simulator runs in virtual time, so the recorded phases must tile the
// end-to-end latency of every queue operation essentially exactly; the only
// slack is operations still in flight when the run's duration expires.
TEST(SimAttribution, QueuePhasesTileEndToEndLatency) {
  obs::Registry::instance().reset();
  sim::QueueConfig cfg;
  cfg.enqueuers = 2;
  cfg.dequeuers = 2;
  cfg.duration_ns = 3'000'000;
  sim::run_pim_queue(cfg, sim::PimQueueOptions{});

  const obs::AttributionReport rep = fresh_report();
  ASSERT_TRUE(rep.sim.present);
  EXPECT_FALSE(rep.runtime.present);
  EXPECT_GT(rep.sim.ops, 100u);
  EXPECT_GE(rep.sim.coverage_pct, 90.0);
  EXPECT_LE(rep.sim.coverage_pct, 110.0);
  // The queue's CPU sends cost nothing before the wire, so the breakdown is
  // flight + wait + service + flight only.
  using obs::Phase;
  EXPECT_GT(rep.sim.phase_count[static_cast<int>(Phase::kRequestFlight)], 0u);
  EXPECT_GT(rep.sim.phase_count[static_cast<int>(Phase::kMailboxQueue)], 0u);
  EXPECT_GT(rep.sim.phase_count[static_cast<int>(Phase::kVaultService)], 0u);
  EXPECT_GT(rep.sim.phase_count[static_cast<int>(Phase::kResponseFlight)],
            0u);
}

// Same with enqueue combining on: batch members each record the full batch
// service (that IS their latency experience), so tiling still holds.
TEST(SimAttribution, CombiningQueueStillCovers) {
  obs::Registry::instance().reset();
  sim::QueueConfig cfg;
  cfg.enqueuers = 3;
  cfg.dequeuers = 1;
  cfg.duration_ns = 3'000'000;
  sim::PimQueueOptions opts;
  opts.enqueue_combining = true;
  sim::run_pim_queue(cfg, opts);

  const obs::AttributionReport rep = fresh_report();
  ASSERT_TRUE(rep.sim.present);
  EXPECT_GE(rep.sim.coverage_pct, 90.0);
  EXPECT_LE(rep.sim.coverage_pct, 110.0);
}

TEST(SimAttribution, SkiplistPhasesTileEndToEndLatency) {
  obs::Registry::instance().reset();
  sim::SkipListConfig cfg;
  cfg.num_cpus = 4;
  cfg.key_range = 1 << 10;
  cfg.initial_size = 1 << 9;
  cfg.duration_ns = 3'000'000;
  sim::run_pim_skiplist(cfg, 4);

  const obs::AttributionReport rep = fresh_report();
  ASSERT_TRUE(rep.sim.present);
  EXPECT_GT(rep.sim.ops, 100u);
  EXPECT_GE(rep.sim.coverage_pct, 90.0);
  EXPECT_LE(rep.sim.coverage_pct, 110.0);
  // The skiplist charges an LLC access for the directory lookup before the
  // send, so its issue phase is nonzero.
  using obs::Phase;
  EXPECT_GT(rep.sim.phase_ns[static_cast<int>(Phase::kIssue)], 0.0);
}

// The migration run is the same host: every directory lookup, re-routes
// after a rejection included, is charged and attributed, and every
// completed op records one total. Its coverage is reported, not banded:
// a forwarded op's second hop and a deferred op's wait are nobody's phase,
// while a rejected attempt adds phases of its own.
TEST(SimAttribution, MigrationRunRecordsPhases) {
  obs::Registry::instance().reset();
  sim::RebalanceConfig cfg;
  cfg.num_cpus = 8;
  cfg.partitions = 4;
  cfg.key_range = 1 << 12;
  cfg.initial_size = 1 << 11;
  cfg.duration_ns = 6'000'000;
  cfg.migrate_chunk = 2;
  const sim::RebalanceResult r = sim::run_pim_skiplist_rebalance(cfg);
  ASSERT_GT(r.migrations, 0u);

  const obs::AttributionReport rep = fresh_report();
  ASSERT_TRUE(rep.sim.present);
  using obs::Phase;
  EXPECT_GT(rep.sim.phase_ns[static_cast<int>(Phase::kIssue)], 0.0);
  EXPECT_EQ(rep.sim.phase_count[static_cast<int>(Phase::kTotal)],
            r.all.total_ops);
  std::printf("migration run: %llu ops, %llu rejected / %llu forwarded / "
              "%llu deferred attempts, phase coverage %.1f%%\n",
              static_cast<unsigned long long>(r.all.total_ops),
              static_cast<unsigned long long>(r.rejections),
              static_cast<unsigned long long>(r.forwarded),
              static_cast<unsigned long long>(r.deferred),
              rep.sim.coverage_pct);
  RecordProperty("coverage_pct", std::to_string(rep.sim.coverage_pct));
}

// Real threads: phases tile up to scheduler noise. Combining is off so
// every response message answers exactly one requester (a fat combined
// response is one response_flight crossing shared by its whole batch,
// which deliberately under-weights that phase per op).
TEST(RuntimeAttribution, QueuePhasesCoverWithinNoise) {
  obs::Registry::instance().reset();
  runtime::PimSystem::Config config;
  config.num_vaults = 2;
  config.inject_latency = true;
  config.params = LatencyParams::paper_defaults();
  config.params.pim_ns = 20000.0;  // Lpim 20 us >> scheduler noise
  runtime::PimSystem system(config);
  core::PimFifoQueue::Options qopts;
  qopts.cpu_combining = false;
  qopts.enqueue_combining = false;
  core::PimFifoQueue queue(system, qopts);
  system.start();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 25; ++i) {
        queue.enqueue(static_cast<std::uint64_t>(t) * 100 + i);
        queue.dequeue();
      }
    });
  }
  for (auto& w : workers) w.join();
  system.stop();

  const obs::AttributionReport rep = fresh_report();
  ASSERT_TRUE(rep.runtime.present);
  EXPECT_EQ(rep.runtime.ops, 200u);
  EXPECT_GE(rep.runtime.coverage_pct, 70.0);
  EXPECT_LE(rep.runtime.coverage_pct, 130.0);
  using obs::Phase;
  EXPECT_EQ(rep.runtime.phase_count[static_cast<int>(Phase::kCombinerWait)],
            0u);
  EXPECT_GT(rep.runtime.phase_count[static_cast<int>(Phase::kCpuReceive)],
            0u);
}

TEST(AttributionJson, EmptyReportIsAnEmptyObject) {
  obs::Registry::instance().reset();
  const std::string j = obs::attribution_json(fresh_report());
  EXPECT_EQ(j, "{}");
}

TEST(AttributionJson, CarriesDomainsPhasesAndCoverage) {
  obs::Registry::instance().reset();
  using obs::Phase;
  obs::record_sim_phase(Phase::kMailboxQueue, 600);
  obs::record_sim_phase(Phase::kVaultService, 200);
  obs::record_sim_phase(Phase::kResponseFlight, 200);
  obs::record_sim_phase(Phase::kTotal, 1000);

  const obs::AttributionReport rep = fresh_report();
  ASSERT_TRUE(rep.sim.present);
  EXPECT_EQ(rep.sim.ops, 1u);
  EXPECT_DOUBLE_EQ(rep.sim.total_ns, 1000.0);
  EXPECT_DOUBLE_EQ(rep.sim.phase_sum_ns, 1000.0);
  EXPECT_DOUBLE_EQ(rep.sim.coverage_pct, 100.0);

  const std::string j = obs::attribution_json(rep);
  EXPECT_NE(j.find("\"sim\""), std::string::npos);
  EXPECT_EQ(j.find("\"runtime\""), std::string::npos);
  EXPECT_NE(j.find("\"coverage_pct\": 100"), std::string::npos);
  EXPECT_NE(j.find("\"mailbox_queue\""), std::string::npos);
  // The total histogram is the reference, not a phase.
  EXPECT_EQ(j.find("\"total\":"), std::string::npos);
}

}  // namespace
}  // namespace pimds
