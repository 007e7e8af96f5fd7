// The FIFO history checker itself, then the checker applied to every real
// queue in the library (baselines and the PIM queue, with and without
// fat-node combining).
//
// checked_run cross-validates the two oracles on ONE execution: each run is
// recorded (queue_history_harness.hpp) both as FifoChecker logs (the fast
// path: multiset balance, per-producer order, real-time cross-producer
// order, completeness when drained) and as a check/ history verified by the
// general linearizability checker (check/linearizability.hpp). Agreement on
// every run is the evidence that the fast FIFO invariants and the QueueSpec
// describe the same correctness condition — except for
// completeness-when-drained, which only FifoChecker can state (see
// QueueSpecCheck.LostValueIsLinearizableButFailsFifoCheckerDrained).
#include <gtest/gtest.h>

#include <vector>

#include "baselines/faa_queue.hpp"
#include "baselines/fc_structures.hpp"
#include "baselines/ms_queue.hpp"
#include "check/linearizability.hpp"
#include "common/fifo_checker.hpp"
#include "core/pim_fifo_queue.hpp"
#include "queue_history_harness.hpp"

namespace pimds {
namespace {

// TSan instrumentation slows the cross-validated runs (and the WGL check
// over the recorded history, which cannot partition a queue) by an order of
// magnitude. The schedule diversity TSan adds does not need the volume, so
// shrink the per-producer count rather than time out the sanitizer CI leg.
#if defined(__SANITIZE_THREAD__)
#define PIMDS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIMDS_TSAN_BUILD 1
#endif
#endif
#ifdef PIMDS_TSAN_BUILD
constexpr std::uint64_t kPerProducer = 400;
#else
constexpr std::uint64_t kPerProducer = 2500;
#endif

TEST(FifoChecker, AcceptsACorrectSequentialHistory) {
  std::vector<FifoChecker::ThreadLog> logs(1);
  for (std::uint64_t v = 1; v <= 10; ++v) {
    logs[0].record_enqueue_begin(v);
    logs[0].record_enqueue_end();
  }
  for (std::uint64_t v = 1; v <= 10; ++v) logs[0].record_dequeue(v);
  const auto r = FifoChecker::check(logs, /*drained=*/true);
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(FifoChecker, CatchesDuplicateDequeue) {
  std::vector<FifoChecker::ThreadLog> logs(1);
  logs[0].record_enqueue_begin(7);
  logs[0].record_enqueue_end();
  logs[0].record_dequeue(7);
  logs[0].record_dequeue(7);
  EXPECT_FALSE(FifoChecker::check(logs, true).ok);
}

TEST(FifoChecker, CatchesInventedValue) {
  std::vector<FifoChecker::ThreadLog> logs(1);
  logs[0].record_enqueue_begin(7);
  logs[0].record_enqueue_end();
  logs[0].record_dequeue(8);
  EXPECT_FALSE(FifoChecker::check(logs, false).ok);
}

TEST(FifoChecker, CatchesLossWhenDrained) {
  std::vector<FifoChecker::ThreadLog> logs(1);
  logs[0].record_enqueue_begin(7);
  logs[0].record_enqueue_end();
  EXPECT_FALSE(FifoChecker::check(logs, /*drained=*/true).ok);
  EXPECT_TRUE(FifoChecker::check(logs, /*drained=*/false).ok);
}

TEST(FifoChecker, CatchesPerProducerReordering) {
  std::vector<FifoChecker::ThreadLog> logs(2);
  logs[0].record_enqueue_begin(1);
  logs[0].record_enqueue_end();
  logs[0].record_enqueue_begin(2);
  logs[0].record_enqueue_end();
  logs[1].record_dequeue(2);  // producer 0's second value first: FIFO broken
  logs[1].record_dequeue(1);
  EXPECT_FALSE(FifoChecker::check(logs, true).ok);
}

TEST(FifoChecker, CatchesRealTimeInversion) {
  std::vector<FifoChecker::ThreadLog> logs(3);
  // Producer 0 enqueues 1; strictly later, producer 1 enqueues 2.
  logs[0].record_enqueue_begin(1);
  logs[0].record_enqueue_end();
  logs[1].record_enqueue_begin(2);
  logs[1].record_enqueue_end();
  // A consumer seeing 2 before 1 violates linearizable FIFO order.
  logs[2].record_dequeue(2);
  logs[2].record_dequeue(1);
  EXPECT_FALSE(FifoChecker::check(logs, true).ok);
}

/// Run BOTH checkers over one recorded execution: the fast FIFO-invariant
/// checker on its native logs, and the general linearizability checker on
/// the check/ history recorded in parallel.
template <typename Queue>
void checked_run(Queue& queue, int producers, int consumers,
                 std::uint64_t per_producer) {
  const test::QueueRun run =
      test::record_queue_run(queue, producers, consumers, per_producer);
  const auto result = FifoChecker::check(run.fifo_logs, /*drained=*/true);
  EXPECT_TRUE(result.ok) << result.error;
  const auto lin = check::check_queue_history(run.history);
  EXPECT_TRUE(lin.ok()) << lin.error;
}

TEST(CheckedQueues, MsQueuePassesTheChecker) {
  baselines::MsQueue q;
  checked_run(q, 2, 2, kPerProducer);
}

TEST(CheckedQueues, FaaQueuePassesTheChecker) {
  baselines::FaaQueue q;
  checked_run(q, 2, 2, kPerProducer);
}

TEST(CheckedQueues, FcQueuePassesTheChecker) {
  baselines::FcQueue q;
  checked_run(q, 2, 2, kPerProducer);
}

// The harness empties the queue every round of kRoundValues values per
// producer, so the PIM queues use a tiny segment threshold: each round then
// spans a chain of several segments over the vaults, with segments queued
// behind the dequeue role (a segQueue of more than one) and both hand-offs
// taken many times per round.
constexpr std::uint64_t kPimSegmentThreshold = 4;

TEST(CheckedQueues, PimQueuePassesTheChecker) {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimFifoQueue::Options options;
  options.segment_threshold = kPimSegmentThreshold;
  core::PimFifoQueue queue(system, options);
  system.start();
  checked_run(queue, 2, 2, kPerProducer);
  system.stop();
  EXPECT_GT(queue.segments_created(), kPerProducer / test::kRoundValues)
      << "every round should span several segments";
}

TEST(CheckedQueues, PimQueueWithoutFatNodesPassesTheChecker) {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimFifoQueue::Options options;
  options.segment_threshold = kPimSegmentThreshold;
  options.enqueue_combining = false;
  core::PimFifoQueue queue(system, options);
  system.start();
  checked_run(queue, 2, 2, kPerProducer);
  system.stop();
  EXPECT_GT(queue.segments_created(), kPerProducer / test::kRoundValues)
      << "every round should span several segments";
}

}  // namespace
}  // namespace pimds
