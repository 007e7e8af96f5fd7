// The linearizability oracle (src/check/): hand-built histories exercising
// each sequential spec and each violation class, then recorded histories
// from every real-thread set in the library, then simulator runs recorded
// through the same types — one checker for both worlds. Real-thread queue
// histories are recorded and checked in test_fifo_checker.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "baselines/fc_structures.hpp"
#include "baselines/hoh_list.hpp"
#include "baselines/lazy_list.hpp"
#include "baselines/lockfree_skiplist.hpp"
#include "check/history.hpp"
#include "check/linearizability.hpp"
#include "check/spec.hpp"
#include "common/fifo_checker.hpp"
#include "core/pim_linked_list.hpp"
#include "core/pim_skiplist.hpp"
#include "sim/ds/linked_lists.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim_test_util.hpp"

namespace pimds {
namespace {

// TSan slows the recording runs by an order of magnitude AND lengthens the
// genuinely-concurrent windows the WGL search must permute. Shrink the
// workloads so the sanitizer CI leg finishes; schedule diversity, not
// volume, is what the TSan runs add.
#if defined(__SANITIZE_THREAD__)
#define PIMDS_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PIMDS_TSAN_BUILD 1
#endif
#endif
#ifdef PIMDS_TSAN_BUILD
constexpr std::uint64_t kSetOpsPerThread = 400;
#else
constexpr std::uint64_t kSetOpsPerThread = 1200;
#endif

check::Event ev(std::uint32_t op, std::uint64_t arg, std::uint64_t ret,
                std::uint64_t begin, std::uint64_t end,
                std::uint32_t thread = 0) {
  check::Event e;
  e.op = op;
  e.thread = thread;
  e.arg = arg;
  e.ret = ret;
  e.begin = begin;
  e.end = end;
  return e;
}

check::History history_of(std::vector<check::Event> events) {
  check::History h;
  h.events = std::move(events);
  return h;
}

// ---------------------------------------------------------------------------
// QueueSpec on hand-built histories. These mirror the FifoChecker unit tests
// (tests/test_fifo_checker.cpp) so the two checkers are visibly aligned.
// ---------------------------------------------------------------------------

TEST(QueueSpecCheck, AcceptsSequentialFifoHistory) {
  std::vector<check::Event> events;
  std::uint64_t t = 1;
  for (std::uint64_t v = 1; v <= 10; ++v) {
    events.push_back(ev(check::kEnq, v, check::kRetTrue, t, t + 1));
    t += 2;
  }
  for (std::uint64_t v = 1; v <= 10; ++v) {
    events.push_back(ev(check::kDeq, 0, v, t, t + 1));
    t += 2;
  }
  const auto r = check::check_queue_history(history_of(std::move(events)));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(QueueSpecCheck, AcceptsConcurrentEnqueuesServedInEitherOrder) {
  // enq(1) and enq(2) overlap in real time, so a dequeuer may see 2 first.
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 1, check::kRetTrue, 0, 10, 0),
      ev(check::kEnq, 2, check::kRetTrue, 5, 15, 1),
      ev(check::kDeq, 0, 2, 20, 21, 2),
      ev(check::kDeq, 0, 1, 22, 23, 2),
  }));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(QueueSpecCheck, RejectsDuplicateDequeue) {
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 7, check::kRetTrue, 0, 1),
      ev(check::kDeq, 0, 7, 2, 3),
      ev(check::kDeq, 0, 7, 4, 5),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
  EXPECT_FALSE(r.error.empty());
}

TEST(QueueSpecCheck, RejectsInventedValue) {
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 7, check::kRetTrue, 0, 1),
      ev(check::kDeq, 0, 8, 2, 3),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
}

TEST(QueueSpecCheck, RejectsFifoReorderAcrossSequentialEnqueues) {
  // enq(1) completes strictly before enq(2) begins, yet 2 is served first.
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 1, check::kRetTrue, 0, 1, 0),
      ev(check::kEnq, 2, check::kRetTrue, 2, 3, 1),
      ev(check::kDeq, 0, 2, 4, 5, 2),
      ev(check::kDeq, 0, 1, 6, 7, 2),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
}

TEST(QueueSpecCheck, EmptyDequeueRequiresAnEmptyWindow) {
  // deq -> empty strictly after enq(1) completed, nothing dequeued before:
  // no linearization point has an empty queue.
  const auto bad = check::check_queue_history(history_of({
      ev(check::kEnq, 1, check::kRetTrue, 0, 1, 0),
      ev(check::kDeq, 0, check::kRetEmpty, 2, 3, 1),
  }));
  EXPECT_EQ(bad.verdict, check::Verdict::kNotLinearizable);

  // Overlapping the enqueue, the empty result is fine: the dequeue can
  // linearize before the enqueue takes effect.
  const auto good = check::check_queue_history(history_of({
      ev(check::kEnq, 1, check::kRetTrue, 0, 10, 0),
      ev(check::kDeq, 0, check::kRetEmpty, 2, 5, 1),
      ev(check::kDeq, 0, 1, 12, 13, 1),
  }));
  EXPECT_TRUE(good.ok()) << good.error;
}

TEST(QueueSpecCheck, InitialStateExpressesPrefilledQueue) {
  check::QueueSpec::State initial;
  initial.items = {10, 11};
  EXPECT_TRUE(check::check_queue_history(history_of({
                                             ev(check::kDeq, 0, 10, 0, 1),
                                             ev(check::kDeq, 0, 11, 2, 3),
                                         }),
                                         initial)
                  .ok());
  EXPECT_FALSE(check::check_queue_history(history_of({
                                              ev(check::kDeq, 0, 11, 0, 1),
                                          }),
                                          initial)
                   .ok())
      << "pre-filled values must come out in order";
}

TEST(QueueSpecCheck, LostValueIsLinearizableButFailsFifoCheckerDrained) {
  // A value enqueued and never dequeued IS linearizable — "the history just
  // ended" is a legal explanation. FifoChecker's drained=true mode checks a
  // STRONGER property (completeness after a full drain) that only makes
  // sense with its out-of-band knowledge that the queue was emptied. This
  // is the one deliberate semantic difference between the two checkers.
  const auto r = check::check_queue_history(history_of({
      ev(check::kEnq, 7, check::kRetTrue, 0, 1),
  }));
  EXPECT_TRUE(r.ok()) << r.error;

  std::vector<FifoChecker::ThreadLog> logs(1);
  logs[0].record_enqueue_begin(7);
  logs[0].record_enqueue_end();
  EXPECT_FALSE(FifoChecker::check(logs, /*drained=*/true).ok);
  EXPECT_TRUE(FifoChecker::check(logs, /*drained=*/false).ok);
}

TEST(QueueSpecCheck, TinyBudgetReportsLimitReachedNotAVerdict) {
  check::CheckOptions opts;
  opts.max_explored = 1;
  const auto r = check::check_queue_history(history_of({
                                                ev(check::kEnq, 1, 1, 0, 1),
                                                ev(check::kEnq, 2, 1, 2, 3),
                                                ev(check::kDeq, 0, 1, 4, 5),
                                                ev(check::kDeq, 0, 2, 6, 7),
                                            }),
                                            {}, opts);
  EXPECT_EQ(r.verdict, check::Verdict::kLimitReached);
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// SetSpec and MapSpec on hand-built histories.
// ---------------------------------------------------------------------------

TEST(SetSpecCheck, AcceptsSequentialPerKeyHistoryAndPartitions) {
  const auto r = check::check_set_history(history_of({
      // Setup insert: key 5 present from the start (time-0 event).
      ev(check::kAdd, 5, check::kRetTrue, 0, 0),
      ev(check::kContains, 5, check::kRetTrue, 1, 2),
      ev(check::kRemove, 5, check::kRetTrue, 3, 4),
      ev(check::kContains, 5, check::kRetFalse, 5, 6),
      ev(check::kAdd, 5, check::kRetTrue, 7, 8),
      // Independent key: its events check in a separate partition.
      ev(check::kAdd, 9, check::kRetTrue, 1, 2),
      ev(check::kRemove, 9, check::kRetTrue, 3, 4),
  }));
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.partitions, 2u);
}

TEST(SetSpecCheck, RejectsContainsContradictingSetupInsert) {
  const auto r = check::check_set_history(history_of({
      ev(check::kAdd, 5, check::kRetTrue, 0, 0),
      ev(check::kContains, 5, check::kRetFalse, 1, 2),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
  EXPECT_NE(r.error.find("key 5"), std::string::npos) << r.error;
}

TEST(SetSpecCheck, RejectsDoubleSuccessfulAdd) {
  const auto r = check::check_set_history(history_of({
      ev(check::kAdd, 3, check::kRetTrue, 0, 1),
      ev(check::kAdd, 3, check::kRetTrue, 2, 3),
  }));
  EXPECT_EQ(r.verdict, check::Verdict::kNotLinearizable);
}

TEST(SetSpecCheck, AcceptsContainsFalseOverlappingTheAdd) {
  const auto r = check::check_set_history(history_of({
      ev(check::kAdd, 9, check::kRetTrue, 0, 10, 0),
      ev(check::kContains, 9, check::kRetFalse, 1, 2, 1),
      ev(check::kContains, 9, check::kRetTrue, 12, 13, 1),
  }));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(MapSpecCheck, LastWriterWinsReadsAndErase) {
  const auto good = check::check_history<check::MapSpec>(history_of({
      ev(check::kAdd, 4, /*written value=*/42, 0, 1),
      ev(check::kContains, 4, 42, 2, 3),
      ev(check::kAdd, 4, 43, 4, 5),
      ev(check::kContains, 4, 43, 6, 7),
      ev(check::kRemove, 4, check::kRetTrue, 8, 9),
      ev(check::kContains, 4, check::kRetEmpty, 10, 11),
  }));
  EXPECT_TRUE(good.ok()) << good.error;

  const auto bad = check::check_history<check::MapSpec>(history_of({
      ev(check::kAdd, 4, 42, 0, 1),
      ev(check::kContains, 4, 43, 2, 3),
  }));
  EXPECT_EQ(bad.verdict, check::Verdict::kNotLinearizable);
}

// ---------------------------------------------------------------------------
// Real-thread harnesses: record check/ histories from every set in the
// library, then check them. (Every real-thread queue is recorded and checked
// by test_fifo_checker.cpp, against both oracles at once.)
// ---------------------------------------------------------------------------

/// Drive any add/remove/contains set with recording threads over a small
/// key range (small ranges maximize per-key contention, which is where
/// linearizability bugs live) and return the merged history.
template <typename Set>
check::History record_set_run(Set& set, int num_threads,
                              std::uint64_t ops_per_thread,
                              std::uint64_t key_range, std::uint64_t seed) {
  check::HistoryRecorder recorder(num_threads);
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      check::ThreadLog& log = recorder.log(t);
      std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
      for (std::uint64_t i = 0; i < ops_per_thread; ++i) {
        const std::uint64_t key = 1 + rng() % key_range;
        const std::uint64_t dice = rng() % 10;
        if (dice < 3) {
          log.begin(check::kAdd, key);
          const bool ok = set.add(key);
          log.end(ok ? check::kRetTrue : check::kRetFalse);
        } else if (dice < 6) {
          log.begin(check::kRemove, key);
          const bool ok = set.remove(key);
          log.end(ok ? check::kRetTrue : check::kRetFalse);
        } else {
          log.begin(check::kContains, key);
          const bool ok = set.contains(key);
          log.end(ok ? check::kRetTrue : check::kRetFalse);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return recorder.collect();
}

template <typename Set>
void expect_set_linearizable(Set& set) {
  const auto r = check::check_set_history(
      record_set_run(set, 4, kSetOpsPerThread, /*key_range=*/48, /*seed=*/0x5eed));
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.partitions, 1u);
}

TEST(CheckedSetHistories, LazyListIsLinearizable) {
  baselines::LazyList set;
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, HohListIsLinearizable) {
  baselines::HohList set;
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, LockFreeSkipListIsLinearizable) {
  baselines::LockFreeSkipList set;
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, FcLinkedListIsLinearizable) {
  baselines::FcLinkedList set(/*combining=*/true);
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, FcSkipListIsLinearizable) {
  baselines::FcSkipList set(/*key_range=*/64, /*partitions=*/4);
  expect_set_linearizable(set);
}

TEST(CheckedSetHistories, PimLinkedListIsLinearizable) {
  runtime::PimSystem::Config config;
  config.num_vaults = 1;
  runtime::PimSystem system(config);
  core::PimLinkedList list(system);
  system.start();
  expect_set_linearizable(list);
  system.stop();
}

TEST(CheckedSetHistories, PimSkipListIsLinearizable) {
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimSkipList::Options options;
  options.key_max = 1 << 12;
  core::PimSkipList list(system, options);
  system.start();
  expect_set_linearizable(list);
  system.stop();
}

// ---------------------------------------------------------------------------
// Simulator harnesses: the same recorder plugged into virtual-time runs.
// Virtual timestamps are globally ordered by construction of the engine, so
// the histories check with the identical code path.
// ---------------------------------------------------------------------------

TEST(CheckedSimHistories, PimListRunIsLinearizable) {
  sim::ListConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.num_cpus = 4;
  cfg.duration_ns = 300'000;
  cfg.key_range = 128;
  cfg.initial_size = 64;
  check::HistoryRecorder recorder(cfg.num_cpus + 1);
  cfg.recorder = &recorder;
  sim::run_pim_list(cfg, /*combining=*/true);
  const auto r = check::check_set_history(recorder.collect());
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedSimHistories, PimSkipListRunIsLinearizable) {
  sim::SkipListConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.num_cpus = 6;
  cfg.duration_ns = 300'000;
  cfg.key_range = 1 << 10;
  cfg.initial_size = 256;
  check::HistoryRecorder recorder(cfg.num_cpus + 1);
  cfg.recorder = &recorder;
  sim::run_pim_skiplist(cfg, /*partitions=*/4);
  const auto r = check::check_set_history(recorder.collect());
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.partitions, 1u);
}

TEST(CheckedSimHistories, LockFreeSkipListRunIsLinearizable) {
  sim::SkipListConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.num_cpus = 6;
  cfg.duration_ns = 300'000;
  cfg.key_range = 1 << 10;
  cfg.initial_size = 256;
  check::HistoryRecorder recorder(cfg.num_cpus + 1);
  cfg.recorder = &recorder;
  sim::run_lockfree_skiplist(cfg);
  const auto r = check::check_set_history(recorder.collect());
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedSimHistories, FaaQueueRunIsLinearizable) {
  sim::QueueConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.enqueuers = 3;
  cfg.dequeuers = 3;
  cfg.duration_ns = 200'000;
  cfg.initial_nodes = 64;
  check::HistoryRecorder recorder(cfg.enqueuers + cfg.dequeuers);
  cfg.recorder = &recorder;
  sim::run_faa_queue(cfg);
  check::QueueSpec::State initial;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i)
    initial.items.push_back(i);
  const auto r =
      check::check_queue_history(recorder.collect(), std::move(initial));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedSimHistories, MsQueueRunIsLinearizable) {
  // Kept deliberately small: the CAS retry loop under contention stretches
  // each operation's real-time window across many neighbors, which is
  // exactly the worst case for the DFS. Low contention keeps it cheap while
  // still covering the ms-queue recording path.
  sim::QueueConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.enqueuers = 2;
  cfg.dequeuers = 2;
  cfg.duration_ns = 50'000;
  cfg.initial_nodes = 128;
  check::HistoryRecorder recorder(cfg.enqueuers + cfg.dequeuers);
  cfg.recorder = &recorder;
  sim::run_ms_queue(cfg);
  check::QueueSpec::State initial;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i)
    initial.items.push_back(i);
  const auto r =
      check::check_queue_history(recorder.collect(), std::move(initial));
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(CheckedSimHistories, PimQueueRunIsLinearizable) {
  sim::QueueConfig cfg;
  const test::SimSeed seed(cfg.seed);
  cfg.seed = seed;
  cfg.enqueuers = 3;
  cfg.dequeuers = 3;
  cfg.duration_ns = 200'000;
  cfg.initial_nodes = 200;
  check::HistoryRecorder recorder(cfg.enqueuers + cfg.dequeuers);
  cfg.recorder = &recorder;
  sim::PimQueueOptions opts;
  opts.segment_threshold = 64;
  sim::run_pim_queue(cfg, opts);
  check::QueueSpec::State initial;
  for (std::size_t i = 0; i < cfg.initial_nodes; ++i)
    initial.items.push_back(i);
  const auto r =
      check::check_queue_history(recorder.collect(), std::move(initial));
  EXPECT_TRUE(r.ok()) << r.error;
}

}  // namespace
}  // namespace pimds
