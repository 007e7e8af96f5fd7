// The bounded real-thread harness that records a queue execution for the
// FIFO checker (common/fifo_checker.hpp) and the linearizability checker
// (check/linearizability.hpp) at once.
//
// Bounded in memory and time on any host, including one with more runnable
// threads than cores:
//  - the run proceeds in rounds: each producer enqueues kRoundValues
//    values, consumers take exactly the round's values, and a barrier
//    closes the round. An operation can only overlap operations of its own
//    round, and the queue is empty at every round boundary, so the
//    linearizability search — steeply superlinear in how many operations
//    overlap — stays small per round. Without rounds, a thread preempted
//    mid-operation on a loaded host overlaps thousands of operations, and
//    the search ran for minutes through gigabytes. A queue never holds
//    more than one round's values, so a caller whose states of interest
//    need a longer queue sizes its structure to reach them within a round
//    (the PIM queue tests use a segment threshold of 4);
//  - a consumer records an empty dequeue only right after a non-empty one
//    (an empty result does not change the abstract queue, so a run of them
//    adds nothing the first one did not), so the history is at most about
//    twice the values moved, however long consumers wait for producers;
//  - a consumer yields on empty, handing its core to the producers it is
//    waiting for instead of spinning;
//  - a log that grows past the hard cap fails the test loudly, and so does
//    a round whose values stop arriving (a queue that lost one).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "check/history.hpp"
#include "common/fifo_checker.hpp"

namespace pimds::test {

/// One execution, recorded both ways.
struct QueueRun {
  std::vector<FifoChecker::ThreadLog> fifo_logs;
  check::History history;
};

/// Values each producer enqueues per round.
inline constexpr std::uint64_t kRoundValues = 8;
/// A round with no value dequeued for this long has lost one.
inline constexpr std::chrono::seconds kStallLimit{20};

/// `producers` threads each enqueue `per_producer` values tagged with their
/// id while `consumers` threads dequeue them, round by round; a final
/// single-threaded dequeue confirms the queue is empty.
template <typename Queue>
QueueRun record_queue_run(Queue& queue, int producers, int consumers,
                          std::uint64_t per_producer) {
  const std::size_t threads = static_cast<std::size_t>(producers + consumers);
  const std::uint64_t values =
      static_cast<std::uint64_t>(producers) * per_producer;
  const std::uint64_t rounds =
      (per_producer + kRoundValues - 1) / kRoundValues;
  // Per log: one event per value moved, plus one empty after each.
  const std::size_t cap = 2 * values + 2;
  QueueRun run;
  run.fifo_logs.resize(threads + 1);
  check::HistoryRecorder recorder(threads + 1);
  std::barrier round_end(static_cast<std::ptrdiff_t>(threads));
  std::atomic<std::uint64_t> taken{0};
  std::atomic<bool> stalled{false};
  std::vector<std::thread> workers;
  for (int p = 0; p < producers; ++p) {
    workers.emplace_back([&, p] {
      FifoChecker::ThreadLog& fifo = run.fifo_logs[p];
      check::ThreadLog& hist = recorder.log(p);
      std::uint64_t i = 0;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        const std::uint64_t end = std::min(per_producer, i + kRoundValues);
        for (; i < end; ++i) {
          const std::uint64_t value =
              ((static_cast<std::uint64_t>(p) + 1) << 48) | i;
          fifo.record_enqueue_begin(value);
          hist.begin(check::kEnq, value);
          queue.enqueue(value);
          hist.end(check::kRetTrue);
          fifo.record_enqueue_end();
        }
        round_end.arrive_and_wait();
      }
    });
  }
  for (int c = 0; c < consumers; ++c) {
    workers.emplace_back([&, c] {
      FifoChecker::ThreadLog& fifo = run.fifo_logs[producers + c];
      check::ThreadLog& hist = recorder.log(producers + c);
      bool last_empty = false;
      for (std::uint64_t r = 0; r < rounds; ++r) {
        const std::uint64_t target =
            static_cast<std::uint64_t>(producers) *
            std::min(per_producer, (r + 1) * kRoundValues);
        auto progress = std::chrono::steady_clock::now();
        while (!stalled.load() && taken.load() < target) {
          if (hist.size() > cap) {
            ADD_FAILURE() << "consumer " << c << " history passed its cap of "
                          << cap << " events";
            break;
          }
          hist.begin(check::kDeq, 0);
          const auto v = queue.dequeue();
          if (v.has_value()) {
            hist.end(*v);
            fifo.record_dequeue(*v);
            taken.fetch_add(1);
            last_empty = false;
            progress = std::chrono::steady_clock::now();
            continue;
          }
          if (last_empty) {
            hist.abandon();
          } else {
            hist.end(check::kRetEmpty);
            last_empty = true;
          }
          if (std::chrono::steady_clock::now() - progress > kStallLimit) {
            ADD_FAILURE() << "round " << r << ": " << target - taken.load()
                          << " enqueued values never arrived";
            stalled.store(true);
            break;
          }
          std::this_thread::yield();
        }
        round_end.arrive_and_wait();
      }
    });
  }
  for (auto& t : workers) t.join();
  check::ThreadLog& drain = recorder.log(threads);
  for (;;) {
    drain.begin(check::kDeq, 0);
    const auto v = queue.dequeue();
    drain.end(v.has_value() ? *v : check::kRetEmpty);
    if (!v.has_value()) break;
    run.fifo_logs[threads].record_dequeue(*v);
  }
  run.history = recorder.collect();
  return run;
}

}  // namespace pimds::test
