// Scenario: a multi-producer / multi-consumer task-dispatch pipeline built
// on the PIM FIFO queue (Section 5).
//
// Producers submit tasks, consumers execute them; the queue's enqueue and
// dequeue segments live in different vaults, so the two sides are served by
// different PIM cores in parallel. The demo validates end-to-end delivery
// (every task executed exactly once, per-producer order preserved) and
// reports how many segments the queue chained through.
#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "core/pim_fifo_queue.hpp"

int main() {
  using namespace pimds;

  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kTasksPerProducer = 50000;

  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);
  core::PimFifoQueue queue(system, {.segment_threshold = 256});
  system.start();

  std::printf("dispatching %llu tasks from %d producers to %d consumers "
              "over %zu vaults...\n",
              static_cast<unsigned long long>(kProducers * kTasksPerProducer),
              kProducers, kConsumers, config.num_vaults);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kTasksPerProducer; ++i) {
        // Task id: producer in the high bits, sequence in the low bits.
        queue.enqueue((static_cast<std::uint64_t>(p) << 32) | i);
      }
    });
  }

  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> result_sum{0};
  std::atomic<int> order_violations{0};
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::vector<std::int64_t> last(kProducers, -1);
      std::uint64_t local_sum = 0;
      while (executed.load() < kProducers * kTasksPerProducer) {
        const std::optional<std::uint64_t> task = queue.dequeue();
        if (!task) continue;  // producers still ramping up
        const auto producer = static_cast<int>(*task >> 32);
        const auto seq = static_cast<std::int64_t>(*task & 0xffffffff);
        if (seq <= last[producer]) order_violations.fetch_add(1);
        last[producer] = seq;
        local_sum += seq;  // "execute" the task
        executed.fetch_add(1);
      }
      result_sum.fetch_add(local_sum);
    });
  }
  for (auto& t : threads) t.join();
  system.stop();

  const std::uint64_t expected =
      kProducers * (kTasksPerProducer * (kTasksPerProducer - 1) / 2);
  std::printf("executed:          %llu tasks\n",
              static_cast<unsigned long long>(executed.load()));
  std::printf("checksum:          %s\n",
              result_sum.load() == expected ? "OK" : "MISMATCH");
  std::printf("per-producer FIFO: %s\n",
              order_violations.load() == 0 ? "preserved" : "VIOLATED");
  std::printf("segments chained:  %llu, stale-directory retries: %llu\n",
              static_cast<unsigned long long>(queue.segments_created()),
              static_cast<unsigned long long>(queue.rejections()));
  return order_violations.load() == 0 && result_sum.load() == expected ? 0 : 1;
}
