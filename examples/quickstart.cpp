// Quickstart: the three PIM-managed data structures in ~60 lines.
//
// A PimSystem emulates the near-memory hardware of the paper (one PIM-core
// thread per vault, message passing, optional latency injection). Data
// structures install their message handlers before start(); afterwards any
// number of application threads may call them concurrently.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "core/pim_fifo_queue.hpp"
#include "core/pim_linked_list.hpp"
#include "core/pim_skiplist.hpp"
#include "runtime/system.hpp"

int main() {
  using namespace pimds;

  // 1. Configure the emulated PIM memory: 4 vaults, no latency injection
  //    (set inject_latency = true to emulate the paper's Section 3 costs).
  runtime::PimSystem::Config config;
  config.num_vaults = 4;
  runtime::PimSystem system(config);

  // 2. Construct structures BEFORE starting the system: each installs its
  //    handler on the vault(s) it owns. A linked-list lives in one vault; a
  //    skip-list partitions the key space over all vaults; a FIFO queue
  //    spreads segments across them. (One structure per PimSystem: each
  //    vault has a single message handler, like a real PIM core runs a
  //    single dispatch loop.)
  runtime::PimSystem queue_config_system(config);
  core::PimSkipList::Options skip_options;
  skip_options.key_max = 1 << 20;
  core::PimSkipList index(system, skip_options);
  core::PimFifoQueue queue(queue_config_system);

  system.start();
  queue_config_system.start();

  // 3. Use them from any thread.
  index.add(42);
  index.add(7);
  std::printf("contains(42) = %d, contains(41) = %d, size = %zu\n",
              index.contains(42), index.contains(41), index.size());
  index.remove(42);
  std::printf("after remove: contains(42) = %d\n", index.contains(42));

  for (std::uint64_t i = 0; i < 5; ++i) queue.enqueue(i * 10);
  std::printf("queue: ");
  while (auto v = queue.dequeue()) std::printf("%lu ", (unsigned long)*v);
  std::printf("(empty)\n");

  // 4. The skip-list can rebalance online (Section 4.2.1): move the suffix
  //    [1000, end-of-partition) of its first partition to vault 2.
  index.migrate(1000, 2);
  while (index.migration_active()) {
  }
  std::printf("partitions after migration:\n");
  for (const auto& e : index.partitions()) {
    std::printf("  sentinel %lu -> vault %zu\n", (unsigned long)e.sentinel,
                e.vault);
  }

  system.stop();
  queue_config_system.stop();
  return 0;
}
