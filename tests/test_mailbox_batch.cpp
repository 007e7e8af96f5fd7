// Tests for the batched mailbox drain path: per-sender FIFO across
// deferred/pending messages, deferred-delivery timing under the
// LatencyInjector, ResponseSlot reuse, and the PimSystem batch handler.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/latency.hpp"
#include "common/timing.hpp"
#include "core/pim_fifo_queue.hpp"
#include "runtime/combiner.hpp"
#include "runtime/fat_arena.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/system.hpp"

namespace pimds::runtime {
namespace {

/// RAII: enable injection with given params for one test.
class ScopedInjection {
 public:
  explicit ScopedInjection(double pim_ns) {
    LatencyParams p;
    p.pim_ns = pim_ns;
    LatencyInjector::instance().configure(p);
    LatencyInjector::instance().set_enabled(true);
  }
  ~ScopedInjection() { LatencyInjector::instance().set_enabled(false); }
};

TEST(MailboxDrain, DrainsEverythingWithoutInjection) {
  Mailbox box(256);  // holds all 100 sends: this test drains single-threaded
  for (std::uint64_t i = 0; i < 100; ++i) {
    Message m;
    m.value = i;
    box.send(m);
  }
  std::vector<Message> batch;
  std::size_t total = 0;
  while (std::size_t n = box.drain(batch, 32)) {
    EXPECT_LE(n, 32u);
    total += n;
  }
  EXPECT_EQ(total, 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(batch[i].value, i);
  EXPECT_TRUE(box.empty());
}

TEST(MailboxDrain, RespectsMaxBatch) {
  Mailbox box(64);
  for (int i = 0; i < 10; ++i) box.send(Message{});
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 4), 4u);
  EXPECT_EQ(box.drain(batch, 4), 4u);
  EXPECT_EQ(box.drain(batch, 4), 2u);
  EXPECT_EQ(box.drain(batch, 4), 0u);
}

TEST(MailboxDrain, DefersDeliveryUnderInjection) {
  ScopedInjection inject(/*pim_ns=*/1'000'000.0);  // Lmessage = 3 ms
  Mailbox box(64);
  Message m;
  m.value = 7;
  const std::uint64_t sent = now_ns();
  box.send(m);
  const auto lmsg = static_cast<std::uint64_t>(
      LatencyInjector::instance().params().message());
  // Not deliverable yet: drain must park it, not block or return it.
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 8), 0u);
  EXPECT_LT(now_ns(), sent + lmsg) << "drain blocked on an in-flight message";
  EXPECT_FALSE(box.empty()) << "parked message must still count as queued";
  // Eventually deliverable, and not before send_time + Lmessage.
  while (box.drain(batch, 8) == 0) cpu_relax();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].value, 7u);
  EXPECT_GE(now_ns(), sent + lmsg);
  EXPECT_TRUE(box.empty());
}

TEST(MailboxDrain, PerSenderFifoAcrossPendingMessages) {
  // Staggered sends under injection: later messages from one sender are
  // still in flight while earlier ones become deliverable; drain must
  // never reorder within a sender.
  ScopedInjection inject(/*pim_ns=*/200'000.0);  // Lmessage = 600 us
  Mailbox box(256);
  constexpr int kSenders = 3;
  constexpr int kPerSender = 40;
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        Message m;
        m.sender = static_cast<std::uint32_t>(s);
        m.value = static_cast<std::uint64_t>(i);
        box.send(m);
        if (i % 8 == 0) spin_for_ns(50'000);  // stagger the in-flight set
      }
    });
  }
  std::vector<Message> batch;
  std::vector<std::int64_t> last(kSenders, -1);
  std::size_t received = 0;
  while (received < kSenders * kPerSender) {
    batch.clear();
    const std::size_t n = box.drain(batch, 16);
    for (std::size_t i = 0; i < n; ++i) {
      const Message& m = batch[i];
      EXPECT_GT(static_cast<std::int64_t>(m.value), last[m.sender])
          << "per-sender FIFO violated across the pending heap";
      last[m.sender] = static_cast<std::int64_t>(m.value);
    }
    received += n;
  }
  for (auto& t : senders) t.join();
  EXPECT_TRUE(box.empty());
}

TEST(MailboxDrain, DrainAllIgnoresDeliveryTimes) {
  ScopedInjection inject(/*pim_ns=*/10'000'000.0);  // Lmessage = 30 ms
  Mailbox box(64);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Message m;
    m.value = i;
    box.send(m);
  }
  std::vector<Message> batch;
  EXPECT_EQ(box.drain(batch, 8), 0u);  // all still in flight
  batch.clear();
  EXPECT_EQ(box.drain_all(batch), 5u);  // shutdown path: no loss, no wait
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(batch[i].value, i);
  EXPECT_TRUE(box.empty());
}

TEST(MailboxDrain, PollReadyIsNonBlocking) {
  ScopedInjection inject(/*pim_ns=*/1'000'000.0);
  Mailbox box(64);
  box.send(Message{});
  const std::uint64_t before = now_ns();
  EXPECT_FALSE(box.poll_ready().has_value());
  EXPECT_LT(now_ns() - before, 1'000'000u) << "poll_ready blocked";
  while (!box.poll_ready().has_value()) cpu_relax();
  EXPECT_TRUE(box.empty());
}

TEST(MailboxSend, CountsBackoffOnFullRing) {
  Mailbox box(2);  // tiny ring
  std::thread sender([&] {
    for (int i = 0; i < 64; ++i) box.send(Message{});
  });
  // Let the sender hit the full ring, then drain slowly.
  std::vector<Message> batch;
  std::size_t received = 0;
  while (received < 64) {
    spin_for_ns(20'000);
    batch.clear();
    received += box.drain(batch, 4);
  }
  sender.join();
  EXPECT_GT(box.send_full_spins(), 0u)
      << "full-ring stalls must be counted, not silent";
}

TEST(ResponseSlotBatch, ReuseAcrossRequestsWithDeliveryTimes) {
  ResponseSlot<std::uint64_t> slot;
  for (std::uint64_t round = 1; round <= 5; ++round) {
    const std::uint64_t ready = now_ns() + 300'000;  // 0.3 ms out
    std::thread producer([&] { slot.publish(round * 10, ready); });
    EXPECT_EQ(slot.await(), round * 10);
    EXPECT_GE(now_ns(), ready) << "await ignored the delivery time";
    producer.join();
  }
}

TEST(PimSystemBatch, BatchHandlerSeesWholeBursts) {
  PimSystem::Config config;
  config.num_vaults = 1;
  config.drain_batch = 32;
  PimSystem system(config);
  std::atomic<std::uint64_t> max_batch{0};
  system.set_batch_handler(0, [&](PimCoreApi& api, const Message* msgs,
                                  std::size_t n) {
    std::uint64_t seen = max_batch.load();
    while (n > seen && !max_batch.compare_exchange_weak(seen, n)) {
    }
    for (std::size_t i = 0; i < n; ++i) {
      static_cast<ResponseSlot<std::uint64_t>*>(msgs[i].slot)->publish(
          msgs[i].value + 1, api.reply_ready_ns());
    }
  });
  system.start();
  std::vector<std::thread> cpus;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    cpus.emplace_back([&] {
      ResponseSlot<std::uint64_t> slot;
      for (std::uint64_t i = 0; i < 2000; ++i) {
        Message m;
        m.value = i;
        m.slot = &slot;
        system.send(0, m);
        if (slot.await() != i + 1) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : cpus) t.join();
  system.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(system.messages_processed(0), 8000u);
  EXPECT_GE(max_batch.load(), 1u);
}

TEST(FatPayload, CombinerGathersWaitersIntoOneFatSpilledMessage) {
  // Deterministic combining: a leader whose send is held open keeps the
  // combiner lock while three followers publish their records, so the
  // first follower to win the lock afterwards must pop all three into ONE
  // message — more than kMessageInlineFat entries, so the batch spills to
  // the FatArena and must come back out balanced. (The end-to-end
  // closed-loop test below cannot assert combining: on a single-CPU host
  // whether requesters ever overlap in the queue is up to the scheduler.)
  const std::uint64_t outstanding_before =
      FatArena::instance().outstanding();
  RequestCombiner combiner;
  std::atomic<bool> leader_blocked{false};
  std::atomic<bool> release_leader{false};
  std::atomic<std::uint16_t> max_fat{0};

  auto record_and_consume = [&](Message& m) {
    std::uint16_t seen = max_fat.load();
    while (m.fat_count > seen && !max_fat.compare_exchange_weak(seen, m.fat_count)) {
    }
    release_fat_payload(m);  // the test stands in for the receiving core
  };
  std::thread leader([&] {
    RequestCombiner::Entry e{};
    combiner.submit(e, [&](Message& m) {
      leader_blocked.store(true, std::memory_order_release);
      while (!release_leader.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      record_and_consume(m);
    });
  });
  while (!leader_blocked.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // The leader popped only its own record and now sits inside flush()
  // holding the combiner lock. Every follower publishes, fails the lock,
  // and spins on its shipped flag.
  std::atomic<int> started{0};
  std::vector<std::thread> followers;
  for (int i = 0; i < 3; ++i) {
    followers.emplace_back([&] {
      RequestCombiner::Entry e{};
      started.fetch_add(1, std::memory_order_release);
      combiner.submit(e, record_and_consume);
    });
  }
  while (started.load(std::memory_order_acquire) < 3) {
    std::this_thread::yield();
  }
  // Grace for the slowest follower to get from `started` to its push (the
  // push is the first statement of submit); then let the leader go.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release_leader.store(true, std::memory_order_release);
  leader.join();
  for (auto& t : followers) t.join();

  EXPECT_EQ(max_fat.load(), 3u)
      << "the lock winner did not gather every waiting record";
  EXPECT_EQ(combiner.requests_combined(), 4u);
  EXPECT_EQ(combiner.max_batch(), 3u);
  EXPECT_EQ(FatArena::instance().outstanding(), outstanding_before)
      << "a spilled fat payload was never released";
}

TEST(FatPayload, ClosedLoopWorkloadBalancesTheArena) {
  // End-to-end: oversubscribed closed-loop traffic through the real queue
  // under paper-scale injection. Whatever combining the scheduler produced,
  // after the system quiesces every spilled block must have been released
  // by the serving core (outstanding delta == 0).
  const std::uint64_t outstanding_before =
      FatArena::instance().outstanding();
  PimSystem::Config config;
  config.num_vaults = 2;
  config.inject_latency = true;
  config.params.pim_ns = 10000.0;  // Lpim 10 us, Lmessage 30 us
  PimSystem system(config);
  core::PimFifoQueue queue(system, core::PimFifoQueue::Options{});
  system.start();
  constexpr int kThreads = 16;
  constexpr int kOps = 200;
  std::vector<std::thread> cpus;
  for (int t = 0; t < kThreads; ++t) {
    cpus.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        queue.enqueue(static_cast<std::uint64_t>(i));
        queue.dequeue();
      }
    });
  }
  for (auto& t : cpus) t.join();
  system.stop();
  EXPECT_GE(queue.max_request_batch(), 1u);
  EXPECT_EQ(FatArena::instance().outstanding(), outstanding_before)
      << "a spilled fat payload was never released";
}

// PIM core threads live only as long as their PimSystem, and a process
// may build many systems one after another: a block released by a thread
// that exits right after must still come back to the pool.
TEST(FatArena, RecyclesBlocksReleasedByShortLivedThreads) {
  FatArena& arena = FatArena::instance();
  const std::uint64_t allocs_before = arena.heap_allocs();
  const std::uint64_t outstanding_before = arena.outstanding();
  for (int i = 0; i < 300; ++i) {
    std::thread t([&arena] { arena.release(arena.acquire()); });
    t.join();
  }
  EXPECT_LE(arena.heap_allocs() - allocs_before, 1u)
      << "released blocks missed the pool";
  EXPECT_EQ(arena.outstanding(), outstanding_before);
}

TEST(VaultBalance, AllocFreeNetEqualsLiveSegmentsAfterFullDrain) {
  // Shutdown-time balance assertion: once every enqueued value has been
  // dequeued, the vaults' net alloc−free balance must be exactly the
  // segments the queue intentionally keeps alive — anything else means a
  // node, a segment, or a fat-payload decode leaked.
  const std::uint64_t outstanding_before =
      FatArena::instance().outstanding();
  PimSystem::Config config;
  config.num_vaults = 2;
  PimSystem system(config);
  core::PimFifoQueue::Options qopts;
  qopts.segment_threshold = 64;  // force segment churn (handoffs + destroys)
  core::PimFifoQueue queue(system, qopts);
  system.start();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        queue.enqueue(static_cast<std::uint64_t>(t) * kPerThread + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  std::size_t popped = 0;
  while (queue.dequeue().has_value()) ++popped;
  system.stop();
  EXPECT_EQ(popped, static_cast<std::size_t>(kThreads) * kPerThread);
  ASSERT_GT(queue.segments_destroyed(), 0u) << "segment churn never happened";
  std::uint64_t net = 0;
  for (std::size_t v = 0; v < system.num_vaults(); ++v) {
    net += system.vault(v).live_blocks();
  }
  EXPECT_EQ(net, queue.live_segments())
      << "vault alloc/free imbalance beyond the live segments — a leak";
  EXPECT_EQ(FatArena::instance().outstanding(), outstanding_before)
      << "a spilled fat payload was never released";
}

TEST(PimSystemBatch, PerMessageCompatPathStillWorks) {
  PimSystem::Config config;
  config.num_vaults = 1;
  config.batch_drain = false;  // seed per-message path
  PimSystem system(config);
  system.set_handler(0, [](PimCoreApi& api, const Message& m) {
    static_cast<ResponseSlot<std::uint64_t>*>(m.slot)->publish(
        m.value * 3, api.reply_ready_ns());
  });
  system.start();
  ResponseSlot<std::uint64_t> slot;
  for (std::uint64_t i = 0; i < 500; ++i) {
    Message m;
    m.value = i;
    m.slot = &slot;
    system.send(0, m);
    EXPECT_EQ(slot.await(), i * 3);
  }
  system.stop();
  EXPECT_EQ(system.messages_processed(0), 500u);
}

}  // namespace
}  // namespace pimds::runtime
