// Tests for the real-thread PIM emulation substrate: vault allocator,
// mailbox timing/ordering, response slots, and the PimSystem core loop.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstring>
#include <new>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/latency.hpp"
#include "common/spinwait.hpp"
#include "common/timing.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/system.hpp"
#include "runtime/vault.hpp"

namespace pimds::runtime {
namespace {

TEST(Vault, AllocatesAndRecyclesSizeClasses) {
  Vault vault(0, 1 << 16);
  void* a = vault.allocate(24, 8);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(vault.bytes_used(), 24u);
  vault.deallocate(a, 24, 8);
  EXPECT_EQ(vault.bytes_used(), 0u);
  // Same size class (<= 32 bytes) must reuse the freed block.
  void* b = vault.allocate(30, 8);
  EXPECT_EQ(b, a);
}

TEST(Vault, ThrowsWhenExhausted) {
  Vault vault(0, 1024);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) vault.allocate(512, 8);
      },
      std::bad_alloc);
}

TEST(Vault, FreshBlocksReadAllZero) {
  Vault vault(0, 1 << 16);
  const auto zero = [](const void* p, std::size_t bytes) {
    const auto* b = static_cast<const unsigned char*>(p);
    return std::all_of(b, b + bytes, [](unsigned char c) { return c == 0; });
  };
  void* first = vault.allocate(128, 8);
  EXPECT_TRUE(zero(first, 128));
  // A recycled block keeps what its last owner wrote; allocate_zeroed
  // passes it over for a fresh one.
  std::memset(first, 0xff, 128);
  vault.deallocate(first, 128, 8);
  void* fresh = vault.allocate_zeroed(128, 8);
  EXPECT_NE(fresh, first);
  EXPECT_TRUE(zero(fresh, 128));
  EXPECT_EQ(vault.allocate(128, 8), first);
}

TEST(Vault, UnmappableCapacityThrowsBadAlloc) {
  // 2^62 bytes exceeds any user address space, so the mapping fails at once
  // and commits nothing, whatever the host's overcommit policy.
  EXPECT_THROW(Vault(0, std::size_t{1} << 62), std::bad_alloc);
}

TEST(Vault, CreateDestroyRunsConstructors) {
  struct Probe {
    explicit Probe(int* c) : counter(c) { ++*counter; }
    ~Probe() { --*counter; }
    int* counter;
  };
  Vault vault(1, 4096);
  int live = 0;
  Probe* p = vault.create<Probe>(&live);
  EXPECT_EQ(live, 1);
  vault.destroy(p);
  EXPECT_EQ(live, 0);
}

TEST(Vault, AlignmentIsHonored) {
  Vault vault(0, 1 << 16);
  for (std::size_t align : {8u, 16u, 32u, 64u}) {
    void* p = vault.allocate(align * 3, align);  // > 256: bump path
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u);
  }
}

TEST(Vault, OffsetsRoundTripToBlockAddresses) {
  Vault vault(0, 1u << 20);
  void* a = vault.allocate(128, 8);
  void* b = vault.allocate(128, 8);
  EXPECT_NE(vault.offset_of(a), vault.offset_of(b));
  EXPECT_EQ(vault.at_offset(vault.offset_of(a)), a);
  EXPECT_EQ(vault.at_offset(vault.offset_of(b)), b);
  EXPECT_LT(vault.offset_of(b), vault.capacity());
}

/// The sleep steps a SpinWait takes, in order, until the step stops
/// changing. Deterministic: it reads the schedule, never the clock.
std::vector<std::uint32_t> sleep_schedule(SpinWait spin) {
  std::vector<std::uint32_t> steps{spin.sleep_step_ns()};
  for (int i = 0; i < 200; ++i) {
    spin.wait();  // pause and yield tiers, then one sleep per call
    if (spin.sleep_step_ns() != steps.back()) {
      steps.push_back(spin.sleep_step_ns());
    }
  }
  return steps;
}

TEST(SpinWait, SleepStepsDoubleFromTwoMicrosecondsAndStopAtTheCap) {
  using Steps = std::vector<std::uint32_t>;
  EXPECT_EQ(sleep_schedule(SpinWait(0)),
            (Steps{2'000, 4'000, 8'000, 16'000, 32'000, 50'000}));
  // Lmessage / 2 at Lpim = 10 us, the cap of the reply wait.
  EXPECT_EQ(sleep_schedule(SpinWait(0, 15'000)),
            (Steps{2'000, 4'000, 8'000, 15'000}));
  EXPECT_EQ(sleep_schedule(SpinWait(0, 1'000)), (Steps{1'000}));
  SpinWait spin(0, 15'000);
  for (int i = 0; i < 100; ++i) {
    spin.wait();
    ASSERT_LE(spin.sleep_step_ns(), 15'000u);
  }
  spin.reset();
  EXPECT_EQ(spin.sleep_step_ns(), 2'000u);
}

TEST(ResponseSlot, PublishWaitCapsItsStepAtHalfLmessageUnderInjection) {
  LatencyInjector& injector = LatencyInjector::instance();
  const LatencyParams saved = injector.params();
  const bool was_enabled = injector.enabled();
  LatencyParams lp;
  lp.pim_ns = 10'000.0;  // Lmessage = 30 us
  injector.configure(lp);
  injector.set_enabled(true);
  EXPECT_EQ(reply_wait_cap_ns(), 15'000u);
  injector.set_enabled(false);
  EXPECT_EQ(reply_wait_cap_ns(), SpinWait::kMaxSleepNs);
  lp.pim_ns = 1'000'000.0;  // Lmessage / 2 above the default cap
  injector.configure(lp);
  injector.set_enabled(true);
  EXPECT_EQ(reply_wait_cap_ns(), SpinWait::kMaxSleepNs);
  injector.configure(saved);
  injector.set_enabled(was_enabled);
}

TEST(RuntimeMailbox, DeliversAllMessagesFromManySenders) {
  Mailbox box(256);
  constexpr int kSenders = 4;
  constexpr int kPerSender = 5000;
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        Message m;
        m.sender = static_cast<std::uint32_t>(s);
        m.value = static_cast<std::uint64_t>(i);
        box.send(m);
      }
    });
  }
  int received = 0;
  std::vector<std::int64_t> last(kSenders, -1);
  while (received < kSenders * kPerSender) {
    if (auto m = box.poll()) {
      // FIFO per sender-receiver pair (Section 2's delivery guarantee).
      EXPECT_GT(static_cast<std::int64_t>(m->value), last[m->sender]);
      last[m->sender] = static_cast<std::int64_t>(m->value);
      ++received;
    }
  }
  for (auto& t : senders) t.join();
  EXPECT_TRUE(box.empty());
}

TEST(ResponseSlot, RoundTripsAndIsReusable) {
  ResponseSlot<int> slot;
  std::thread p1([&] { slot.publish(11); });
  EXPECT_EQ(slot.await(), 11);
  p1.join();
  std::thread p2([&] { slot.publish(22); });
  EXPECT_EQ(slot.await(), 22);
  p2.join();
}

TEST(ResponseSlot, AwaitHonorsDeliveryTime) {
  ResponseSlot<int> slot;
  const std::uint64_t ready = now_ns() + 2'000'000;  // 2 ms from now
  slot.publish(5, ready);
  EXPECT_EQ(slot.await(), 5);
  EXPECT_GE(now_ns(), ready);
}

TEST(PimSystem, EchoHandlerServesManyCpus) {
  PimSystem::Config config;
  config.num_vaults = 2;
  PimSystem system(config);
  for (std::size_t v = 0; v < 2; ++v) {
    system.set_batch_handler(
        v, [](PimCoreApi& api, const Message* msgs, std::size_t n) {
          for (const Message& m : std::span(msgs, n)) {
            static_cast<ResponseSlot<std::uint64_t>*>(m.slot)->publish(
                m.value * 2 + api.vault_id(), api.reply_ready_ns());
          }
        });
  }
  system.start();
  std::vector<std::thread> cpus;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    cpus.emplace_back([&, t] {
      ResponseSlot<std::uint64_t> slot;
      for (std::uint64_t i = 0; i < 2000; ++i) {
        Message m;
        m.value = i;
        m.slot = &slot;
        const std::size_t vault = (t + i) % 2;
        system.send(vault, m);
        if (slot.await() != i * 2 + vault) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : cpus) t.join();
  system.stop();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(system.messages_processed(0) + system.messages_processed(1),
            8000u);
}

TEST(PimSystem, PimToPimMessagingWorks) {
  PimSystem::Config config;
  config.num_vaults = 2;
  PimSystem system(config);
  std::atomic<std::uint64_t> relayed{0};
  // Vault 0 relays to vault 1; vault 1 records and replies to the CPU.
  system.set_batch_handler(
      0, [](PimCoreApi& api, const Message* msgs, std::size_t n) {
        for (const Message& m : std::span(msgs, n)) api.send(1, m);
      });
  system.set_batch_handler(
      1, [&](PimCoreApi& api, const Message* msgs, std::size_t n) {
        for (const Message& m : std::span(msgs, n)) {
          relayed.fetch_add(m.value);
          EXPECT_EQ(m.sender, 0u) << "PIM-to-PIM sends must stamp the sender";
          static_cast<ResponseSlot<bool>*>(m.slot)->publish(
              true, api.reply_ready_ns());
        }
      });
  system.start();
  ResponseSlot<bool> slot;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    Message m;
    m.value = i;
    m.slot = &slot;
    system.send(0, m);
    EXPECT_TRUE(slot.await());
  }
  system.stop();
  EXPECT_EQ(relayed.load(), 5050u);
}

TEST(PimSystem, IdleHandlerRunsWhenMailboxIsEmpty) {
  PimSystem::Config config;
  config.num_vaults = 1;
  PimSystem system(config);
  std::atomic<std::uint64_t> idle_calls{0};
  system.set_idle_handler(0, [&](PimCoreApi&) {
    // Finite background job: report work a bounded number of times (an
    // always-busy idle handler would stall shutdown by contract).
    return idle_calls.fetch_add(1) < 16;
  });
  system.start();
  const std::uint64_t deadline = now_ns() + 50'000'000;
  while (now_ns() < deadline && idle_calls.load() == 0) cpu_relax();
  system.stop();
  EXPECT_GT(idle_calls.load(), 0u);
}

TEST(PimSystem, InjectionDelaysMessageProcessing) {
  PimSystem::Config config;
  config.num_vaults = 1;
  config.inject_latency = true;
  config.params.pim_ns = 10000.0;  // Lmessage = 30 us: measurable
  PimSystem system(config);
  system.set_batch_handler(
      0, [](PimCoreApi& api, const Message* msgs, std::size_t n) {
        for (const Message& m : std::span(msgs, n)) {
          static_cast<ResponseSlot<std::uint64_t>*>(m.slot)->publish(
              now_ns(), api.reply_ready_ns());
        }
      });
  system.start();
  ResponseSlot<std::uint64_t> slot;
  Message m;
  m.slot = &slot;
  const std::uint64_t sent = now_ns();
  system.send(0, m);
  const std::uint64_t processed = slot.await();
  const std::uint64_t replied = now_ns();
  system.stop();
  const auto lmsg = static_cast<std::uint64_t>(config.params.message());
  EXPECT_GE(processed - sent, lmsg) << "request transfer not delayed";
  EXPECT_GE(replied - processed, lmsg) << "reply transfer not delayed";
}

TEST(PimSystem, StopDrainsPendingMessages) {
  PimSystem::Config config;
  config.num_vaults = 1;
  PimSystem system(config);
  std::atomic<int> handled{0};
  system.set_batch_handler(
      0, [&](PimCoreApi&, const Message*, std::size_t n) {
        handled.fetch_add(static_cast<int>(n));
      });
  system.start();
  for (int i = 0; i < 500; ++i) {
    Message m;
    system.send(0, m);
  }
  system.stop();  // must not lose the backlog
  EXPECT_EQ(handled.load(), 500);
}

#if defined(__linux__)
// Timer slack is per thread: the library tightens it on the threads that
// sleep inside it (the vault core, a client awaiting a reply) and on no
// other. Every thread here starts from an explicit default-sized slack, so
// the result does not depend on what earlier tests did to the test thread.
// The loops are bounded by op count, never by elapsed time: with a 1 ms
// Lmessage each op has a millisecond-scale flight to sleep through, so one
// op almost always suffices.
constexpr unsigned long kDefaultSlackNs = 50'000;
constexpr unsigned long kTightSlackNs = 1'000;

unsigned long timer_slack_ns() {
  return static_cast<unsigned long>(::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
}

TEST(TimerSlack, LibrarySleepersWakeOnTimeAndBystandersKeepTheirSlack) {
  const unsigned long saved = timer_slack_ns();
  ASSERT_EQ(::prctl(PR_SET_TIMERSLACK, kDefaultSlackNs, 0, 0, 0), 0);

  // Spawned from a thread with the default slack, before anything sleeps.
  std::atomic<bool> done{false};
  std::atomic<unsigned long> bystander_start{0};
  std::atomic<unsigned long> bystander_end{0};
  std::thread bystander([&] {
    bystander_start.store(timer_slack_ns());
    while (!done.load(std::memory_order_acquire)) std::this_thread::yield();
    bystander_end.store(timer_slack_ns());
  });

  PimSystem::Config config;
  config.num_vaults = 1;
  config.inject_latency = true;
  config.params.pim_ns = 1'000'000.0 / config.params.r1;  // Lmessage = 1 ms
  PimSystem system(config);
  std::atomic<unsigned long> handler_slack{kDefaultSlackNs};
  system.set_batch_handler(
      0, [&](PimCoreApi& api, const Message* msgs, std::size_t n) {
        handler_slack.store(timer_slack_ns());
        for (const Message& m : std::span(msgs, n)) {
          static_cast<ResponseSlot<int>*>(m.slot)->publish(
              1, api.reply_ready_ns());
        }
      });
  system.start();  // the vault thread inherits the default slack

  std::atomic<unsigned long> client_slack{0};
  std::thread client([&] {
    ASSERT_EQ(::prctl(PR_SET_TIMERSLACK, kDefaultSlackNs, 0, 0, 0), 0);
    ResponseSlot<int> slot;
    for (int op = 0; op < 200; ++op) {
      Message m;
      m.slot = &slot;
      system.send(0, m);
      ASSERT_EQ(slot.await(), 1);
      if (timer_slack_ns() <= kTightSlackNs &&
          handler_slack.load() <= kTightSlackNs) {
        break;
      }
    }
    client_slack.store(timer_slack_ns());
  });
  client.join();
  system.stop();
  done.store(true, std::memory_order_release);
  bystander.join();
  ::prctl(PR_SET_TIMERSLACK, saved, 0, 0, 0);

  EXPECT_LE(handler_slack.load(), kTightSlackNs)
      << "the vault handler ran on a thread that sleeps at the default slack";
  EXPECT_LE(client_slack.load(), kTightSlackNs)
      << "a client that slept in await() kept the default slack";
  EXPECT_EQ(bystander_start.load(), kDefaultSlackNs);
  EXPECT_EQ(bystander_end.load(), kDefaultSlackNs)
      << "a thread that never slept in the library had its slack changed";
}
#endif

}  // namespace
}  // namespace pimds::runtime
