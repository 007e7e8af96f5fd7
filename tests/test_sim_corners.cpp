// Corner-case tests for simulator primitives not covered elsewhere:
// SimCasLine semantics, multi-sender mailbox ordering, workload mix
// distribution, and the set-size equilibrium assumption the experiments
// rely on.
#include <gtest/gtest.h>

#include <vector>

#include "sim/ds/linked_lists.hpp"
#include "sim/engine.hpp"
#include "sim/flat_combining.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"
#include "sim/workload.hpp"
#include "sim_test_util.hpp"

namespace pimds::sim {
namespace {

TEST(SimCasLine, UncontendedCasAlwaysSucceeds) {
  Engine engine;
  int successes = 0;
  engine.spawn("solo", [&](Context& ctx) {
    SimCasLine line;
    for (int i = 0; i < 10; ++i) {
      const auto token = line.read(ctx);
      ctx.advance(50);
      if (line.compare_and_swap(ctx, token)) ++successes;
    }
  });
  engine.run();
  EXPECT_EQ(successes, 10);
}

TEST(SimCasLine, ConcurrentCasesFailAgainstWinners) {
  Engine engine;
  SimCasLine line;
  int successes = 0;
  int failures = 0;
  for (int t = 0; t < 8; ++t) {
    engine.spawn("t", [&](Context& ctx) {
      // All read "simultaneously", then all try to CAS: exactly one can
      // win the first round.
      const auto token = line.read(ctx);
      ctx.advance(100);
      if (line.compare_and_swap(ctx, token)) {
        ++successes;
      } else {
        ++failures;
      }
    });
  }
  engine.run();
  EXPECT_EQ(successes, 1);
  EXPECT_EQ(failures, 7);
}

TEST(SimMailbox, InterleavesManySendersWithoutLoss) {
  Engine engine;
  Mailbox<int> box;
  constexpr int kSenders = 6;
  constexpr int kEach = 200;
  std::vector<int> last_per_sender(kSenders, -1);
  int received = 0;
  bool fifo_ok = true;
  engine.spawn("receiver", [&](Context& ctx) {
    for (int i = 0; i < kSenders * kEach; ++i) {
      const int msg = box.recv(ctx);
      const int sender = msg / 1000;
      const int seq = msg % 1000;
      if (seq <= last_per_sender[sender]) fifo_ok = false;
      last_per_sender[sender] = seq;
      ++received;
    }
  });
  for (int s = 0; s < kSenders; ++s) {
    engine.spawn("sender", [&, s](Context& ctx) {
      for (int i = 0; i < kEach; ++i) {
        box.send(ctx, s * 1000 + i);
        ctx.advance(ctx.rng().next_below(50));
      }
    });
  }
  engine.run();
  EXPECT_EQ(received, kSenders * kEach);
  EXPECT_TRUE(fifo_ok) << "per-sender FIFO violated in the sim mailbox";
}

TEST(Workload, MixFractionsAreRespected) {
  Xoshiro256 rng(12);
  SetOpMix mix{0.2, 0.5};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 60000; ++i) {
    ++counts[static_cast<int>(pick_op(rng, mix))];
  }
  EXPECT_NEAR(counts[0], 12000, 600);  // add
  EXPECT_NEAR(counts[1], 30000, 800);  // remove
  EXPECT_NEAR(counts[2], 18000, 700);  // contains
}

TEST(Equilibrium, BalancedMixKeepsSetNearHalfTheKeyRange) {
  // The experiments size sets at key_range/2 because balanced add/remove on
  // uniform keys converges there; verify the fixed point is actually
  // attracting from both sides.
  const test::SimSeed seed;
  for (std::size_t initial : {100u, 400u, 700u}) {
    ListConfig cfg;
    cfg.seed = seed;
    cfg.num_cpus = 4;
    cfg.key_range = 800;
    cfg.initial_size = initial;
    cfg.duration_ns = 400'000'000;  // long run so the size can drift
    // Use the fastest list so many operations happen.
    Engine engine(cfg.params, cfg.seed);
    core::SortedList<> list;
    Xoshiro256 setup(cfg.seed);
    list.populate(setup, cfg.initial_size, cfg.key_range);
    engine.spawn("driver", [&](Context& ctx) {
      for (int i = 0; i < 60000; ++i) {
        const SetOp op = pick_op(ctx.rng(), cfg.mix);
        list.execute(op, ctx.rng().next_in(1, cfg.key_range),
                     hop_charge(ctx, MemClass::kLlc));
      }
    });
    engine.run();
    EXPECT_NEAR(static_cast<double>(list.size()), 400.0, 60.0)
        << "initial size " << initial;
  }
}

TEST(SimFlatCombinerHarness, ServesEveryRequestExactlyOnce) {
  Engine engine;
  SimFlatCombiner<int, int> fc;
  std::uint64_t sum = 0;
  std::uint64_t expected = 0;
  for (int t = 0; t < 6; ++t) {
    engine.spawn("t", [&, t](Context& ctx) {
      for (int i = 1; i <= 300; ++i) {
        const int req = t * 1000 + i;
        const int res = fc.submit(
            ctx, req, [&](Context& cctx, auto& batch) {
              cctx.charge(MemClass::kLlc, batch.size());
              for (auto& p : batch) {
                sum += static_cast<std::uint64_t>(p.request);
                p.slot->set(cctx, p.request);
              }
            });
        if (res != req) ADD_FAILURE() << "wrong result routed";
        ctx.advance(ctx.rng().next_below(100));
      }
    });
  }
  for (int t = 0; t < 6; ++t) {
    for (int i = 1; i <= 300; ++i) {
      expected += static_cast<std::uint64_t>(t * 1000 + i);
    }
  }
  engine.run();
  EXPECT_EQ(sum, expected);
  EXPECT_EQ(fc.pending_count(), 0u);
}

}  // namespace
}  // namespace pimds::sim
