// Google-benchmark microbenchmarks for the substrate primitives: fiber
// switches, virtual-time scheduling, the MPMC mailbox transport,
// epoch-based reclamation (guard and retire), RNG, the latency injector,
// and the wake-up of the runtime's sleeping waits. These bound the
// overheads that the emulation adds on top of the modeled latencies.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/latency.hpp"
#include "common/mpmc_queue.hpp"
#include "common/ebr.hpp"
#include "common/rng.hpp"
#include "common/spinwait.hpp"
#include "common/timing.hpp"
#include "common/zipf.hpp"
#include "core/vault_index.hpp"
#include "obs/obs.hpp"
#include "runtime/mailbox.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace {

using namespace pimds;

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

void BM_XoshiroBounded(benchmark::State& state) {
  Xoshiro256 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(12345));
}
BENCHMARK(BM_XoshiroBounded);

void BM_Zipf(benchmark::State& state) {
  Xoshiro256 rng(1);
  ZipfGenerator zipf(1 << 20, 0.99);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_Zipf);

void BM_FiberSwitchPair(benchmark::State& state) {
  sim::Fiber* self = nullptr;
  bool stop = false;
  sim::Fiber fiber([&] {
    while (!stop) self->yield_to_resumer();
  });
  self = &fiber;
  for (auto _ : state) fiber.resume();
  stop = true;
  fiber.resume();
}
BENCHMARK(BM_FiberSwitchPair);

void BM_SimEventDispatch(benchmark::State& state) {
  // Cost of one scheduled slice (sync -> dispatch -> resume), amortized
  // over a batch of slices inside one engine run.
  constexpr std::uint64_t kBatch = 10000;
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn("a", [&](sim::Context& ctx) {
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        ctx.advance(1);
        ctx.sync();
      }
    });
    engine.run();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBatch));
}
BENCHMARK(BM_SimEventDispatch);

void BM_MpmcPushPop(benchmark::State& state) {
  MpmcQueue<std::uint64_t> q(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    q.push(i++);
    benchmark::DoNotOptimize(q.try_pop());
  }
}
BENCHMARK(BM_MpmcPushPop);

// --- Epoch-based reclamation (the numbers behind DESIGN.md §5f). ---
// Named domains, so every --json run carries the reclaim.micro.ebr.*
// registry metrics alongside the records.

/// Guard enter/exit: pins the epoch (a store plus a seq_cst fence), then
/// unpins it.
void BM_ReclaimGuard(benchmark::State& state) {
  EbrDomain domain("micro");
  for (auto _ : state) {
    EbrDomain::Guard guard(domain);
    benchmark::DoNotOptimize(&guard);
  }
}
BENCHMARK(BM_ReclaimGuard);

/// Retire throughput including the amortized epoch advance every
/// kRetireBatch retires.
void BM_ReclaimRetire(benchmark::State& state) {
  EbrDomain domain("micro");
  for (auto _ : state) {
    auto* node = new std::uint64_t(7);
    EbrDomain::Guard guard(domain);
    guard.retire(node);
  }
  domain.flush();
}
BENCHMARK(BM_ReclaimRetire);

// --- Telemetry-plane costs (the numbers behind docs/OBSERVABILITY.md's
// "Telemetry & LoadMap" section). BM_MetricsSnapshot/BM_DeltaSnapshot/
// BM_TelemetryLine together bound one sampler tick; BM_LoadMapRecord is
// the per-op cost the LoadMap adds to the vault service path.

void BM_MetricsSnapshot(benchmark::State& state) {
  // Populate a registry comparable to a real bench run so the merge cost
  // is realistic (the process-wide registry already holds the runtime's
  // metrics from other benchmarks in this binary).
  auto& reg = obs::Registry::instance();
  for (int i = 0; i < 64; ++i) {
    reg.counter("micro.snap.c" + std::to_string(i)).add(1);
  }
  for (auto _ : state) {
    obs::MetricsSnapshot snap = reg.snapshot();
    benchmark::DoNotOptimize(snap.counters.data());
  }
}
BENCHMARK(BM_MetricsSnapshot);

void BM_DeltaSnapshot(benchmark::State& state) {
  // One sampler window: full snapshot + diff against the retained
  // baseline. This is what obs::Sampler pays per tick before serializing.
  auto& reg = obs::Registry::instance();
  reg.counter("micro.delta.c").add(1);
  obs::DeltaBaseline baseline;
  (void)reg.delta_snapshot(baseline);  // prime, like Sampler::start()
  for (auto _ : state) {
    obs::MetricsSnapshot delta = reg.delta_snapshot(baseline);
    benchmark::DoNotOptimize(delta.counters.data());
  }
}
BENCHMARK(BM_DeltaSnapshot);

void BM_TelemetryLine(benchmark::State& state) {
  // JSONL serialization of one windowed delta (no file I/O).
  auto& reg = obs::Registry::instance();
  reg.counter("micro.line.c").add(1);
  reg.histogram("micro.line.h").record(123);
  obs::DeltaBaseline baseline;
  const obs::MetricsSnapshot delta = reg.delta_snapshot(baseline);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::telemetry_line(delta, seq++, 1'000'000, 100'000'000));
  }
}
BENCHMARK(BM_TelemetryLine);

void BM_LoadMapRecord(benchmark::State& state) {
  // Hot-path cost on the vault service loop: sharded counter bump + range
  // bucket + SpaceSaving sketch update, Zipf-keyed so the sketch sees the
  // eviction path it sees in production.
  obs::LoadMap::Options opts;
  opts.num_vaults = 8;
  opts.key_min = 1;
  opts.key_max = 1 << 15;
  opts.registry_prefix = "";  // stand-alone: skip registry registration
  obs::LoadMap map(opts);
  Xoshiro256 rng(1);
  ZipfGenerator zipf(1 << 15, 0.99);
  for (auto _ : state) {
    const std::uint64_t key = zipf.next(rng) + 1;
    map.record(key & 7, key);
  }
}
BENCHMARK(BM_LoadMapRecord);

/// The skip list's vault_service unit: one VaultIndex::contains on
/// perfbench's per-vault shape, `range(0)` distinct uniform keys in
/// [1, 2^16], over perfbench's windowed domain [1, 2^17] (range(1) = 1) or
/// one tree over the widest domain an index takes, [0, 2^44 - 1], whose
/// 2^32-key window 0 holds every key (range(1) = 0). ns/op is the host's
/// search cost with latency injection off; reads_per_op is the node reads
/// a runtime vault charges at one Lpim each.
void BM_VaultIndexContains(benchmark::State& state) {
  const auto keys = static_cast<std::size_t>(state.range(0));
  runtime::Vault vault(0, 16u << 20);
  std::optional<core::VaultIndex> index;
  if (state.range(1) != 0) {
    index.emplace(vault, 1, std::uint64_t{1} << 17);
  } else {
    index.emplace(vault, 0, core::VaultIndex::kMaxKeySpan - 1);
  }
  Xoshiro256 rng(1);
  while (index->size() < keys) index->add(1 + rng.next_below(1u << 16));
  std::uint64_t reads = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index->contains(1 + rng.next_below(1u << 16),
                        [&reads](std::uint64_t n) { reads += n; }));
  }
  state.counters["reads_per_op"] = static_cast<double>(reads) /
                                   static_cast<double>(state.iterations());
}
BENCHMARK(BM_VaultIndexContains)
    ->ArgNames({"keys", "windowed"})
    ->Args({8192, 1})
    ->Args({8192, 0})
    ->Args({34000, 1})
    ->Args({34000, 0});

/// The skewed vault_service unit: perfbench skiplist_skew_write's mix (25%
/// add, 25% remove, 50% contains on Zipf(0.99) keys) through one VaultIndex
/// over [1, 2^17] after a 16,384-key uniform prefill. ns/op includes the
/// key and op draws; reads_per_op is the node reads charged per op.
void BM_VaultIndexSkewMix(benchmark::State& state) {
  constexpr std::uint64_t kKeyMax = std::uint64_t{1} << 17;
  runtime::Vault vault(0, 16u << 20);
  core::VaultIndex index(vault, 1, kKeyMax);
  Xoshiro256 rng(1);
  while (index.size() < 16384) index.add(1 + rng.next_below(kKeyMax));
  const ZipfGenerator zipf(kKeyMax, 0.99);
  std::uint64_t reads = 0;
  for (auto _ : state) {
    const std::uint64_t pick = rng.next_below(100);
    const std::uint64_t key = 1 + zipf.next(rng);
    benchmark::DoNotOptimize(
        index.execute(pick < 25   ? core::SetOp::kAdd
                      : pick < 50 ? core::SetOp::kRemove
                                  : core::SetOp::kContains,
                      key, [&reads](std::uint64_t n) { reads += n; }));
  }
  state.counters["reads_per_op"] = static_cast<double>(reads) /
                                   static_cast<double>(state.iterations());
}
BENCHMARK(BM_VaultIndexSkewMix);

void BM_LatencyInjectionPim(benchmark::State& state) {
  auto& inj = LatencyInjector::instance();
  LatencyParams lp;
  lp.pim_ns = static_cast<double>(state.range(0));
  inj.configure(lp);
  inj.set_enabled(true);
  for (auto _ : state) charge_pim_access();
  inj.set_enabled(false);
}
BENCHMARK(BM_LatencyInjectionPim)->Arg(200)->Arg(1000)->Arg(5000);

// --- Slot wake-up: how late the runtime's sleeping waits return. ---
// Every round trip ends in one of these (ResponseSlot::await sleeps through
// the reply flight, the vault's idle loop through the request flight), so
// their overshoot is the per-wait floor under the cpu_receive and
// mailbox_queue phases. Counters are in ns; each iteration is one wait.

void report_overshoot(benchmark::State& state,
                      std::vector<std::uint64_t>& late_ns) {
  if (late_ns.empty()) return;
  std::sort(late_ns.begin(), late_ns.end());
  double sum = 0.0;
  for (const std::uint64_t v : late_ns) sum += static_cast<double>(v);
  state.counters["overshoot_mean_ns"] =
      sum / static_cast<double>(late_ns.size());
  state.counters["overshoot_p99_ns"] =
      static_cast<double>(late_ns[(late_ns.size() - 1) * 99 / 100]);
}

/// wait_until_ns at a deadline `range(0)` us out: how far past the deadline
/// it returns. Below its sleep threshold it only spins; past it, it sleeps
/// to the deadline minus its slack and spins the tail.
void BM_WaitUntilOvershoot(benchmark::State& state) {
  const auto ahead_ns = static_cast<std::uint64_t>(state.range(0)) * 1000;
  std::vector<std::uint64_t> late_ns;
  late_ns.reserve(state.max_iterations);
  for (auto _ : state) {
    const std::uint64_t deadline = now_ns() + ahead_ns;
    wait_until_ns(deadline);
    late_ns.push_back(now_ns() - deadline);
  }
  report_overshoot(state, late_ns);
}
BENCHMARK(BM_WaitUntilOvershoot)
    ->Arg(10)->Arg(30)->Arg(100)->Iterations(2000)->UseRealTime();

/// One SpinWait sleep step (its first, 2 us sleep): how far past the
/// requested sleep the step returns. This is the raw timed-sleep wake-up
/// latency, with nothing spinning the tail.
void BM_SpinWaitSleepStep(benchmark::State& state) {
  constexpr std::uint64_t kFirstSleepNs = 2'000;
  std::vector<std::uint64_t> late_ns;
  late_ns.reserve(state.max_iterations);
  for (auto _ : state) {
    state.PauseTiming();
    SpinWait spin(0);
    for (int i = 0; i < 64; ++i) spin.wait();  // the yield tier
    state.ResumeTiming();
    const std::uint64_t t0 = now_ns();
    spin.wait();
    const std::uint64_t took = now_ns() - t0;
    late_ns.push_back(took > kFirstSleepNs ? took - kFirstSleepNs : 0);
  }
  report_overshoot(state, late_ns);
}
BENCHMARK(BM_SpinWaitSleepStep)->Iterations(2000)->UseRealTime();

/// ResponseSlot::await on a reply published `range(0)` us after the wait
/// starts, delivered Lmessage = 30 us after its publish (Lpim = 10 us, the
/// benches' injected scale): how far past the delivery instant the waiter
/// resumes. This is the unit cost behind the cpu_receive phase: the
/// publish wait's SpinWait steps can land past the delivery, while a
/// waiter that wakes inside the flight spins to the instant.
void BM_AwaitLateness(benchmark::State& state) {
  const auto delay_ns = static_cast<std::uint64_t>(state.range(0)) * 1000;
  LatencyInjector& injector = LatencyInjector::instance();
  const LatencyParams saved = injector.params();
  const bool was_enabled = injector.enabled();
  LatencyParams lp;
  lp.pim_ns = 10'000.0;
  injector.configure(lp);
  injector.set_enabled(true);  // the await's step cap follows injection
  const auto flight_ns = static_cast<std::uint64_t>(lp.message());

  runtime::ResponseSlot<int> slot;
  std::atomic<std::uint64_t> issued{0};  // wait start of the current round
  std::atomic<std::uint64_t> ready{0};   // its delivery instant
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    std::uint64_t last = 0;
    for (;;) {
      SpinWait spin;
      std::uint64_t start = 0;
      while ((start = issued.load(std::memory_order_acquire)) == last) {
        if (stop.load(std::memory_order_acquire)) return;
        spin.wait();
      }
      last = start;
      wait_until_ns(start + delay_ns);
      const std::uint64_t at = now_ns() + flight_ns;
      ready.store(at, std::memory_order_relaxed);
      slot.publish(1, at);
    }
  });
  std::vector<std::uint64_t> late_ns;
  late_ns.reserve(state.max_iterations);
  for (auto _ : state) {
    issued.store(now_ns(), std::memory_order_release);
    benchmark::DoNotOptimize(slot.await());
    late_ns.push_back(now_ns() - ready.load(std::memory_order_relaxed));
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  injector.configure(saved);
  injector.set_enabled(was_enabled);
  report_overshoot(state, late_ns);
}
BENCHMARK(BM_AwaitLateness)
    ->Arg(10)->Arg(50)->Arg(100)->Arg(300)->Iterations(1000)->UseRealTime();

}  // namespace

namespace {

// Bridges google-benchmark's reporting into the repo's own JSON schema so
// BENCH_micro_primitives.json has the same {bench, metrics, records} shape
// as every other binary (it used to emit google-benchmark's native format,
// which downstream tooling could not parse uniformly).
class ForwardingReporter : public benchmark::ConsoleReporter {
 public:
  explicit ForwardingReporter(pimds::bench::JsonReporter& json)
      : json_(json) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type != Run::RT_Iteration) continue;
      double ops = 0.0;
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        ops = items->second;
      } else if (run.real_accumulated_time > 0.0) {
        ops = static_cast<double>(run.iterations) / run.real_accumulated_time;
      }
      json_.record(run.benchmark_name(), {}, ops);
      // User counters (e.g. the wake-up overshoots) become top-level
      // facts named <benchmark>.<counter>.
      for (const auto& [counter, value] : run.counters) {
        if (counter == "items_per_second") continue;
        json_.note(run.benchmark_name() + "." + counter, value);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  pimds::bench::JsonReporter& json_;
};

}  // namespace

// Same CLI contract as the other bench binaries: `--json <file>` emits a
// schema-consistent result file (and --trace/--no-obs work too). The repo
// flags are stripped before benchmark::Initialize sees the argument list.
int main(int argc, char** argv) {
  pimds::bench::JsonReporter json(argc, argv, "micro_primitives");
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--trace" || arg == "--telemetry" ||
        arg == "--telemetry-interval-ms") {
      ++i;  // skip the flag's value as well
      continue;
    }
    if (arg == "--no-obs") continue;
    args.push_back(argv[i]);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  ForwardingReporter reporter(json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
