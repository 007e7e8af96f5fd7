// The repo benchmark program, pimbench (perfbench/README.md).
//
//   pimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <file>]
//
// Runs one workload from one process and prints every metric by name with
// its unit, a `# host` line, and last a single JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 a
// separate traced run reports the per-layer set. Every per-layer number is
// taken from outside the library: spans around the public calls made here,
// and the counters and reports the modules already export. Metrics of a
// structure the workload does not run read 0.
//
// Workloads: 2 vaults with Section 3 latency injection at the paper
// ratios, Lpim inflated to kLpimNs, 2 closed-loop client threads. A traced
// run ends by timing the fiber simulator on the paper configuration, so
// the simulator's layers are measured on every workload.
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fifo_checker.hpp"
#include "common/latency.hpp"
#include "common/thread_utils.hpp"
#include "common/timing.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/pim_skiplist.hpp"
#include "model/linked_list_model.hpp"
#include "model/queue_model.hpp"
#include "model/skiplist_model.hpp"
#include "obs/obs.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/system.hpp"
#include "sim/ds/linked_lists.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"
#include "workload.hpp"

namespace pimbench {
namespace {

using namespace pimds;

constexpr double kLpimNs = 10'000.0;
constexpr std::size_t kVaults = 2;
constexpr std::size_t kClients = 2;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 7;

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},     {"op_p50_us", "us"},   {"op_p99_us", "us"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.enqueue.p50_us", "us"},
    {"core.enqueue.p99_us", "us"},
    {"core.dequeue.p50_us", "us"},
    {"core.dequeue.p99_us", "us"},
    {"core.contains.p50_us", "us"},
    {"core.contains.p99_us", "us"},
    {"core.add.p50_us", "us"},
    {"core.add.p99_us", "us"},
    {"core.remove.p50_us", "us"},
    {"core.remove.p99_us", "us"},
    {"core.dequeue.empty_share", "ratio"},
    {"core.add.hit_share", "ratio"},
    {"core.remove.hit_share", "ratio"},
    {"core.queue.rejections_per_kop", "1/kop"},
    {"core.queue.handoffs_per_kop", "1/kop"},
    {"core.queue.max_request_batch", "count"},
    {"core.skiplist.vault_imbalance", "ratio"},
    {"core.skiplist.combined_op_share", "ratio"},
    {"runtime.echo.p50_us", "us"},
    {"runtime.echo.p99_us", "us"},
    {"runtime.messages_per_op", "ratio"},
    {"runtime.send_full_spins_per_kop", "1/kop"},
    {"runtime.pending_hwm", "count"},
    {"runtime.vault_busy_share.max", "ratio"},
    {"runtime.vault_busy_share.min", "ratio"},
    {"phase.issue.ns_per_op", "ns"},
    {"phase.combiner_wait.ns_per_op", "ns"},
    {"phase.request_flight.ns_per_op", "ns"},
    {"phase.mailbox_queue.ns_per_op", "ns"},
    {"phase.vault_service.ns_per_op", "ns"},
    {"phase.response_flight.ns_per_op", "ns"},
    {"phase.cpu_receive.ns_per_op", "ns"},
    {"phase.coverage_pct", "%"},
    {"obs.metrics_overhead_pct", "%"},
    {"trace.overhead_pct", "%"},
    {"workload.hot_partition_share", "ratio"},
    {"workload.update_share", "ratio"},
    {"failed_op_share", "ratio"},
    {"sim.queue.host_ns_per_sim_op", "ns"},
    {"sim.skiplist.host_ns_per_sim_op", "ns"},
    {"sim.list.host_ns_per_sim_op", "ns"},
    {"sim_ops_per_host_s", "1/s"},
    {"sim_queue_mops", "Mops/s"},
    {"sim_skiplist_mops", "Mops/s"},
    {"sim_list_mops", "Mops/s"},
    {"baselines.faa_queue.sim_mops", "Mops/s"},
    {"baselines.lockfree_skiplist.sim_mops", "Mops/s"},
    {"baselines.fine_grained_list.sim_mops", "Mops/s"},
    {"model.queue.predicted_mops", "Mops/s"},
    {"model.skiplist.predicted_mops", "Mops/s"},
    {"model.list.predicted_mops", "Mops/s"},
    {"model.queue.gap_pct", "%"},
    {"model.skiplist.gap_pct", "%"},
    {"model.list.gap_pct", "%"},
};

/// The metrics of one result: exactly the names of one definition list, in
/// its order. Setting an unknown name is a bug in this file and aborts.
class MetricSet {
 public:
  template <std::size_t N>
  explicit MetricSet(const MetricDef (&defs)[N]) {
    for (const MetricDef& d : defs) values_.push_back({d, 0.0});
  }

  void set(const std::string& name, double value) {
    for (auto& [def, v] : values_) {
      if (name == def.name) {
        v = std::isfinite(value) ? value : 0.0;
        return;
      }
    }
    std::fprintf(stderr, "pimbench: unknown metric %s\n", name.c_str());
    std::abort();
  }

  void print_table() const {
    for (const auto& [def, v] : values_) {
      std::printf("  %-40s %16.6f %s\n", def.name, v, def.unit);
    }
  }

  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    bool first = true;
    for (const auto& [def, v] : values_) {
      out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": " << v
          << ", \"unit\": \"" << def.unit << "\"}";
      first = false;
    }
    out << "}";
    return out.str();
  }

 private:
  std::vector<std::pair<MetricDef, double>> values_;
};

/// obs::Phase order, without kTotal.
constexpr const char* kPhases[] = {
    "issue",         "combiner_wait",   "request_flight", "mailbox_queue",
    "vault_service", "response_flight", "cpu_receive"};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double share(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------- host

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// CPUs this process may run on, read at start-up before any thread is
/// pinned.
const std::vector<int> g_cpus = [] {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}();


std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_name() {
  char buf[256] = {};
  return gethostname(buf, sizeof(buf) - 1) == 0 ? buf : "unknown";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Machine-wide CPU time and steal time so far, in clock ticks (the
/// `cpu` line of /proc/stat). Steal is time the hypervisor ran something
/// else on this machine's virtual CPUs.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks t;
  in >> cpu;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Mean overshoot of the injection spin at the Lpim scale, in percent.
double injection_calibration_err_pct() {
  constexpr int kReps = 200;
  const auto target = static_cast<std::uint64_t>(kLpimNs);
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kReps; ++i) spin_for_ns(target);
  const double per = static_cast<double>(now_ns() - t0) / kReps;
  return 100.0 * (per / kLpimNs - 1.0);
}

/// Set while a measured window runs; the sampler counts only then.
std::atomic<bool> g_measuring{false};

/// Samples, every 10 ms of a measured window, the process's threads in
/// state R (running or runnable). It counts neither itself nor the main
/// thread, which only wakes at sub-window boundaries to read the clock and
/// /proc/stat, so the count is the vault cores and clients. Construct on
/// the main thread.
class RunnableSampler {
 public:
  RunnableSampler()
      : main_tid_(std::to_string(gettid())), thread_([this] { loop(); }) {}
  ~RunnableSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  RunnableSampler(const RunnableSampler&) = delete;
  RunnableSampler& operator=(const RunnableSampler&) = delete;

  int peak_runnable() const { return peak_runnable_.load(); }
  int peak_threads() const { return peak_threads_.load(); }

 private:
  void loop() {
    const std::string self = std::to_string(gettid());
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (!g_measuring.load(std::memory_order_relaxed)) continue;
      int runnable = 0;
      int threads = 0;
      if (DIR* dir = opendir("/proc/self/task")) {
        while (dirent* e = readdir(dir)) {
          if (e->d_name[0] == '.' || self == e->d_name) continue;
          ++threads;
          if (main_tid_ == e->d_name) continue;
          std::ifstream stat(std::string("/proc/self/task/") + e->d_name +
                             "/stat");
          std::string text((std::istreambuf_iterator<char>(stat)),
                           std::istreambuf_iterator<char>());
          const auto paren = text.rfind(')');
          if (paren != std::string::npos && paren + 2 < text.size() &&
              text[paren + 2] == 'R') {
            ++runnable;
          }
        }
        closedir(dir);
      }
      peak_runnable_.store(std::max(peak_runnable_.load(), runnable));
      peak_threads_.store(std::max(peak_threads_.load(), threads));
    }
  }

  const std::string main_tid_;
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_runnable_{0};
  std::atomic<int> peak_threads_{0};
  std::thread thread_;
};

// ---------------------------------------------------------- runtime fixture

/// Pinning, when the process may run on CPUs 0..kVaults+kClients-1: the
/// library pins vault v to CPU v, and pimbench pins client c (and the
/// main thread, which runs set-up) to CPU kVaults + c.
const bool g_pin = [] {
  for (int cpu = 0; cpu < static_cast<int>(kVaults + kClients); ++cpu) {
    if (std::find(g_cpus.begin(), g_cpus.end(), cpu) == g_cpus.end()) {
      return false;
    }
  }
  return true;
}();

void pin_client(std::size_t c) {
  if (g_pin) pin_to_cpu(kVaults + c);
}

runtime::PimSystem::Config system_config() {
  runtime::PimSystem::Config cfg;
  cfg.num_vaults = kVaults;
  cfg.inject_latency = true;
  cfg.params = LatencyParams::paper_defaults();
  cfg.params.pim_ns = kLpimNs;
  cfg.pin_cores = g_pin;
  return cfg;
}

/// One started system with its structure prefilled. Structures keep their
/// library-default Options; the skip list only gets its key domain.
struct Fixture {
  std::unique_ptr<runtime::PimSystem> system;
  std::unique_ptr<core::PimFifoQueue> queue;
  std::unique_ptr<core::PimSkipList> list;
  /// Queue histories: [0] prefill, [1..kClients] clients, [kClients+1]
  /// the final drain.
  std::vector<FifoChecker::ThreadLog> logs;
  std::uint64_t prefill_failures = 0;

  ~Fixture() {
    if (system) system->stop();  // handlers reference the structures
  }
};

/// Construct, start and prefill through the public API. Injection is
/// switched off for the prefill only, so set-up measures the library's
/// own work rather than kSkipPrefill injected traversals.
std::unique_ptr<Fixture> make_fixture(Workload w, std::uint64_t seed) {
  auto fx = std::make_unique<Fixture>();
  fx->system = std::make_unique<runtime::PimSystem>(system_config());
  if (w == Workload::kQueueMixed) {
    fx->queue = std::make_unique<core::PimFifoQueue>(*fx->system);
  } else {
    core::PimSkipList::Options opts;
    opts.key_max = kSkipKeyMax;
    fx->list = std::make_unique<core::PimSkipList>(*fx->system, opts);
  }
  fx->system->start();
  LatencyInjector::instance().set_enabled(false);
  if (fx->queue) {
    fx->logs.resize(kClients + 2);
    for (std::uint64_t i = 0; i < kQueuePrefill; ++i) {
      const std::uint64_t v = queue_tag(0, i);
      fx->logs[0].record_enqueue_begin(v);
      fx->queue->enqueue(v);
      fx->logs[0].record_enqueue_end();
    }
  } else {
    for (std::uint64_t key : skiplist_prefill(seed)) {
      fx->prefill_failures += fx->list->add(key) ? 0 : 1;
    }
  }
  LatencyInjector::instance().set_enabled(true);
  return fx;
}

// -------------------------------------------------------- closed-loop legs

/// One traced client op: the parent span (the whole op as pimbench
/// runs it) and its child span around the core public call.
struct SpanRec {
  OpKind kind;
  std::uint64_t op_start, core_start, core_end, op_end;
};

struct ClientStats {
  std::uint64_t ops = 0;
  std::array<std::uint64_t, kOpKinds> count{};
  /// Useful outcomes: dequeue returned a value, add/remove changed the set.
  std::array<std::uint64_t, kOpKinds> useful{};
  std::uint64_t hot_keys = 0;
  std::vector<double> lat_us;
  std::vector<std::uint64_t> end_ns;  ///< completion time of each sample
  std::vector<SpanRec> spans;
};

/// Latency samples each client has room for before its buffers grow.
constexpr std::size_t kSampleReserve = std::size_t{1} << 18;

/// Length of the sub-windows a measured leg is cut into: short enough to
/// find steal-free stretches on a shared host, long enough for thousands
/// of samples each.
constexpr double kSubWindowS = 0.5;

struct LegResult {
  double wall_s = 0.0;
  std::vector<ClientStats> clients;
  /// Sub-window boundaries (one more than sub-windows) and the clock ticks
  /// the hypervisor stole from the machine during each sub-window.
  std::vector<std::uint64_t> bounds_ns;
  std::vector<std::uint64_t> steal_ticks;
  /// Sub-windows the end-to-end figures are taken from: the steal-free
  /// ones, or the least-stolen quarter when fewer than that were
  /// steal-free. One stolen tick is a 10 ms stall, enough to move a p99.
  std::vector<bool> selected;

  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c.ops;
    return n;
  }
  std::uint64_t count(OpKind k) const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c.count[static_cast<std::size_t>(k)];
    return n;
  }
  std::uint64_t useful(OpKind k) const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c.useful[static_cast<std::size_t>(k)];
    return n;
  }
  std::size_t windows() const { return steal_ticks.size(); }
  std::size_t selected_windows() const {
    return static_cast<std::size_t>(
        std::count(selected.begin(), selected.end(), true));
  }
  /// Latencies of the ops that completed in each sub-window.
  std::vector<std::vector<double>> window_latencies() const {
    std::vector<std::vector<double>> win(windows());
    for (const auto& c : clients) {
      for (std::size_t i = 0; i < c.lat_us.size(); ++i) {
        const auto it = std::upper_bound(bounds_ns.begin(), bounds_ns.end(),
                                         c.end_ns[i]);
        const auto w = it - bounds_ns.begin() - 1;
        if (w >= 0 && static_cast<std::size_t>(w) < windows()) {
          win[static_cast<std::size_t>(w)].push_back(c.lat_us[i]);
        }
      }
    }
    return win;
  }
  /// Completed ops per second over the selected sub-windows.
  double ops_per_s() const {
    const auto win = window_latencies();
    double ops = 0.0;
    double ns = 0.0;
    for (std::size_t w = 0; w < windows(); ++w) {
      if (!selected[w]) continue;
      ops += static_cast<double>(win[w].size());
      ns += static_cast<double>(bounds_ns[w + 1] - bounds_ns[w]);
    }
    return share(ops, ns * 1e-9);
  }
};

/// Choose the sub-windows to report from (see LegResult::selected).
std::vector<bool> select_quiet(const std::vector<std::uint64_t>& steal) {
  std::vector<bool> use(steal.size());
  for (std::size_t w = 0; w < use.size(); ++w) use[w] = steal[w] == 0;
  const std::size_t quarter = (use.size() + 3) / 4;
  if (static_cast<std::size_t>(std::count(use.begin(), use.end(), true)) <
      quarter) {
    std::vector<std::size_t> order(use.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return steal[a] < steal[b];
    });
    std::fill(use.begin(), use.end(), false);
    for (std::size_t i = 0; i < quarter; ++i) use[order[i]] = true;
  }
  return use;
}

/// Percentile `want` over every op of the selected sub-windows.
Percentile leg_percentile(const LegResult& leg, double want) {
  const auto win = leg.window_latencies();
  std::vector<double> all;
  for (std::size_t w = 0; w < leg.windows(); ++w) {
    if (leg.selected[w]) all.insert(all.end(), win[w].begin(), win[w].end());
  }
  return tail_percentile(all, want);
}

enum class LegMode { kPlain, kTraced };

/// Run every client against the fixture for `seconds`; streams continue
/// where the previous leg left them.
LegResult run_leg(Fixture& fx, std::vector<OpStream>& streams, double seconds,
                  LegMode mode) {
  LegResult res;
  res.clients.resize(kClients);
  for (ClientStats& st : res.clients) {
    // No reallocation inside a timed loop.
    st.lat_us.reserve(kSampleReserve);
    st.end_ns.reserve(kSampleReserve);
  }
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      pin_client(c);
      ClientStats& st = res.clients[c];
      OpStream& stream = streams[c];
      FifoChecker::ThreadLog* log = fx.queue ? &fx.logs[c + 1] : nullptr;
      go.wait(false, std::memory_order_acquire);  // asleep, not runnable
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t op_start = now_ns();
        const Op op = stream.next();
        bool useful = false;
        std::uint64_t t0 = 0;
        std::uint64_t t1 = 0;
        switch (op.kind) {
          case OpKind::kEnqueue:
            log->record_enqueue_begin(op.key);
            t0 = now_ns();
            fx.queue->enqueue(op.key);
            t1 = now_ns();
            log->record_enqueue_end();
            break;
          case OpKind::kDequeue: {
            t0 = now_ns();
            const auto v = fx.queue->dequeue();
            t1 = now_ns();
            if (v) log->record_dequeue(*v);
            useful = v.has_value();
            break;
          }
          case OpKind::kContains:
            t0 = now_ns();
            useful = fx.list->contains(op.key);
            t1 = now_ns();
            break;
          case OpKind::kAdd:
            t0 = now_ns();
            useful = fx.list->add(op.key);
            t1 = now_ns();
            break;
          case OpKind::kRemove:
            t0 = now_ns();
            useful = fx.list->remove(op.key);
            t1 = now_ns();
            break;
        }
        const auto k = static_cast<std::size_t>(op.kind);
        ++st.ops;
        ++st.count[k];
        st.useful[k] += useful ? 1 : 0;
        st.hot_keys += (op.key != 0 && op.key <= kHotPartitionMax) ? 1 : 0;
        st.lat_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        st.end_ns.push_back(t1);
        if (mode == LegMode::kTraced) {
          st.spans.push_back({op.kind, op_start, t0, t1, now_ns()});
        }
      }
      if (mode == LegMode::kTraced) {
        // Spans stay in memory during the leg and go to the trace rings
        // afterwards, on this client's own track.
        const auto tid = static_cast<std::uint32_t>(100 + c);
        static constexpr const char* kCoreSpan[kOpKinds] = {
            "core.enqueue", "core.dequeue", "core.contains", "core.add",
            "core.remove"};
        for (const SpanRec& s : st.spans) {
          obs::trace_complete(obs::kNativePid, tid, "op", "perfbench",
                              s.op_start, s.op_end - s.op_start);
          obs::trace_complete(obs::kNativePid, tid,
                              kCoreSpan[static_cast<std::size_t>(s.kind)],
                              "core", s.core_start, s.core_end - s.core_start);
        }
      }
    });
  }
  const std::uint64_t t0 = now_ns();
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kSubWindowS)));
  const auto len_ns = static_cast<std::uint64_t>(seconds * 1e9 / windows);
  CpuTicks ticks = cpu_ticks();
  res.bounds_ns.push_back(t0);
  go.store(true, std::memory_order_release);
  go.notify_all();
  g_measuring.store(true, std::memory_order_relaxed);
  for (std::size_t w = 1; w <= windows; ++w) {
    const std::uint64_t until = t0 + w * len_ns;
    const std::uint64_t now = now_ns();
    if (until > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(until - now));
    }
    res.bounds_ns.push_back(now_ns());
    const CpuTicks next = cpu_ticks();
    res.steal_ticks.push_back(next.steal - ticks.steal);
    ticks = next;
  }
  g_measuring.store(false, std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  res.wall_s = static_cast<double>(res.bounds_ns.back() - t0) * 1e-9;
  res.selected = select_quiet(res.steal_ticks);
  return res;
}

/// Null batch handler round trips on a fresh system of the same config:
/// the runtime's floor with no structure work.
std::vector<double> echo_leg(double seconds) {
  runtime::PimSystem system(system_config());
  using Slot = runtime::ResponseSlot<std::uint64_t>;
  for (std::size_t v = 0; v < kVaults; ++v) {
    system.set_batch_handler(
        v, [](runtime::PimCoreApi& api, const runtime::Message* msgs,
              std::size_t n) {
          const std::uint64_t ready = api.reply_ready_ns();
          for (std::size_t i = 0; i < n; ++i) {
            static_cast<Slot*>(msgs[i].slot)->publish(msgs[i].value, ready);
          }
        });
  }
  system.start();
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> lat(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      pin_client(c);
      go.wait(false, std::memory_order_acquire);
      Slot slot;
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        runtime::Message m;
        m.kind = 1;
        m.sender = static_cast<std::uint32_t>(c);
        m.value = i;
        m.slot = &slot;
        const std::uint64_t t0 = now_ns();
        system.send((c + i) % kVaults, m);
        (void)slot.await();
        lat[c].push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      }
    });
  }
  go.store(true, std::memory_order_release);
  go.notify_all();
  g_measuring.store(true, std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  g_measuring.store(false, std::memory_order_relaxed);
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  system.stop();
  std::vector<double> all;
  for (const auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  return all;
}

/// Output checks after the last leg. Returns the number of failed ops.
std::uint64_t check_fixture(Fixture& fx, std::uint64_t adds,
                            std::uint64_t removes, std::string& why) {
  std::uint64_t failed = fx.prefill_failures;
  if (fx.prefill_failures != 0) why = "prefill add of a distinct key failed";
  if (fx.queue) {
    FifoChecker::ThreadLog& drain = fx.logs[kClients + 1];
    while (const auto v = fx.queue->dequeue()) drain.record_dequeue(*v);
    const FifoChecker::Result r = FifoChecker::check(fx.logs, true);
    if (!r.ok) {
      why = "FIFO check: " + r.error;
      ++failed;
    }
  } else {
    const std::uint64_t expect = kSkipPrefill + adds - removes;
    const std::uint64_t size = fx.list->size();
    if (size != expect) {
      why = "skip-list size " + std::to_string(size) + " != expected " +
            std::to_string(expect);
      failed += size > expect ? size - expect : expect - size;
    }
  }
  return failed;
}

struct Counters {
  obs::MetricsSnapshot snap;
  std::vector<std::uint64_t> messages, full_spins;
  std::uint64_t rejections = 0, handoffs = 0, combined = 0;
  std::vector<std::uint64_t> vault_requests;
};

Counters read_counters(Fixture& fx) {
  Counters c;
  c.snap = obs::Registry::instance().snapshot();
  for (std::size_t v = 0; v < kVaults; ++v) {
    c.messages.push_back(fx.system->messages_processed(v));
    c.full_spins.push_back(fx.system->send_full_spins(v));
  }
  if (fx.queue) {
    c.rejections = fx.queue->rejections();
    c.handoffs =
        fx.queue->segments_created() + fx.queue->segments_destroyed();
  } else {
    c.combined = fx.list->combined_ops();
    for (const auto& s : fx.list->vault_stats()) {
      c.vault_requests.push_back(s.requests);
    }
  }
  return c;
}

/// Per-layer numbers of the runtime and core modules over one leg.
void runtime_layer_metrics(Fixture& fx, const Counters& before,
                           const Counters& after, const LegResult& leg,
                           MetricSet& m) {
  const double ops = static_cast<double>(leg.ops());
  const double kops = ops * 1e-3;
  std::uint64_t msgs = 0;
  std::uint64_t spins = 0;
  std::uint64_t hwm = 0;
  double busy_max = 0.0;
  double busy_min = 1e300;
  const obs::MetricsSnapshot delta = obs::diff_snapshots(before.snap, after.snap);
  for (std::size_t v = 0; v < kVaults; ++v) {
    msgs += after.messages[v] - before.messages[v];
    spins += after.full_spins[v] - before.full_spins[v];
    hwm = std::max(hwm, fx.system->pending_high_water(v));
    const auto* busy = delta.find_counter("runtime.vault" + std::to_string(v) +
                                          ".busy_ns");
    const double b = busy ? share(static_cast<double>(busy->value) * 1e-9,
                                  leg.wall_s)
                          : 0.0;
    busy_max = std::max(busy_max, b);
    busy_min = std::min(busy_min, b);
  }
  m.set("runtime.messages_per_op", share(static_cast<double>(msgs), ops));
  m.set("runtime.send_full_spins_per_kop",
        share(static_cast<double>(spins), kops));
  m.set("runtime.pending_hwm", static_cast<double>(hwm));
  m.set("runtime.vault_busy_share.max", busy_max);
  m.set("runtime.vault_busy_share.min", busy_min);

  // Phases the library records, over the benchmark's own op count and
  // latency sum: not every structure records the library's `total`.
  const obs::PhaseAttribution& att = obs::attribution_report(delta).runtime;
  double latency_ns = 0.0;
  for (const auto& c : leg.clients) {
    for (double us : c.lat_us) latency_ns += us * 1e3;
  }
  for (std::size_t p = 0; p < std::size(kPhases); ++p) {
    m.set(std::string("phase.") + kPhases[p] + ".ns_per_op",
          share(att.phase_ns[p], ops));
  }
  m.set("phase.coverage_pct", 100.0 * share(att.phase_sum_ns, latency_ns));

  const auto useful_share = [&](OpKind k) {
    return share(static_cast<double>(leg.useful(k)),
                 static_cast<double>(leg.count(k)));
  };
  if (fx.queue) {
    const double deq = static_cast<double>(leg.count(OpKind::kDequeue));
    m.set("core.dequeue.empty_share",
          share(deq - static_cast<double>(leg.useful(OpKind::kDequeue)), deq));
    m.set("core.queue.rejections_per_kop",
          share(static_cast<double>(after.rejections - before.rejections),
                kops));
    m.set("core.queue.handoffs_per_kop",
          share(static_cast<double>(after.handoffs - before.handoffs), kops));
    m.set("core.queue.max_request_batch",
          static_cast<double>(fx.queue->max_request_batch()));
    m.set("workload.update_share", 1.0);
  } else {
    m.set("core.add.hit_share", useful_share(OpKind::kAdd));
    m.set("core.remove.hit_share", useful_share(OpKind::kRemove));
    double req_max = 0.0;
    double req_sum = 0.0;
    for (std::size_t v = 0; v < kVaults; ++v) {
      const auto r = static_cast<double>(after.vault_requests[v] -
                                         before.vault_requests[v]);
      req_max = std::max(req_max, r);
      req_sum += r;
    }
    m.set("core.skiplist.vault_imbalance",
          share(req_max, req_sum / static_cast<double>(kVaults)));
    m.set("core.skiplist.combined_op_share",
          share(static_cast<double>(after.combined - before.combined), ops));
    std::uint64_t hot = 0;
    for (const auto& c : leg.clients) hot += c.hot_keys;
    const double h = share(static_cast<double>(hot), ops);
    m.set("workload.hot_partition_share", std::max(h, 1.0 - h));
    m.set("workload.update_share",
          share(static_cast<double>(leg.count(OpKind::kAdd) +
                                    leg.count(OpKind::kRemove)),
                ops));
  }
}

void span_metrics(const LegResult& leg, MetricSet& m) {
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    std::vector<double> us;
    for (const auto& c : leg.clients) {
      for (const SpanRec& s : c.spans) {
        if (static_cast<std::size_t>(s.kind) == k) {
          us.push_back(static_cast<double>(s.core_end - s.core_start) * 1e-3);
        }
      }
    }
    const std::string base =
        std::string("core.") + op_name(static_cast<OpKind>(k));
    m.set(base + ".p50_us", tail_percentile(us, 0.50).value);
    m.set(base + ".p99_us", tail_percentile(us, 0.99).value);
  }
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string why;
};

std::string describe(const char* what, const Percentile& p) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: p%.2f of %zu samples%s", what,
                100.0 * p.q, p.samples,
                p.valid ? "" : " (too few samples: reported as 0)");
  return buf;
}

std::string describe_all(const char* what, const std::vector<double>& v) {
  std::ostringstream out;
  out << what << ":";
  for (double x : v) out << " " << x;
  return out.str();
}

// ------------------------------------------------------------- simulator

/// The paper configuration is simulated at the library's default sim seed
/// whatever --seed says, so its exact throughputs compare across all runs
/// and hosts; only host time varies.
constexpr std::uint64_t kSimSeed = sim::SimConfig{}.seed;
/// Virtual windows: long enough for stable simulated throughput, short
/// enough that one request takes tens of host milliseconds.
constexpr sim::Time kSimQueueNs = 5'000'000;
constexpr sim::Time kSimSkipNs = 5'000'000;
constexpr sim::Time kSimListNs = 20'000'000;
constexpr std::size_t kSimCpus = 16;
constexpr std::size_t kSimPartitions = 8;
constexpr std::size_t kSimListSize = 1000;

enum SimLeg : std::size_t {
  kPimQueue, kFaaQueue, kPimSkip, kLfSkip, kPimList, kFgList, kSimLegs
};

/// One "request" to the simulator: the paper configuration, each PIM
/// structure beside its baseline.
struct SimRequest {
  std::array<sim::RunResult, kSimLegs> run{};
  /// Simulator thread CPU time per leg: the simulator is single-threaded,
  /// and CPU time leaves out preemption by other processes and, where the
  /// kernel accounts it, time the hypervisor stole.
  std::array<double, kSimLegs> host_ns{};

  std::uint64_t ops() const {
    std::uint64_t n = 0;
    for (const auto& r : run) n += r.total_ops;
    return n;
  }
  double host_total_ns() const {
    double t = 0.0;
    for (double h : host_ns) t += h;
    return t;
  }
};

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

SimRequest run_sim_request(double window_scale = 1.0) {
  const auto scaled = [&](sim::Time t) {
    return std::max<sim::Time>(1, static_cast<sim::Time>(
                                      static_cast<double>(t) * window_scale));
  };
  sim::QueueConfig q;
  q.seed = kSimSeed;
  q.enqueuers = kSimCpus / 2;
  q.dequeuers = kSimCpus / 2;
  q.duration_ns = scaled(kSimQueueNs);
  sim::SkipListConfig s;
  s.seed = kSimSeed;
  s.num_cpus = kSimCpus;
  s.duration_ns = scaled(kSimSkipNs);
  sim::ListConfig l;
  l.seed = kSimSeed;
  l.num_cpus = kSimCpus;
  l.key_range = 2 * kSimListSize;
  l.initial_size = kSimListSize;
  l.duration_ns = scaled(kSimListNs);

  const std::array<std::function<sim::RunResult()>, kSimLegs> legs = {
      [&] { return sim::run_pim_queue(q, sim::PimQueueOptions{}).run; },
      [&] { return sim::run_faa_queue(q); },
      [&] { return sim::run_pim_skiplist(s, kSimPartitions); },
      [&] { return sim::run_lockfree_skiplist(s); },
      [&] { return sim::run_pim_list(l, true); },
      [&] { return sim::run_fine_grained_list(l); },
  };
  SimRequest req;
  for (std::size_t i = 0; i < kSimLegs; ++i) {
    const std::uint64_t t0 = thread_cpu_ns();
    req.run[i] = legs[i]();
    req.host_ns[i] = static_cast<double>(thread_cpu_ns() - t0);
  }
  return req;
}

bool same_counts(const SimRequest& a, const SimRequest& b) {
  for (std::size_t i = 0; i < kSimLegs; ++i) {
    if (a.run[i].total_ops != b.run[i].total_ops ||
        a.run[i].virtual_ns != b.run[i].virtual_ns) {
      return false;
    }
  }
  return true;
}

struct SimWindow {
  std::vector<SimRequest> reqs;
  double host_s = 0.0;    ///< simulator CPU time of all requests
  std::uint64_t ops = 0;  ///< simulated ops of all requests
};

/// Move the calling thread to the i-th allowed CPU (round robin), so a
/// run's simulator time is spread over every CPU rather than set by the
/// one the scheduler happened to pick.
void rotate_cpu(std::size_t i) {
  if (g_cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(g_cpus[i % g_cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Issue requests back to back for `seconds` of wall time (at least two,
/// so every run repeats the configuration).
SimWindow sim_window(double seconds) {
  SimWindow w;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  g_measuring.store(true, std::memory_order_relaxed);
  while (w.reqs.size() < 2 || now_ns() < deadline) {
    rotate_cpu(w.reqs.size());
    w.reqs.push_back(run_sim_request());
    w.ops += w.reqs.back().ops();
    w.host_s += w.reqs.back().host_total_ns() * 1e-9;
  }
  g_measuring.store(false, std::memory_order_relaxed);
  return w;
}

/// The simulator's per-layer numbers: requests for `seconds`, untraced.
/// Every request simulates the same configuration, so each must reproduce
/// the first one's simulated op counts exactly.
void sim_layers(double seconds, MetricSet& m, Outcome& out,
                std::vector<std::string>& notes) {
  const SimWindow w = sim_window(seconds);
  const SimRequest& ref = w.reqs.front();
  for (const SimRequest& r : w.reqs) {
    out.attempted += r.ops();
    if (!same_counts(r, ref)) {
      out.failed += r.ops();
      out.why = "a repeated sim request did not reproduce its op counts";
    }
  }
  m.set("sim_ops_per_host_s", share(static_cast<double>(w.ops), w.host_s));
  const auto host_per_op = [&](SimLeg leg) {
    double ns = 0.0;
    double ops = 0.0;
    for (const SimRequest& r : w.reqs) {
      ns += r.host_ns[leg];
      ops += static_cast<double>(r.run[leg].total_ops);
    }
    return share(ns, ops);
  };
  m.set("sim.queue.host_ns_per_sim_op", host_per_op(kPimQueue));
  m.set("sim.skiplist.host_ns_per_sim_op", host_per_op(kPimSkip));
  m.set("sim.list.host_ns_per_sim_op", host_per_op(kPimList));

  const LatencyParams lp = LatencyParams::paper_defaults();
  // Enqueue and dequeue segments sit on two cores served in parallel, so
  // the pipelined queue's bound is twice the single-core x ~= 1/Lpim.
  const double model_mops[3] = {
      2.0 * model::pim_queue_pipelined(lp) * 1e-6,
      model::pim_skiplist_partitioned(
          lp, model::estimate_beta(sim::SkipListConfig{}.initial_size),
          kSimPartitions) * 1e-6,
      model::pim_list_combining(lp, kSimListSize, kSimCpus) * 1e-6};
  const double sim_mops[3] = {ref.run[kPimQueue].mops(),
                              ref.run[kPimSkip].mops(),
                              ref.run[kPimList].mops()};
  static constexpr const char* kStructs[3] = {"queue", "skiplist", "list"};
  for (int i = 0; i < 3; ++i) {
    const std::string s = kStructs[i];
    m.set("sim_" + s + "_mops", sim_mops[i]);
    m.set("model." + s + ".predicted_mops", model_mops[i]);
    m.set("model." + s + ".gap_pct",
          100.0 * std::fabs(sim_mops[i] - model_mops[i]) / model_mops[i]);
  }
  m.set("baselines.faa_queue.sim_mops", ref.run[kFaaQueue].mops());
  m.set("baselines.lockfree_skiplist.sim_mops", ref.run[kLfSkip].mops());
  m.set("baselines.fine_grained_list.sim_mops", ref.run[kFgList].mops());
  notes.push_back("sim requests: " + std::to_string(w.reqs.size()));
}

Outcome run_runtime(Workload w, std::uint64_t seed, double seconds,
                    bool traced, MetricSet& m,
                    std::vector<std::string>& notes) {
  Outcome out;
  pin_client(0);
  std::vector<OpStream> streams;
  for (std::size_t c = 0; c < kClients; ++c) streams.emplace_back(w, seed, c);

  // Set-ups with no stolen tick are reported when they are the majority,
  // for the same reason as the measured sub-windows.
  std::vector<double> setup_s;
  std::vector<double> steal_free_setup_s;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < (traced ? 1 : kSetupReps); ++rep) {
    fx.reset();
    const CpuTicks ticks = cpu_ticks();
    const std::uint64_t t0 = now_ns();
    fx = make_fixture(w, seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (cpu_ticks().steal == ticks.steal) {
      steal_free_setup_s.push_back(setup_s.back());
    }
  }

  std::uint64_t adds = 0;
  std::uint64_t removes = 0;
  const auto account = [&](const LegResult& leg) {
    adds += leg.useful(OpKind::kAdd);
    removes += leg.useful(OpKind::kRemove);
    out.attempted += leg.ops();
  };
  account(run_leg(*fx, streams, std::clamp(0.1 * seconds, 0.2, 1.0),
                  LegMode::kPlain));  // warm-up

  if (!traced) {
    // The footprint of the built, warmed system. Read before the measured
    // window, whose per-op records (latencies, the queue's FIFO history)
    // belong to the benchmark, not the library.
    m.set("peak_rss_mb", peak_rss_mb());
    const LegResult leg = run_leg(*fx, streams, seconds, LegMode::kPlain);
    account(leg);
    const Percentile p50 = leg_percentile(leg, 0.50);
    const Percentile p99 = leg_percentile(leg, 0.99);
    m.set("ops_per_s", leg.ops_per_s());
    m.set("op_p50_us", p50.value);
    m.set("op_p99_us", p99.value);
    m.set("setup_s", median(2 * steal_free_setup_s.size() > setup_s.size()
                                ? steal_free_setup_s
                                : setup_s));
    notes.push_back(describe("op_p99_us", p99));
    notes.push_back("steal-free sub-windows: " +
                    std::to_string(leg.selected_windows()) + " of " +
                    std::to_string(leg.windows()) + " (no stolen tick)");
    notes.push_back(describe_all("setup_s reps", setup_s) + " (" +
                    std::to_string(steal_free_setup_s.size()) +
                    " steal-free)");
  } else {
    // Untraced leg (counters, phases), metrics-off leg, traced leg.
    const Counters before = read_counters(*fx);
    const LegResult plain = run_leg(*fx, streams, 0.35 * seconds,
                                    LegMode::kPlain);
    const Counters after = read_counters(*fx);
    account(plain);
    runtime_layer_metrics(*fx, before, after, plain, m);

    obs::set_metrics_enabled(false);
    const LegResult quiet = run_leg(*fx, streams, 0.15 * seconds,
                                    LegMode::kPlain);
    obs::set_metrics_enabled(true);
    account(quiet);
    m.set("obs.metrics_overhead_pct",
          100.0 * (share(quiet.ops_per_s(), plain.ops_per_s()) - 1.0));

    obs::set_trace_buffer_capacity(1 << 15);
    obs::set_trace_enabled(true);
    const LegResult traced_leg = run_leg(*fx, streams, 0.25 * seconds,
                                         LegMode::kTraced);
    obs::set_trace_enabled(false);
    account(traced_leg);
    m.set("trace.overhead_pct",
          100.0 * (share(plain.ops_per_s(), traced_leg.ops_per_s()) - 1.0));
    span_metrics(traced_leg, m);
  }

  out.failed = check_fixture(*fx, adds, removes, out.why);
  fx.reset();  // stop its vault threads before the echo system starts

  if (traced) {
    std::vector<double> echo = echo_leg(0.1 * seconds);
    const Percentile e99 = tail_percentile(echo, 0.99);
    m.set("runtime.echo.p50_us", tail_percentile(echo, 0.50).value);
    m.set("runtime.echo.p99_us", e99.value);
    notes.push_back(describe("runtime.echo.p99_us", e99));
    sim_layers(0.15 * seconds, m, out, notes);
    m.set("failed_op_share", share(static_cast<double>(out.failed),
                                   static_cast<double>(out.attempted)));
  }
  return out;
}

// ------------------------------------------------------------------ main

struct Args {
  Workload workload = Workload::kQueueMixed;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pimbench: %s\nusage: pimbench --workload "
               "<queue_mixed|skiplist_read|skiplist_skew_write> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    if (arg == "--workload") {
      const auto w = parse_workload(val);
      if (!w) usage("unknown workload");
      a.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
      if (!(a.seconds > 0.0 && a.seconds <= 60.0)) usage("bad --seconds");
    } else if (arg == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
    } else if (arg == "--trace-out") {
      a.trace_out = val;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

int run(const Args& args) {
  const double calib_err = injection_calibration_err_pct();
  MetricSet end_to_end(kEndToEnd);
  MetricSet per_layer(kPerLayer);
  MetricSet& m = args.trace ? per_layer : end_to_end;
  std::vector<std::string> notes;
  Outcome out;
  int peak_runnable = 0;
  int peak_threads = 0;
  const CpuTicks ticks0 = cpu_ticks();
  {
    RunnableSampler sampler;
    try {
      out = run_runtime(args.workload, args.seed, args.seconds, args.trace, m,
                        notes);
    } catch (const std::exception& e) {
      out.failed = std::max<std::uint64_t>(out.failed, 1);
      out.why = std::string("exception: ") + e.what();
    }
    peak_runnable = sampler.peak_runnable();
    peak_threads = sampler.peak_threads();
  }
  const CpuTicks ticks1 = cpu_ticks();
  const double steal_pct =
      100.0 * share(static_cast<double>(ticks1.steal - ticks0.steal),
                    static_cast<double>(ticks1.total - ticks0.total));
  if (args.trace && !args.trace_out.empty() &&
      !obs::write_chrome_trace(args.trace_out)) {
    std::fprintf(stderr, "pimbench: cannot write trace %s\n",
                 args.trace_out.c_str());
  }
  out.attempted = std::max<std::uint64_t>(out.attempted, 1);
  const bool correct = out.failed == 0;

  std::printf("pimbench %s seed=%llu seconds=%g trace=%d\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  m.print_table();
  std::printf("  %-40s %16.6f ratio (failed %llu of %llu ops)\n",
              "failed_op_share",
              share(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const auto& n : notes) std::printf("  note: %s\n", n.c_str());
  if (!correct) std::printf("  FAILED: %s\n", out.why.c_str());
  std::printf(
      "# host {\"host\": \"%s\", \"cpu\": \"%s\", \"nproc\": %zu, "
      "\"hardware_threads\": %zu, \"peak_runnable_threads\": %d, "
      "\"peak_threads\": %d, \"pinning\": \"%s\", \"clients\": %zu, "
      "\"vaults\": %zu, \"lpim_ns\": %.0f, \"inject_calib_err_pct\": %.3f, "
      "\"cpu_steal_pct\": %.3f, "
      "\"compiler\": \"%s\", \"flags\": \"%s\", \"seed\": %llu}\n",
      json_escape(host_name()).c_str(), json_escape(cpu_model()).c_str(),
      g_cpus.size(), hardware_threads(),
      peak_runnable, peak_threads,
      g_pin ? "vaults 0-1, clients 2-3" : "none", kClients, kVaults,
      kLpimNs,
      calib_err, steal_pct, PERFBENCH_COMPILER, PERFBENCH_FLAGS,
      static_cast<unsigned long long>(args.seed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pimbench

int main(int argc, char** argv) {
  return pimbench::run(pimbench::parse_args(argc, argv));
}
