// Real-thread PIM emulation: one mailbox-driven PIM-core thread per vault.
//
// This is the substrate the `core/` PIM data structures run on. It mirrors
// the paper's architecture (Section 2):
//  - each vault is owned by exactly one in-order PIM core (here: a thread);
//  - PIM cores and CPUs communicate only by message passing, with FIFO
//    delivery per sender-receiver pair;
//  - PIM cores perform only plain reads/writes to their local vault (the
//    emulation needs no atomics inside a handler — single-threaded by
//    construction);
//  - optional latency injection (common/latency.hpp) emulates the Section 3
//    cost model on real hardware.
//
// The service loop is batched and pipelined (Section 5.2): each iteration
// drains every deliverable message from the mailbox in one pass and hands
// the whole batch to the vault's handler; responses are published with a
// computed future ready_ns while the core moves on to the next request, so
// the core's service rate approaches 1/Lpim instead of 1/(Lmessage + Lpim).
// Config::batch_drain turns the batching off for the seed per-message path.
//
// Waiting is tiered on both sides: the core's idle loop and gather window,
// ResponseSlot::await and RequestCombiner::submit spin, then yield, then
// sleep (common/spinwait.hpp, wait_until_ns). Those sleeps wake on time
// because the first one a thread takes sets that thread's timer slack to
// 1 ns (tighten_timer_slack). Side effect: a caller thread that sleeps
// inside the library keeps the tighter slack for the rest of its life, and
// threads it spawns inherit it; threads that never wait here are untouched.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/cacheline.hpp"
#include "common/latency.hpp"
#include "obs/obs.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"
#include "runtime/vault.hpp"

namespace pimds::runtime {

class PimSystem;

/// Capabilities a message handler may use while running on a PIM core.
class PimCoreApi {
 public:
  PimCoreApi(PimSystem& system, std::size_t vault_id)
      : system_(system), vault_id_(vault_id) {}

  std::size_t vault_id() const noexcept { return vault_id_; }
  Vault& vault();
  std::size_t num_vaults() const;

  /// PIM-to-PIM message (goes through the same crossbar as CPU traffic).
  void send(std::size_t other_vault, Message m);

  /// Charge `n` local-vault accesses (spins for n * Lpim when injection is
  /// enabled, otherwise free).
  void charge_local_access(std::uint64_t n = 1) const;

  /// Delivery deadline for a reply published right now: now + Lmessage when
  /// injection is enabled, 0 (immediately visible) otherwise. This is the
  /// Section 5.2 pipelining: the response is "in flight" while the core
  /// serves the next request.
  std::uint64_t reply_ready_ns() const;

 private:
  PimSystem& system_;
  std::size_t vault_id_;
};

class PimSystem {
 public:
  struct Config {
    std::size_t num_vaults = 4;
    /// Default vault arena: 32 MB (the HMC 1.0 spec puts ~100 MB per vault;
    /// scaled down so tests stay lightweight).
    std::size_t vault_bytes = 32ull << 20;
    LatencyParams params = LatencyParams::paper_defaults();
    /// Emulate the Section 3 latencies with calibrated spin waits. Off by
    /// default: functional runs measure real hardware.
    bool inject_latency = false;
    /// Batched service loop: drain every deliverable message per iteration
    /// (false = seed per-message path: the core blocks on each message's
    /// delivery time before serving it; ablation knob).
    bool batch_drain = true;
    /// Max messages handed to a handler per drain pass.
    std::size_t drain_batch = 64;
    /// When a drain pass comes up shallower than drain_batch but more
    /// messages are already in flight and due within this window, the core
    /// sleeps to their delivery and folds them into the same batch — one
    /// Lpim fat-node charge amortizes across more operations, and the
    /// sleep hands the CPU to the senders on oversubscribed hosts.
    /// 0 = auto: Lpim when latency injection is on, else off.
    std::uint64_t drain_gather_window_ns = 0;
    /// Pin each vault's PIM-core thread to CPU `vault_id` (modulo the
    /// hardware thread count) so a core and its lanes keep a stable
    /// placement. Off by default: benches opt in; oversubscribed test
    /// runs are better left to the scheduler.
    bool pin_cores = false;
  };

  /// A batch handler runs on the vault's PIM-core thread and receives every
  /// message of one drain pass at once: the structure can serve the whole
  /// batch in one traversal and pipeline all the replies.
  using BatchHandler =
      std::function<void(PimCoreApi&, const Message*, std::size_t)>;
  /// An idle handler runs when the mailbox is empty; return true if it did
  /// work (used by background jobs such as incremental node migration,
  /// Section 4.2.1).
  using IdleHandler = std::function<bool(PimCoreApi&)>;

  explicit PimSystem(Config config);
  ~PimSystem();

  PimSystem(const PimSystem&) = delete;
  PimSystem& operator=(const PimSystem&) = delete;

  const Config& config() const noexcept { return config_; }
  std::size_t num_vaults() const noexcept { return cores_.size(); }

  /// Install the message handler for one vault. Must be called before
  /// start(); typically each PIM data structure installs handlers for the
  /// vaults it owns.
  void set_batch_handler(std::size_t vault, BatchHandler handler);
  void set_idle_handler(std::size_t vault, IdleHandler handler);

  void start();
  void stop();
  bool running() const noexcept { return started_; }

  /// CPU-side send to a vault's PIM core.
  void send(std::size_t vault, Message m);

  Vault& vault(std::size_t v) { return *cores_[v]->vault; }

  /// Messages processed by a vault's core so far (diagnostics, load stats).
  std::uint64_t messages_processed(std::size_t vault) const noexcept;
  /// Sender backoff pauses taken against a full mailbox ring (saturation
  /// indicator; see Mailbox::send_full_spins). Also visible process-wide as
  /// the registry counter `runtime.vault<k>.mailbox.send_full_spins`.
  std::uint64_t send_full_spins(std::size_t vault) const noexcept;
  /// High-water mark of a vault mailbox's in-flight pending heap. Also the
  /// registry gauge `runtime.vault<k>.mailbox.pending_hwm`.
  std::uint64_t pending_high_water(std::size_t vault) const noexcept;

 private:
  friend class PimCoreApi;

  struct Core {
    explicit Core(std::size_t id, const Config& config);

    std::unique_ptr<Vault> vault;
    Mailbox mailbox;
    BatchHandler batch_handler;
    IdleHandler idle_handler;
    std::thread thread;
    CachePadded<std::atomic<std::uint64_t>> processed{0};
    /// Registry-owned per-vault counters (`runtime.vault<k>.messages`,
    /// `.busy_ns` — handler wall time, whose windowed delta over wall time
    /// is this vault's utilization); cached so dispatch() does not
    /// re-look-up by name.
    obs::Counter* messages = nullptr;
    obs::Counter* busy_ns = nullptr;
    /// Keeps this mailbox's instance-owned metrics visible in the registry
    /// for exactly the Core's lifetime.
    std::vector<obs::Registry::Handle> obs_handles;
  };

  void core_loop(std::size_t vault_id);
  /// Hand `n` drained messages to the vault's handler(s).
  void dispatch(PimCoreApi& api, Core& core, const Message* msgs,
                std::size_t n);

  Config config_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

}  // namespace pimds::runtime
