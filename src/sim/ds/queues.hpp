// Simulated FIFO queue experiments (Section 5, Algorithm 1, Section 5.2).
//
// Three queues:
//   - F&A-based queue [41]: every enqueue/dequeue performs one F&A on a
//     shared cache line; k concurrent F&As serialize at Latomic each, so
//     per-side throughput is bounded by 1/Latomic.
//   - Flat-combining queue [25] with two combiner locks (one for enqueues,
//     one for dequeues, as in Section 5.2's setup): bounded by 1/(2 Lllc).
//   - PIM-managed queue (Algorithm 1): per-vault segments, distinct enqueue
//     and dequeue segments served by different PIM cores (each new enqueue
//     segment opposite the dequeue core), segment hand-off via
//     newEnqSeg/newDeqSeg messages, CPU retry on rejection, and response
//     pipelining; per-side throughput approaches 1/Lpim. Its vault side is
//     core::QueueVault, the handler the runtime queue runs.
//
// Like the paper's analysis, the CPU queues charge only their
// synchronization (the F&A or CAS lines, the combiner locks and slots), not
// the queue-node accesses ("we have ignored the latency of accessing and
// modifying queue nodes"), which would only slow these baselines.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/latency.hpp"
#include "sim/workload.hpp"

namespace pimds::sim {

/// Arrival process for each client actor.
///
/// kClosedLoop (the default, and the paper's Section 5 setup) issues the
/// next operation the moment the previous one completes. Right for
/// throughput; WRONG for latency at saturation — the client can only issue
/// as fast as the system completes, so every server stall silently deletes
/// the samples that would have landed inside it (coordinated omission; the
/// telltale is p50 == p99). The open-loop schedules fix each operation's
/// intended start from an injection schedule independent of completions,
/// and latency is measured from that intended start.
enum class ArrivalSchedule : std::uint8_t {
  kClosedLoop,
  /// Fixed inter-arrival `arrival_period_ns` per actor, with a uniform
  /// per-actor phase stagger so k injectors do not arrive in lockstep.
  kDeterministic,
  /// Exponential inter-arrivals with mean `arrival_period_ns` — the
  /// aggregate over actors is a Poisson process, matching the M/D/1
  /// conformance model's arrival assumption.
  kPoisson,
};

struct QueueConfig {
  LatencyParams params = LatencyParams::paper_defaults();
  std::uint64_t seed = 1;
  Time duration_ns = 10'000'000;
  std::size_t enqueuers = 4;
  std::size_t dequeuers = 4;
  /// Nodes pre-filled so dequeuers on a "long queue" never observe empty.
  /// Deliberately NOT a multiple of the default segment threshold, so the
  /// pre-filled enqueue segment is half full and the enqueue side does not
  /// hand off at t=0 in phase with the dequeue side.
  std::size_t initial_nodes = 63 * 1024 + 512;
  /// When non-null, every completed operation appends its virtual latency
  /// here (in ns). Closed loop: request issue to response consumption.
  /// Open loop: INTENDED start to response consumption (coordinated-
  /// omission-free — queueing behind a late injector counts against the
  /// operation). The paper argues pipelining buys throughput; the latency
  /// distribution shows what each design pays per operation to get it.
  std::vector<double>* latency_sink_ns = nullptr;
  /// Client arrival process (see ArrivalSchedule). Open-loop schedules
  /// require arrival_period_ns > 0.
  ArrivalSchedule arrival = ArrivalSchedule::kClosedLoop;
  /// Mean per-actor inter-arrival time for the open-loop schedules. The
  /// aggregate offered rate is (enqueuers + dequeuers) / arrival_period_ns.
  double arrival_period_ns = 0.0;
  /// Schedule perturbation for adversarial exploration (check/explore.hpp).
  Engine::Perturbation perturb{};
  /// Optional linearizability-history recording (check/). Needs
  /// `enqueuers + dequeuers` logs: enqueuer i records into log(i), dequeuer
  /// j into log(enqueuers + j). The pre-filled nodes carry values
  /// 0 .. initial_nodes-1 and enter the checker as the initial queue state;
  /// recorded enqueues use values tagged with the producer id so every
  /// value in the history is unique (QueueSpec matches dequeues by value).
  check::HistoryRecorder* recorder = nullptr;
};

/// Per-actor open-loop injection clock, shared by the three simulated
/// queues. Each call to next() yields the intended start of the actor's
/// next operation: if the actor is AHEAD of schedule its virtual clock
/// jumps forward to the intended time (the sim analogue of a real
/// injector's wait_until); if it is BEHIND (the previous op overran the
/// next slot) the intended time is already in the past and the measured
/// latency absorbs the lag — exactly the accounting coordinated omission
/// loses. Closed loop degenerates to next() == now().
class ArrivalPacer {
 public:
  ArrivalPacer(const QueueConfig& cfg, Context& ctx)
      : schedule_(cfg.arrival), period_ns_(cfg.arrival_period_ns) {
    // Uniform phase stagger so deterministic injectors spread over one
    // period instead of arriving k-at-a-time.
    next_intended_ = schedule_ == ArrivalSchedule::kClosedLoop
                         ? 0.0
                         : ctx.rng().next_double() * period_ns_;
  }

  /// Intended start of the next operation (advances the actor clock when
  /// ahead of schedule).
  Time next(Context& ctx) noexcept {
    if (schedule_ == ArrivalSchedule::kClosedLoop) return ctx.now();
    const Time intended = static_cast<Time>(next_intended_);
    ctx.set_time(intended);  // no-op when already late
    next_intended_ +=
        schedule_ == ArrivalSchedule::kPoisson
            ? -period_ns_ * std::log(1.0 - ctx.rng().next_double())
            : period_ns_;
    return intended;
  }

 private:
  ArrivalSchedule schedule_;
  double period_ns_;
  double next_intended_ = 0.0;
};

/// Deliberately broken PIM-queue variants for checker mutation testing:
/// each fault models a real protocol mistake and MUST be caught by the
/// linearizability checker (tests/test_checker_mutation.cpp). A fault is a
/// compile-time hook of the shared vault handler (core/queue_vault.hpp), so
/// the mutants run the same protocol code as the runtime queue.
enum class QueueFault : std::uint8_t {
  kNone,
  /// Segment hand-off bug: when the dequeue role moves to the next segment
  /// (Algorithm 1's newDeqSeg), the new core serves its freshest buffered
  /// nodes first — as if the hand-off message fenced nothing and the
  /// successor's local order leaked. Breaks FIFO across the hand-off.
  kHandoffReorder,
  /// Response bug: the dequeue core occasionally re-serves the value it just
  /// dequeued without popping again — a stale-sentinel read after the
  /// segment advanced. One value reaches two dequeuers.
  kDoubleServe,
};

struct PimQueueOptions {
  std::size_t num_vaults = 4;
  /// Segment length threshold (Algorithm 1 line 13). A huge threshold keeps
  /// the queue in the single-segment ("short queue") regime, where one core
  /// serves both request types and throughput halves (end of Section 5.2).
  std::uint64_t segment_threshold = 1024;
  /// Response pipelining (Figure 6). When off, the PIM core stalls for
  /// Lmessage after each response before serving the next request.
  bool pipelining = true;
  /// Section 5.1's further optimization: each core drains every
  /// already-delivered request and packs the enqueues into "fat" array
  /// nodes of up to core::QueueVault's kFatNodeCapacity values, paying one
  /// local memory access per fat node written or read instead of one per
  /// value.
  bool enqueue_combining = false;
};

RunResult run_faa_queue(const QueueConfig& cfg);
/// Flat-combining queue, the paper's Section 5.2 variant with TWO combiner
/// locks (enqueues and dequeues in parallel).
RunResult run_fc_queue(const QueueConfig& cfg);
/// Extra baseline (not in the paper's tables): CAS-retry Michael-Scott
/// queue, which degrades under contention — the reason the paper compares
/// against the F&A queue as the strongest CPU FIFO.
RunResult run_ms_queue(const QueueConfig& cfg);

struct PimQueueResult {
  RunResult run;
  std::uint64_t rejections = 0;        ///< requests that had to be resent
  std::uint64_t segments_created = 0;  ///< newEnqSeg activations
  std::uint64_t empty_dequeues = 0;    ///< dequeues that found the queue empty
  /// Ops served by a core holding BOTH special segments (the serialized
  /// regime the opposite-core placement avoids at k = 4, 5, 6, 8).
  std::uint64_t co_resident_ops = 0;
  std::uint64_t enq_ops = 0;  ///< accepted enqueues
  std::uint64_t deq_ops = 0;  ///< accepted dequeues (incl. empty results)
  /// Enqueue service batches (one fat-node combining drain, or one plain
  /// enqueue). enq_ops / enq_batches is the Section 5.1 combining ratio.
  std::uint64_t enq_batches = 0;
};

PimQueueResult run_pim_queue(const QueueConfig& cfg,
                             const PimQueueOptions& opts);
/// The same run with a seeded protocol fault (mutation testing only).
PimQueueResult run_pim_queue(const QueueConfig& cfg,
                             const PimQueueOptions& opts, QueueFault fault);

}  // namespace pimds::sim
