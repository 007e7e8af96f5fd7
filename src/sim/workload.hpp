// Shared workload configuration and result types for simulator experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "check/history.hpp"
#include "common/latency.hpp"
#include "common/rng.hpp"
#include "core/set_op.hpp"
#include "sim/engine.hpp"

namespace pimds::sim {

/// Operation mix for set-like structures (linked-lists, skip-lists).
/// Fractions of add and remove; the remainder are contains. The paper keeps
/// add ~= remove so structure size stays near its initial value.
struct SetOpMix {
  double add = 0.3;
  double remove = 0.3;
};

using core::SetOp;
using core::SetRequest;

/// Hop-cost hook for the core structures (core/sorted_list.hpp,
/// core/skip_list.hpp): charges `n` accesses of class `c` on `ctx`.
inline auto hop_charge(Context& ctx, MemClass c) {
  return [&ctx, c](std::uint64_t n) { ctx.charge(c, n); };
}

/// Draw the next operation for the given mix.
SetOp pick_op(Xoshiro256& rng, const SetOpMix& mix);

/// check/ opcode for a set operation (history recording).
constexpr std::uint32_t check_op(SetOp op) noexcept {
  switch (op) {
    case SetOp::kAdd: return check::kAdd;
    case SetOp::kRemove: return check::kRemove;
    case SetOp::kContains: return check::kContains;
  }
  return check::kContains;
}

/// Record one setup-phase insert into the recorder's LAST log with
/// begin == end == 0: the checker linearizes it before every real
/// operation, which is how a pre-populated structure's initial contents
/// enter a partitioned (per-key) specification.
inline void record_setup_add(check::HistoryRecorder* recorder,
                             std::uint64_t key) {
  if (recorder == nullptr) return;
  recorder->log(recorder->threads() - 1)
      .complete(check::kAdd, key, check::kRetTrue, 0, 0);
}

/// Record a populated structure's initial contents (see record_setup_add).
inline void record_setup_contents(check::HistoryRecorder* recorder,
                                  const std::vector<std::uint64_t>& keys) {
  if (recorder == nullptr) return;
  for (std::uint64_t key : keys) record_setup_add(recorder, key);
}

/// Result of one simulated throughput run.
struct RunResult {
  std::uint64_t total_ops = 0;
  Time virtual_ns = 0;

  double ops_per_sec() const noexcept {
    return virtual_ns == 0
               ? 0.0
               : static_cast<double>(total_ops) /
                     (static_cast<double>(virtual_ns) * 1e-9);
  }
  double mops() const noexcept { return ops_per_sec() * 1e-6; }
};

/// Base configuration shared by all simulator experiments.
struct SimConfig {
  LatencyParams params = LatencyParams::paper_defaults();
  std::uint64_t seed = 1;
  std::size_t num_cpus = 8;          ///< p, simulated CPU threads
  Time duration_ns = 10'000'000;     ///< virtual measurement window (10 ms)
  /// Schedule perturbation for adversarial exploration (check/explore.hpp);
  /// installed on the engine before any actor is spawned.
  Engine::Perturbation perturb{};
  /// Optional linearizability-history recording (check/). When non-null,
  /// CPU actor i records its operations into log(i) with virtual
  /// timestamps, and setup-phase inserts land in the LAST log as time-0 add
  /// events — so set/skip-list runs need `num_cpus + 1` logs. Queue runs
  /// (QueueConfig) instead need `enqueuers + dequeuers` logs and express
  /// pre-filled nodes as the checker's initial queue state.
  check::HistoryRecorder* recorder = nullptr;
};

}  // namespace pimds::sim
