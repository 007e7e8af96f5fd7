// Request-level latency attribution (observability layer, part 3).
//
// Every operation against a PIM structure decomposes into named phases that
// map onto the paper's Section 3 cost-model terms:
//
//   issue            CPU-side work before the request is on the wire
//   combiner_wait    waiting inside the CPU-side RequestCombiner (Sec. 4.1)
//   request_flight   the request's crossbar leg (the modeled Lmessage; 0
//                    and unrecorded when latency injection is off)
//   mailbox_queue    queueing between delivery and the PIM core's pickup —
//                    the transport's real overhead, with the modeled
//                    flight split out so an efficient mailbox shows up as
//                    a small share here rather than being drowned by
//                    Lmessage
//   vault_service    PIM-core handler time (Lpim-dominated)
//   response_flight  reply publish -> delivery-ready (Lmessage when
//                    responses are pipelined, Figure 6)
//   cpu_receive      delivery-ready -> the requester actually resumes
//                    (wakeup overhead; ~0 in the simulator)
//   total            independently measured end-to-end operation latency
//
// Phases are recorded into per-phase registry histograms named
// `<domain>.phase.<name>` where domain is `runtime` (real threads, wall
// nanoseconds) or `sim` (fiber simulator, virtual nanoseconds). Each phase
// is recorded on whichever thread/actor knows it, so no timestamps need to
// travel back in replies; attribution is validated by comparing the SUM of
// per-phase totals against the sum of the independently recorded `total`
// histogram (attribution_report below). In the simulator the phases tile
// the operation exactly; on real threads they tile up to scheduler noise.
//
// Request ids (next_request_id) correlate the CPU-side `op` span with the
// core-side `req_dispatch` instant and `vault_service`/`drain_batch` spans
// in the Perfetto export — the causal chain of one operation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace pimds::obs {

enum class Phase : std::uint8_t {
  kIssue = 0,
  kCombinerWait,
  kRequestFlight,
  kMailboxQueue,
  kVaultService,
  kResponseFlight,
  kCpuReceive,
  kTotal,  ///< end-to-end, measured independently of the other phases
};
inline constexpr std::size_t kPhaseCount = 8;

enum class PhaseDomain : std::uint8_t { kRuntime = 0, kSim = 1 };
inline constexpr std::size_t kPhaseDomainCount = 2;

const char* phase_name(Phase p) noexcept;
const char* phase_domain_name(PhaseDomain d) noexcept;

/// The registry histogram `<domain>.phase.<name>` (find-or-create once,
/// then cached — safe and cheap on hot paths).
Histogram& phase_histogram(PhaseDomain d, Phase p);

/// Record `ns` into the phase histogram. No-op when metrics are disabled.
void record_phase(PhaseDomain d, Phase p, std::uint64_t ns);

inline void record_runtime_phase(Phase p, std::uint64_t ns) {
  record_phase(PhaseDomain::kRuntime, p, ns);
}
inline void record_sim_phase(Phase p, std::uint64_t ns) {
  record_phase(PhaseDomain::kSim, p, ns);
}

/// Process-wide monotonic request id (1, 2, ...) for causal span
/// correlation. 0 is reserved for "untraced".
std::uint64_t next_request_id() noexcept;

/// Attribution summary for one domain, computed from a metrics snapshot.
struct PhaseAttribution {
  bool present = false;   ///< the domain's `total` histogram has samples
  std::uint64_t ops = 0;  ///< samples in the `total` histogram
  double total_ns = 0.0;  ///< sum of the `total` histogram
  double phase_sum_ns = 0.0;  ///< sum over every non-total phase histogram
  double coverage_pct = 0.0;  ///< 100 * phase_sum_ns / total_ns
  std::array<double, kPhaseCount> phase_ns{};  ///< per-phase sums
  std::array<std::uint64_t, kPhaseCount> phase_count{};
  /// Per-phase sample percentiles (HistogramData::percentile_interpolated):
  /// a mean carried by rare long stalls shows here as p99 >> p50.
  std::array<double, kPhaseCount> phase_p50_ns{};
  std::array<double, kPhaseCount> phase_p99_ns{};
};

struct AttributionReport {
  PhaseAttribution runtime;
  PhaseAttribution sim;
};

AttributionReport attribution_report(const MetricsSnapshot& snap);
AttributionReport attribution_report();  ///< from Registry::instance()

/// JSON object: one key per domain with recorded samples (may be empty —
/// the object itself is always emitted, so the schema is stable). Layout:
///   {"sim": {"ops": N, "total_ns_per_op": x, "phase_sum_ns_per_op": y,
///            "coverage_pct": z, "phases": {"issue": {"count": c,
///            "ns_per_op": a, "share_pct": s, "p50_ns": m,
///            "p99_ns": t}, ...}}}
/// `ns_per_op` spreads a phase's sum over every op; `p50_ns` / `p99_ns`
/// are percentiles of the phase's own samples.
/// `indent` follows the MetricsSnapshot::to_json convention.
std::string attribution_json(const AttributionReport& report, int indent = 0);

}  // namespace pimds::obs
