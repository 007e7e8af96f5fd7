#include "obs/phase.hpp"

#include <atomic>
#include <cstdio>

namespace pimds::obs {

namespace {

constexpr const char* kPhaseNames[kPhaseCount] = {
    "issue",           "combiner_wait", "request_flight", "mailbox_queue",
    "vault_service",   "response_flight", "cpu_receive",  "total",
};
constexpr const char* kDomainNames[kPhaseDomainCount] = {"runtime", "sim"};

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// All 14 phase histograms, resolved once (registry references are stable
/// for the life of the process).
struct PhaseHistograms {
  Histogram* h[kPhaseDomainCount][kPhaseCount];
  PhaseHistograms() {
    auto& reg = Registry::instance();
    for (std::size_t d = 0; d < kPhaseDomainCount; ++d) {
      for (std::size_t p = 0; p < kPhaseCount; ++p) {
        h[d][p] = &reg.histogram(std::string(kDomainNames[d]) + ".phase." +
                                 kPhaseNames[p]);
      }
    }
  }
};

PhaseHistograms& phase_histograms() {
  static PhaseHistograms tables;
  return tables;
}

}  // namespace

const char* phase_name(Phase p) noexcept {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

const char* phase_domain_name(PhaseDomain d) noexcept {
  return kDomainNames[static_cast<std::size_t>(d)];
}

Histogram& phase_histogram(PhaseDomain d, Phase p) {
  return *phase_histograms().h[static_cast<std::size_t>(d)]
                             [static_cast<std::size_t>(p)];
}

void record_phase(PhaseDomain d, Phase p, std::uint64_t ns) {
  if (!metrics_enabled()) return;
  phase_histogram(d, p).record(ns);
}

std::uint64_t next_request_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

PhaseAttribution domain_attribution(const MetricsSnapshot& snap,
                                    PhaseDomain d) {
  PhaseAttribution out;
  const std::string prefix = std::string(phase_domain_name(d)) + ".phase.";
  for (std::size_t p = 0; p < kPhaseCount; ++p) {
    const auto* h = snap.find_histogram(prefix + kPhaseNames[p]);
    if (h == nullptr) continue;
    out.phase_ns[p] = static_cast<double>(h->data.sum);
    out.phase_count[p] = h->data.count;
    out.phase_p50_ns[p] = h->data.percentile_interpolated(0.50);
    out.phase_p99_ns[p] = h->data.percentile_interpolated(0.99);
    if (static_cast<Phase>(p) == Phase::kTotal) {
      out.ops = h->data.count;
      out.total_ns = static_cast<double>(h->data.sum);
    } else {
      out.phase_sum_ns += static_cast<double>(h->data.sum);
    }
  }
  out.present = out.ops > 0;
  if (out.total_ns > 0.0) {
    out.coverage_pct = 100.0 * out.phase_sum_ns / out.total_ns;
  }
  return out;
}

}  // namespace

AttributionReport attribution_report(const MetricsSnapshot& snap) {
  AttributionReport r;
  r.runtime = domain_attribution(snap, PhaseDomain::kRuntime);
  r.sim = domain_attribution(snap, PhaseDomain::kSim);
  return r;
}

AttributionReport attribution_report() {
  return attribution_report(Registry::instance().snapshot());
}

std::string attribution_json(const AttributionReport& report, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in1 = pad + "  ";
  const std::string in2 = pad + "    ";
  const std::string in3 = pad + "      ";
  std::string out = "{";
  bool first_domain = true;
  const PhaseAttribution* domains[] = {&report.runtime, &report.sim};
  for (std::size_t d = 0; d < kPhaseDomainCount; ++d) {
    const PhaseAttribution& a = *domains[d];
    if (!a.present) continue;
    const double ops = static_cast<double>(a.ops);
    out += first_domain ? "\n" : ",\n";
    first_domain = false;
    out += in1 + "\"" + kDomainNames[d] + "\": {\n";
    out += in2 + "\"ops\": " + std::to_string(a.ops) + ",\n";
    out += in2 + "\"total_ns_per_op\": " + fmt_double(a.total_ns / ops) + ",\n";
    out +=
        in2 + "\"phase_sum_ns_per_op\": " + fmt_double(a.phase_sum_ns / ops) +
        ",\n";
    out += in2 + "\"coverage_pct\": " + fmt_double(a.coverage_pct) + ",\n";
    out += in2 + "\"phases\": {";
    bool first_phase = true;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      if (static_cast<Phase>(p) == Phase::kTotal) continue;
      if (a.phase_count[p] == 0) continue;
      const double share =
          a.total_ns > 0.0 ? 100.0 * a.phase_ns[p] / a.total_ns : 0.0;
      out += first_phase ? "\n" : ",\n";
      first_phase = false;
      out += in3 + "\"" + kPhaseNames[p] + "\": {" +
             "\"count\": " + std::to_string(a.phase_count[p]) +
             ", \"ns_per_op\": " + fmt_double(a.phase_ns[p] / ops) +
             ", \"share_pct\": " + fmt_double(share) +
             ", \"p50_ns\": " + fmt_double(a.phase_p50_ns[p]) +
             ", \"p99_ns\": " + fmt_double(a.phase_p99_ns[p]) + "}";
    }
    out += first_phase ? "}" : "\n" + in2 + "}";
    out += "\n" + in1 + "}";
  }
  out += first_domain ? "}" : "\n" + pad + "}";
  return out;
}

}  // namespace pimds::obs
