// Workload definitions for the repo benchmark (perfbench/README.md):
// per-client operation streams derived from the run's seed, the skip-list
// prefill, and the tail-percentile helper every latency figure goes
// through. Header-only so pimbench and its tests share one definition.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"

namespace pimbench {

enum class Workload : std::uint8_t {
  kQueueMixed,
  kSkiplistRead,
  kSkiplistSkewWrite,
};

inline constexpr Workload kWorkloads[] = {
    Workload::kQueueMixed, Workload::kSkiplistRead,
    Workload::kSkiplistSkewWrite};

inline const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::kQueueMixed: return "queue_mixed";
    case Workload::kSkiplistRead: return "skiplist_read";
    case Workload::kSkiplistSkewWrite: return "skiplist_skew_write";
  }
  return "?";
}

inline std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : kWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

enum class OpKind : std::uint8_t { kEnqueue, kDequeue, kContains, kAdd, kRemove };
inline constexpr std::size_t kOpKinds = 5;

inline const char* op_name(OpKind k) noexcept {
  switch (k) {
    case OpKind::kEnqueue: return "enqueue";
    case OpKind::kDequeue: return "dequeue";
    case OpKind::kContains: return "contains";
    case OpKind::kAdd: return "add";
    case OpKind::kRemove: return "remove";
  }
  return "?";
}

struct Op {
  OpKind kind = OpKind::kContains;
  std::uint64_t key = 0;  ///< skip-list key, or the enqueued value

  bool operator==(const Op&) const = default;
};

/// Skip-list key domain and size: the simulator's Table 2 configuration.
inline constexpr std::uint64_t kSkipKeyMax = std::uint64_t{1} << 17;
inline constexpr std::size_t kSkipPrefill = 16384;
inline constexpr double kSkewTheta = 0.99;
/// Queue prefill: deep enough that the alternating clients never see it
/// empty, and four segments long at the default threshold of 1024.
inline constexpr std::size_t kQueuePrefill = 4096;

/// Queue values are unique tags: producer in the high bits, sequence number
/// in the low 40. Producer 0 is the prefill; client c enqueues as c + 1.
inline constexpr unsigned kTagShift = 40;
constexpr std::uint64_t queue_tag(std::uint64_t producer,
                                  std::uint64_t seq) noexcept {
  return (producer << kTagShift) | seq;
}

/// The skip list's initial vault partitions split [1, kSkipKeyMax] evenly;
/// with two vaults, keys up to this bound live on vault 0.
inline constexpr std::uint64_t kHotPartitionMax = kSkipKeyMax / 2;

inline const pimds::ZipfGenerator& skew_zipf() {
  static const pimds::ZipfGenerator zipf(kSkipKeyMax, kSkewTheta);
  return zipf;
}

inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  pimds::SplitMix64 sm(seed ^ (0x9e3779b97f4a7c15ull * (stream + 1)));
  return sm.next();
}

/// One closed-loop client's operation sequence: a pure function of
/// (workload, seed, client), generated as the client consumes it.
class OpStream {
 public:
  OpStream(Workload w, std::uint64_t seed, std::size_t client)
      : workload_(w), client_(client), rng_(stream_seed(seed, client)) {}

  Op next() {
    switch (workload_) {
      case Workload::kQueueMixed: {
        // Enqueue a fresh tagged value, then dequeue; repeat.
        const bool enq = (seq_ & 1) == 0;
        const std::uint64_t value = queue_tag(client_ + 1, seq_ >> 1);
        ++seq_;
        return enq ? Op{OpKind::kEnqueue, value} : Op{OpKind::kDequeue, 0};
      }
      case Workload::kSkiplistRead: {
        const std::uint64_t r = rng_.next_below(100);
        const std::uint64_t key = 1 + rng_.next_below(kSkipKeyMax);
        return {r < 90 ? OpKind::kContains
                : r < 95 ? OpKind::kAdd
                         : OpKind::kRemove,
                key};
      }
      case Workload::kSkiplistSkewWrite: {
        const std::uint64_t r = rng_.next_below(100);
        // Rank 0 is the hottest key and maps to key 1 (vault 0).
        const std::uint64_t key = 1 + skew_zipf().next(rng_);
        return {r < 25 ? OpKind::kAdd
                : r < 50 ? OpKind::kRemove
                         : OpKind::kContains,
                key};
      }
    }
    return {};
  }

 private:
  Workload workload_;
  std::size_t client_;
  pimds::Xoshiro256 rng_;
  std::uint64_t seq_ = 0;
};

/// kSkipPrefill distinct uniform keys in [1, kSkipKeyMax], from the seed.
inline std::vector<std::uint64_t> skiplist_prefill(std::uint64_t seed) {
  pimds::Xoshiro256 rng(stream_seed(seed, ~std::uint64_t{0}));
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> keys;
  keys.reserve(kSkipPrefill);
  while (keys.size() < kSkipPrefill) {
    const std::uint64_t key = 1 + rng.next_below(kSkipKeyMax);
    if (seen.insert(key).second) keys.push_back(key);
  }
  return keys;
}

/// A percentile as reported: the value, the percentile actually used and
/// the sample count behind it.
struct Percentile {
  bool valid = false;
  double q = 0.0;  ///< in (0, 1]
  double value = 0.0;
  std::size_t samples = 0;
};

/// Samples that must lie beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile `want`, lowered to the highest percentile that
/// still has at least kTailSamples samples beyond it. Invalid when there
/// are too few samples for any such percentile. Reorders `samples`.
inline Percentile tail_percentile(std::vector<double>& samples, double want) {
  Percentile p;
  const std::size_t n = samples.size();
  p.samples = n;
  if (n <= kTailSamples) return p;
  const double rank = std::ceil(want * static_cast<double>(n) - 1e-9);
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  idx = std::min(idx, n - 1 - kTailSamples);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  p.valid = true;
  p.q = static_cast<double>(idx + 1) / static_cast<double>(n);
  p.value = samples[idx];
  return p;
}

}  // namespace pimbench
