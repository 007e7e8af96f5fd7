// Zipf-distributed key generator.
//
// Used by the rebalancing ablation (DESIGN.md experiment A5): Section 4.2.1
// of the paper motivates node migration with *skewed* request distributions,
// which a static uniform partitioning handles badly. Zipf is the standard
// skew model for key-value workloads (YCSB uses the same construction).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace pimds {

/// Draws ranks in [0, n) with P(rank = i) proportional to 1/(i+1)^theta.
///
/// Uses the classic rejection-inversion-free YCSB/Gray et al. construction:
/// closed-form inverse of the (approximated) CDF, exact for the two head
/// ranks, O(1) per draw after O(n) setup. The closed form has a pole at
/// theta = 1. Above it the head ranks stay exact and the tail is
/// approximate: at n = 2^14, theta = 2 draws rank 2 with probability 0.080
/// against the exact 0.068 (test_rng pins this).
class ZipfGenerator {
 public:
  /// @param n      number of distinct items (>= 1)
  /// @param theta  skew >= 0 and != 1; 0 = uniform-ish, 0.99 = heavily
  ///               skewed, > 1 = a few keys dominate (approximate tail)
  /// @throws std::invalid_argument for n = 0, theta < 0 or theta = 1
  ZipfGenerator(std::uint64_t n, double theta);

  /// Next rank in [0, n). Rank 0 is the hottest item.
  std::uint64_t next(Xoshiro256& rng) const;

  std::uint64_t size() const noexcept { return n_; }
  double theta() const noexcept { return theta_; }

 private:
  static double zeta(std::uint64_t n, double theta);

  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

}  // namespace pimds
