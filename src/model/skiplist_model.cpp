#include "model/skiplist_model.hpp"

#include <algorithm>
#include <cmath>

namespace pimds::model {

namespace {
constexpr double kNsToSec = 1e-9;
}

double estimate_beta(std::size_t size) {
  if (size < 2) return 1.0;
  return std::max(1.0, 2.0 * std::log2(static_cast<double>(size)));
}

namespace {

/// Least height whose tree holds `size` keys (fat_node_accesses, one window).
int tree_height(double size, int leaf_capacity, int fanout, double fill) {
  if (size <= leaf_capacity) return 1;
  const double leaves = size / (fill * leaf_capacity);
  int height = 2;
  for (double held = fanout; held < leaves; held *= fill * fanout) ++height;
  return height;
}

}  // namespace

double fat_node_accesses(std::size_t size, int leaf_capacity, int fanout,
                         std::size_t windows, double fill) {
  if (windows <= 1 || size == 0) {
    return tree_height(static_cast<double>(size), leaf_capacity, fanout, fill);
  }
  // E[height(X)], X ~ Poisson(mean), summed in log space over mean ± 12
  // standard deviations (the rest is below 1e-30).
  const double mean = static_cast<double>(size) / static_cast<double>(windows);
  const double reach = 12.0 * std::sqrt(mean) + 12.0;
  const auto first = static_cast<std::size_t>(std::max(0.0, mean - reach));
  const auto last = static_cast<std::size_t>(mean + reach);
  double expected = 0.0;
  for (std::size_t n = first; n <= last; ++n) {
    const double x = static_cast<double>(n);
    const double log_p = x * std::log(mean) - mean - std::lgamma(x + 1.0);
    expected += std::exp(log_p) *
                tree_height(x, leaf_capacity, fanout, fill);
  }
  return expected;
}

double lock_free_skiplist(const LatencyParams& lp, double beta,
                          std::size_t p) {
  return static_cast<double>(p) / (beta * lp.cpu() * kNsToSec);
}

double fc_skiplist(const LatencyParams& lp, double beta) {
  return 1.0 / (beta * lp.cpu() * kNsToSec);
}

double pim_skiplist(const LatencyParams& lp, double beta) {
  return 1.0 / ((beta * lp.pim() + lp.message()) * kNsToSec);
}

double fc_skiplist_partitioned(const LatencyParams& lp, double beta,
                               std::size_t k) {
  return static_cast<double>(k) * fc_skiplist(lp, beta);
}

double pim_skiplist_partitioned(const LatencyParams& lp, double beta,
                                std::size_t k) {
  return static_cast<double>(k) * pim_skiplist(lp, beta);
}

std::size_t min_partitions_to_beat_lock_free(const LatencyParams& lp,
                                             double beta, std::size_t p) {
  const double threshold = static_cast<double>(p) *
                           (beta * lp.pim() + lp.message()) /
                           (beta * lp.cpu());
  // Strict inequality k > threshold.
  auto k = static_cast<std::size_t>(std::floor(threshold)) + 1;
  return std::max<std::size_t>(k, 1);
}

}  // namespace pimds::model
