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

double fat_node_accesses(std::size_t size, int leaf_capacity, int fanout,
                         double fill) {
  if (size <= static_cast<std::size_t>(leaf_capacity)) return 1.0;
  const double leaves = static_cast<double>(size) / (fill * leaf_capacity);
  int height = 2;
  for (double held = fanout; held < leaves; held *= fill * fanout) ++height;
  return height;
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
