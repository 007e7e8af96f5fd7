// Closed-form throughput model for skip-lists (Section 4.2, Table 2).
//
// beta is the average number of nodes an operation accesses to locate its
// key (Theta(log N)). The paper leaves beta abstract; callers either supply
// a measured value (the hops core::SkipList charges per search, counted
// through its hop-cost hook) or use estimate_beta() for
// the paper's one-key skip list and fat_node_accesses() for the runtime's
// fat-node vault index.
#pragma once

#include <cstddef>

#include "common/latency.hpp"

namespace pimds::model {

/// Rough analytic estimate of beta for a skip-list of `size` nodes with
/// tower probability 1/2: ~2 * log2(size) steps (one right-move and one
/// down-move per level on average), floored at 1.
double estimate_beta(std::size_t size);

/// Occupancy a B-tree settles at under random inserts when full nodes split
/// in half: ln 2 (Yao, "On random 2-3 trees", 1978). The runtime vault
/// index measures 0.70 in its leaves and 0.71-0.76 in its inner nodes at
/// 8,192 uniform keys.
inline constexpr double kRandomInsertFill = 0.6931471805599453;

/// beta of the runtime's fat-node vault index (core::VaultIndex): node
/// reads per search, which is the height of the searched key's window
/// tree, a whole number of levels. Leaves hold `leaf_capacity` keys and
/// inner nodes `fanout` children; below the root each is filled to `fill`,
/// while the root takes up to `fanout` children before it splits. So
/// height h holds leaf_capacity keys at h = 1 and
/// fanout * (fill*fanout)^(h-2) * fill*leaf_capacity keys above. One window
/// holds all `size` keys and the result is the least h that holds them.
/// Over `windows` > 1 equal windows a window's key count is modeled as
/// Poisson with mean size / windows, and the result is the expected least
/// h, which is what a uniform search pays. Needs fill*fanout > 1.
double fat_node_accesses(std::size_t size, int leaf_capacity, int fanout,
                         std::size_t windows = 1,
                         double fill = kRandomInsertFill);

/// Table 2 row 1: lock-free skip-list, p threads in parallel.
double lock_free_skiplist(const LatencyParams& lp, double beta, std::size_t p);

/// Table 2 row 2: flat-combining skip-list (single combiner).
double fc_skiplist(const LatencyParams& lp, double beta);

/// Table 2 row 3: PIM-managed skip-list (single vault).
double pim_skiplist(const LatencyParams& lp, double beta);

/// Table 2 row 4: flat-combining skip-list with k partitions.
double fc_skiplist_partitioned(const LatencyParams& lp, double beta,
                               std::size_t k);

/// Table 2 row 5: PIM-managed skip-list with k partitions.
double pim_skiplist_partitioned(const LatencyParams& lp, double beta,
                                std::size_t k);

/// Section 4.2 crossover: smallest k for which the partitioned PIM
/// skip-list out-throughputs the lock-free skip-list with p threads:
/// k > p (beta Lpim + Lmessage) / (beta Lcpu)   (~ p / r1 for large beta).
std::size_t min_partitions_to_beat_lock_free(const LatencyParams& lp,
                                             double beta, std::size_t p);

}  // namespace pimds::model
