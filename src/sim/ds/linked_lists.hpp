// Simulated linked-list experiments (Section 4.1, Table 1, Figure 2).
//
// Five algorithms, as in Table 1:
//   1. linked-list with fine-grained locks    -> run_fine_grained_list
//   2. flat-combining list, no combining opt  -> run_fc_list(combining=false)
//   3. PIM-managed list, no combining opt     -> run_pim_list(combining=false)
//   4. flat-combining list, with combining    -> run_fc_list(combining=true)
//   5. PIM-managed list, with combining       -> run_pim_list(combining=true)
//
// Cost accounting follows Table 1's derivation: traversal dereferences are
// charged (Lcpu for CPU-executed traversals, Lpim for the PIM core); the
// PIM variants additionally pay real message latencies, which the paper
// argues (and these runs confirm) are hidden once the PIM core is saturated.
#pragma once

#include "core/sorted_list.hpp"
#include "sim/workload.hpp"

namespace pimds::sim {

struct ListConfig : SimConfig {
  std::uint64_t key_range = 8192;  ///< N, operation keys drawn from [1, N]
  std::size_t initial_size = 512;  ///< n, initial node count
  SetOpMix mix{};
};

/// Each CPU thread traverses and updates the list independently; the model
/// (and this simulation) treats lock overhead as negligible, so p threads
/// proceed fully in parallel: throughput ~ 2p / ((n+1) Lcpu).
RunResult run_fine_grained_list(const ListConfig& cfg);

/// Flat-combining list: one combiner at a time executes all published
/// requests. With `combining` the batch is served in a single traversal
/// (throughput ~ p / ((n - S_p) Lcpu)); without it each request pays its own
/// traversal (throughput ~ 2 / ((n+1) Lcpu)).
RunResult run_fc_list(const ListConfig& cfg, bool combining);

/// PIM-managed list: the whole list lives in one vault; CPUs send requests
/// to the vault's PIM core by message. Same two modes as the FC list but
/// traversal hops cost Lpim.
RunResult run_pim_list(const ListConfig& cfg, bool combining);

}  // namespace pimds::sim
