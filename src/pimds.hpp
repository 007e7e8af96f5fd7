// Umbrella header: everything a downstream user of the PIMDS library needs.
//
//   #include "pimds.hpp"
//
//   pimds::runtime::PimSystem  — the emulated near-memory hardware
//   pimds::core::*             — the paper's PIM data structures
//   pimds::baselines::*        — the CPU competitors
//   pimds::model::*            — the closed-form performance model
//   pimds::sim::*              — the deterministic discrete-event simulator
#pragma once

// Common substrate.
#include "common/backoff.hpp"
#include "common/barrier.hpp"
#include "common/cacheline.hpp"
#include "common/ebr.hpp"
#include "common/fifo_checker.hpp"
#include "common/latency.hpp"
#include "common/mpmc_queue.hpp"
#include "common/rng.hpp"
#include "common/spinwait.hpp"
#include "common/stats.hpp"
#include "common/thread_utils.hpp"
#include "common/timing.hpp"
#include "common/zipf.hpp"

// Analytic model (Section 3, Tables 1-2, Section 5.2).
#include "model/linked_list_model.hpp"
#include "model/queue_model.hpp"
#include "model/skiplist_model.hpp"

// Real-thread PIM emulation and the paper's data structures.
#include "core/auto_rebalancer.hpp"
#include "core/pim_fifo_queue.hpp"
#include "core/pim_linked_list.hpp"
#include "core/pim_skiplist.hpp"
#include "core/sentinel_directory.hpp"
#include "core/set_op.hpp"
#include "core/skip_list.hpp"
#include "core/sorted_list.hpp"
#include "core/vault_index.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/message.hpp"
#include "runtime/system.hpp"
#include "runtime/vault.hpp"

// CPU baselines.
#include "baselines/faa_queue.hpp"
#include "baselines/fc_structures.hpp"
#include "baselines/flat_combining.hpp"
#include "baselines/hoh_list.hpp"
#include "baselines/lazy_list.hpp"
#include "baselines/lockfree_skiplist.hpp"
#include "baselines/ms_queue.hpp"
#include "baselines/spinlock.hpp"

// Discrete-event simulator and the simulated experiments.
#include "sim/ds/linked_lists.hpp"
#include "sim/ds/queues.hpp"
#include "sim/ds/skiplists.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/flat_combining.hpp"
#include "sim/mailbox.hpp"
#include "sim/sync.hpp"
#include "sim/workload.hpp"
