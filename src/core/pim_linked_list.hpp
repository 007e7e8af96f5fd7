// PIM-managed linked-list (Section 4.1).
//
// The entire sorted list lives in one vault; CPU threads send operation
// requests to that vault's PIM core and wait on a response slot. The core
// serves every request of a drained batch in ONE traversal (the combining
// optimization: requests are served in ascending key order), which is what
// lets the structure beat a fine-grained-locking list despite having no
// intra-structure parallelism. The list is the shared core::SortedList with
// its nodes in the vault and each node hop charged as one local access.
//
// Both ends of the message path batch (the batch-per-crossing shape):
//  - CPU side: co-located threads combine waiting requests so up to
//    RequestCombiner::kMaxCombine of them ride one crossbar message;
//  - PIM side: the core receives a whole drained batch from the runtime,
//    serves it in one traversal, and pipelines all the replies.
//
// Thread-safety: add/remove/contains may be called concurrently from any
// number of CPU threads once the owning PimSystem has started.
#pragma once

#include <cstdint>

#include "core/sorted_list.hpp"
#include "runtime/combiner.hpp"
#include "runtime/system.hpp"

namespace pimds::core {

class PimLinkedList {
 public:
  struct Options {
    std::size_t vault = 0;  ///< vault that stores the list
  };

  /// Installs this list's message handler on `options.vault`. Must be
  /// constructed before `system.start()`.
  PimLinkedList(runtime::PimSystem& system, Options options);
  explicit PimLinkedList(runtime::PimSystem& system);

  PimLinkedList(const PimLinkedList&) = delete;
  PimLinkedList& operator=(const PimLinkedList&) = delete;

  /// Set operations; keys must be >= 1 (0 is the dummy head).
  bool add(std::uint64_t key);
  bool remove(std::uint64_t key);
  bool contains(std::uint64_t key);

  /// Current number of keys (published by the PIM core after each
  /// traversal; reads are racy snapshots suitable for stats).
  std::size_t size() const noexcept {
    return size_.value.load(std::memory_order_relaxed);
  }

  /// Largest batch the core has combined into one traversal (diagnostics).
  std::size_t max_observed_batch() const noexcept {
    return max_batch_seen_.value.load(std::memory_order_relaxed);
  }

  /// Largest CPU-side request batch shipped in one message (diagnostics).
  std::size_t max_request_batch() const noexcept {
    return static_cast<std::size_t>(combiner_.max_batch());
  }

 private:
  enum Kind : std::uint32_t { kAdd = 1, kRemove = 2, kContains = 3,
                              kOpBatch = 4 };

  void handle_batch(runtime::PimCoreApi& api, const runtime::Message* msgs,
                    std::size_t n);
  void serve(runtime::PimCoreApi& api, const SetRequest* requests,
             runtime::ResponseSlot<bool>* const* slots, std::size_t n);
  bool submit(Kind kind, std::uint64_t key);

  runtime::PimSystem& system_;
  Options options_;
  /// Lives in the vault, like its nodes, and is never destroyed: the vault
  /// arena goes away with the PimSystem, which may die before this object.
  SortedList<runtime::Vault>* list_;
  runtime::RequestCombiner combiner_;
  CachePadded<std::atomic<std::size_t>> size_{0};
  CachePadded<std::atomic<std::size_t>> max_batch_seen_{0};
};

}  // namespace pimds::core
