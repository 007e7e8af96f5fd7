#include "core/pim_linked_list.hpp"

#include <cassert>
#include <span>

#include "obs/phase.hpp"
#include "runtime/fat_arena.hpp"
#include "runtime/mailbox.hpp"

namespace pimds::core {

using runtime::Message;
using runtime::PimCoreApi;
using runtime::RequestCombiner;
using runtime::ResponseSlot;

namespace {
/// Cap on requests served per traversal (sizes the per-traversal scratch).
constexpr std::size_t kMaxServe = 64;
}  // namespace

PimLinkedList::PimLinkedList(runtime::PimSystem& system)
    : PimLinkedList(system, Options{}) {}

PimLinkedList::PimLinkedList(runtime::PimSystem& system, Options options)
    : system_(system), options_(options) {
  runtime::Vault& vault = system_.vault(options_.vault);
  list_ = vault.create<SortedList<runtime::Vault>>(vault);
  system_.set_batch_handler(
      options_.vault, [this](PimCoreApi& api, const Message* msgs,
                             std::size_t n) { handle_batch(api, msgs, n); });
}

bool PimLinkedList::submit(Kind kind, std::uint64_t key) {
  assert(key >= 1 && "key 0 is reserved for the dummy head");
  ResponseSlot<bool> slot;
  RequestCombiner::Entry entry{};
  entry.kind = kind;
  entry.key = key;
  entry.slot = &slot;
  // The combiner_wait phase: publication to "shipped in some batch".
  const std::uint64_t t0 = obs::metrics_enabled() ? now_ns() : 0;
  combiner_.submit(entry, [this](Message& m) {
    m.kind = kOpBatch;
    system_.send(options_.vault, m);
  });
  if (t0 != 0) {
    obs::record_runtime_phase(obs::Phase::kCombinerWait, now_ns() - t0);
  }
  return slot.await();
}

bool PimLinkedList::add(std::uint64_t key) { return submit(kAdd, key); }
bool PimLinkedList::remove(std::uint64_t key) { return submit(kRemove, key); }
bool PimLinkedList::contains(std::uint64_t key) {
  return submit(kContains, key);
}

/// Serve `n` decoded requests in one ascending traversal; all replies ride
/// one pipelined response (shared ready_ns).
void PimLinkedList::serve(PimCoreApi& api, const SetRequest* requests,
                          ResponseSlot<bool>* const* slots, std::size_t n) {
  if (n == 0) return;
  std::size_t seen = max_batch_seen_.value.load(std::memory_order_relaxed);
  while (n > seen && !max_batch_seen_.value.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  bool results[kMaxServe];
  list_->execute_batch(
      std::span<const SetRequest>(requests, n), results,
      [&api](std::uint64_t hops) { api.charge_local_access(hops); });
  size_.value.store(list_->size(), std::memory_order_relaxed);
  // One fat response message for the whole batch: every slot becomes
  // visible at the same delivery time while the core moves on.
  const std::uint64_t ready = api.reply_ready_ns();
  for (std::size_t i = 0; i < n; ++i) slots[i]->publish(results[i], ready);
}

void PimLinkedList::handle_batch(PimCoreApi& api, const Message* msgs,
                                 std::size_t n) {
  // Decode the CPU-combined messages into one flat request list, served in
  // traversals of at most kMaxServe requests.
  SetRequest requests[kMaxServe];
  ResponseSlot<bool>* slots[kMaxServe];
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Message& m = msgs[i];
    assert(m.kind == kOpBatch && "linked-list requests arrive combined");
    const runtime::FatEntry* entries = runtime::fat_entries(m);
    for (std::uint16_t j = 0; j < m.fat_count; ++j) {
      SetOp op = SetOp::kContains;
      switch (entries[j].kind) {
        case kAdd: op = SetOp::kAdd; break;
        case kRemove: op = SetOp::kRemove; break;
        case kContains: break;
        default: assert(false && "unknown linked-list opcode");
      }
      requests[count] = SetRequest{op, entries[j].key};
      slots[count] = static_cast<ResponseSlot<bool>*>(entries[j].slot);
      if (++count == kMaxServe) {
        serve(api, requests, slots, count);
        count = 0;
      }
    }
    runtime::release_fat_payload(m);
  }
  serve(api, requests, slots, count);
}

}  // namespace pimds::core
