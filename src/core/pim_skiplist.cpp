#include "core/pim_skiplist.hpp"

#include <cassert>
#include <iterator>

#include "runtime/mailbox.hpp"

namespace pimds::core {

using runtime::Message;
using runtime::PimCoreApi;
using runtime::ResponseSlot;

namespace {

std::vector<SentinelDirectory::Entry> initial_partitions(
    const PimSkipList::Options& options, std::size_t vaults) {
  const std::uint64_t span = options.key_max - options.key_min + 1;
  std::vector<SentinelDirectory::Entry> entries;
  entries.reserve(vaults);
  for (std::size_t v = 0; v < vaults; ++v) {
    entries.push_back({options.key_min + v * span / vaults, v});
  }
  return entries;
}

obs::LoadMap::Options loadmap_options(const PimSkipList::Options& options,
                                      std::size_t vaults) {
  obs::LoadMap::Options lm;
  lm.num_vaults = vaults;
  lm.key_min = options.key_min;
  lm.key_max = options.key_max;
  lm.registry_prefix = "skiplist";
  return lm;
}

}  // namespace

PimSkipList::PimSkipList(runtime::PimSystem& system)
    : PimSkipList(system, Options{}) {}

PimSkipList::PimSkipList(runtime::PimSystem& system, Options options)
    : system_(system),
      options_(options),
      directory_(initial_partitions(options, system.num_vaults())),
      loadmap_(loadmap_options(options, system.num_vaults())) {
  combiners_.reserve(system_.num_vaults());
  for (std::size_t v = 0; v < system_.num_vaults(); ++v) {
    combiners_.push_back(std::make_unique<runtime::RequestCombiner>());
  }
  const std::size_t num_ranges = loadmap_.options().num_ranges;
  combine_range_ =
      std::make_unique<std::atomic<std::uint8_t>[]>(num_ranges);
  for (std::size_t i = 0; i < num_ranges; ++i) {
    combine_range_[i].store(0, std::memory_order_relaxed);
  }
  for (std::size_t v = 0; v < system_.num_vaults(); ++v) {
    auto state = std::make_unique<VaultState>();
    // The local index holds any key of the domain: migrations may later
    // hand this vault a range below the one it started with (Section
    // 4.2.1). Range routing is the directory's job; the index windows the
    // whole domain so every vault computes any key's root the same way.
    state->list = std::make_unique<VaultIndex>(
        system_.vault(v), options_.key_min, options_.key_max);
    vaults_.push_back(std::move(state));
    // Batch handler: ride the runtime's batched mailbox drain (no per-
    // message head-of-line stall) but serve strictly in arrival order —
    // the migration protocol (kMigNode/kMigEnd vs. forwarded ops) depends
    // on per-channel FIFO, so no reordering or cross-message combining.
    system_.set_batch_handler(
        v, [this](PimCoreApi& api, const Message* msgs, std::size_t n) {
          for (std::size_t i = 0; i < n; ++i) handle(api, msgs[i]);
        });
    system_.set_idle_handler(v, [this](PimCoreApi& api) {
      VaultState& vs = *vaults_[api.vault_id()];
      if (vs.mig.active && vs.mig.outgoing) return step_migration(api);
      return false;
    });
  }
  // Seed every core's local ownership view from the initial layout (safe
  // here: handlers only run after start()).
  const auto entries = directory_.snapshot();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const std::uint64_t hi =
        i + 1 < entries.size() ? entries[i + 1].sentinel : ~std::uint64_t{0};
    vaults_[entries[i].vault]->owned.emplace(entries[i].sentinel, hi);
  }
}

bool PimSkipList::owns_locally(const VaultState& vs, std::uint64_t key) {
  auto it = vs.owned.upper_bound(key);
  if (it == vs.owned.begin()) return false;
  --it;
  return key < it->second;
}

bool PimSkipList::submit(Kind kind, std::uint64_t key) {
  assert(key >= options_.key_min && key <= options_.key_max &&
         "key outside the configured range");
  ResponseSlot<OpReply> slot;
  for (;;) {
    const std::size_t vault = directory_.route(key);
    if (range_combining(key)) {
      runtime::RequestCombiner::Entry entry{};
      entry.kind = kind;
      entry.key = key;
      entry.slot = &slot;
      combiners_[vault]->submit(entry, [this, vault](Message& m) {
        m.kind = kOpBatch;
        system_.send(vault, m);
      });
    } else {
      Message m;
      m.kind = kind;
      m.key = key;
      m.slot = &slot;
      system_.send(vault, m);
    }
    const OpReply r = slot.await();
    if (r.accepted) return r.result;
    // Stale routing: the partition moved; the directory has (or will have)
    // the new owner. A combined entry routed on a stale read is rejected
    // per-op by the vault's owned-ranges gate, so the retry here re-routes
    // it exactly like a direct send.
  }
}

std::uint64_t PimSkipList::combined_batches() const noexcept {
  std::uint64_t n = 0;
  for (const auto& c : combiners_) n += c->batches_sent();
  return n;
}

std::uint64_t PimSkipList::combined_ops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& c : combiners_) n += c->requests_combined();
  return n;
}

bool PimSkipList::add(std::uint64_t key) { return submit(kAdd, key); }
bool PimSkipList::remove(std::uint64_t key) { return submit(kRemove, key); }
bool PimSkipList::contains(std::uint64_t key) {
  return submit(kContains, key);
}

bool PimSkipList::migrate(std::uint64_t split_key, std::size_t to_vault) {
  if (to_vault >= system_.num_vaults() || split_key < options_.key_min ||
      split_key > options_.key_max) {
    return false;
  }
  bool expected = false;
  if (!migration_busy_.value.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return false;  // one migration at a time (Section 4.2.1's restriction)
  }
  const SentinelDirectory::Range range = directory_.partition_of(split_key);
  if (range.vault == to_vault) {
    migration_busy_.value.store(false, std::memory_order_release);
    return false;
  }
  ResponseSlot<OpReply> slot;
  Message m;
  m.kind = kMigStart;
  m.key = split_key;
  m.value = range.hi;
  m.sender = static_cast<std::uint32_t>(to_vault);
  m.slot = &slot;
  system_.send(range.vault, m);
  if (!slot.await().accepted) {
    migration_busy_.value.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

void PimSkipList::execute_and_reply(PimCoreApi& api, const Message& m) {
  VaultState& vs = *vaults_[api.vault_id()];
  std::uint64_t steps = 0;
  bool result = false;
  switch (m.kind) {
    case kAdd:
      result = vs.list->add(m.key, &steps);
      if (result) vs.keys.value.fetch_add(1, std::memory_order_relaxed);
      break;
    case kRemove:
      result = vs.list->remove(m.key, &steps);
      if (result) vs.keys.value.fetch_sub(1, std::memory_order_relaxed);
      break;
    case kContains:
      result = vs.list->contains(m.key, &steps);
      break;
    default:
      assert(false && "not an operation message");
  }
  api.charge_local_access(steps);
  static_cast<ResponseSlot<OpReply>*>(m.slot)->publish(
      OpReply{true, result}, api.reply_ready_ns());
}

bool PimSkipList::step_migration(PimCoreApi& api) {
  VaultState& vs = *vaults_[api.vault_id()];
  Migration& mig = vs.mig;
  assert(mig.active && mig.outgoing);
  for (std::size_t moved = 0; moved < options_.migrate_chunk; ++moved) {
    const std::optional<std::uint64_t> key =
        vs.list->first_at_least(mig.cursor);
    if (!key.has_value() || *key >= mig.hi) {
      // Hand-over complete. Drop [lo, hi) from this core's own ownership
      // view, then redirect the CPUs (the paper notifies them before
      // telling the target the migration is over), then tell the target,
      // whose kMigEnd processing releases the deferred requests and the
      // global migration slot.
      auto it = std::prev(vs.owned.upper_bound(mig.lo));
      assert(it->first <= mig.lo && mig.hi <= it->second);
      const std::uint64_t old_hi = it->second;
      if (it->first == mig.lo) {
        vs.owned.erase(it);
      } else {
        it->second = mig.lo;
      }
      if (mig.hi < old_hi) vs.owned.emplace(mig.hi, old_hi);
      directory_.move_range(mig.lo, mig.peer);
      mig.active = false;
      Message end;
      end.kind = kMigEnd;
      end.key = mig.lo;
      api.send(mig.peer, end);
      return true;
    }
    std::uint64_t steps = 0;
    vs.list->extract_first_at_least(mig.cursor, &steps);
    api.charge_local_access(steps);
    vs.keys.value.fetch_sub(1, std::memory_order_relaxed);
    migrated_keys_.value.fetch_add(1, std::memory_order_relaxed);
    Message node;
    node.kind = kMigNode;
    node.key = *key;
    api.send(mig.peer, node);
    mig.cursor = *key + 1;
  }
  return true;
}

void PimSkipList::handle_op(PimCoreApi& api, const Message& m,
                            bool forwarded) {
  VaultState& vs = *vaults_[api.vault_id()];
  vs.requests.value.fetch_add(1, std::memory_order_relaxed);
  loadmap_.record(api.vault_id(), m.key);
  if (forwarded) {
    // The source only forwards keys it has already handed over, and the
    // per-channel FIFO guarantees the kMigNode carrying them arrived first.
    execute_and_reply(api, m);
    return;
  }
  const Migration& mig = vs.mig;
  if (mig.active && m.key >= mig.lo && m.key < mig.hi) {
    if (mig.outgoing) {
      if (m.key >= mig.cursor) {
        execute_and_reply(api, m);  // not yet migrated: still ours
      } else {
        Message fwd = m;
        fwd.kind = forward_kind(m.kind);
        api.send(mig.peer, fwd);  // migrated: the target owns it
      }
    } else {
      // Incoming range: defer direct requests until kMigEnd so they cannot
      // overtake in-flight kMigNode messages on the source's channel.
      vs.deferred.push_back(m);
    }
    return;
  }
  if (!owns_locally(vs, m.key)) {
    // Stale request for a range this core does not (or does not YET) own:
    // make the CPU re-route. Deciding by the local view instead of the
    // shared directory matters on the not-yet side — the directory can
    // already point here while the granting kMigBegin/kMigNode/kMigEnd
    // stream is still queued behind this request (found by the
    // linearizability oracle under TSan: a delayed core answered
    // contains() from a list missing the in-flight nodes). The retried
    // request re-enters this mailbox behind the grant, so it lands in the
    // deferred queue or executes after the hand-over, never before.
    static_cast<ResponseSlot<OpReply>*>(m.slot)->publish(
        OpReply{false, false}, api.reply_ready_ns());
    return;
  }
  execute_and_reply(api, m);
}

void PimSkipList::handle(PimCoreApi& api, const Message& m) {
  VaultState& vs = *vaults_[api.vault_id()];
  switch (m.kind) {
    case kAdd:
    case kRemove:
    case kContains:
      handle_op(api, m, /*forwarded=*/false);
      break;
    case kFwdAdd:
    case kFwdRemove:
    case kFwdContains: {
      Message op = m;
      op.kind = m.kind - 7;  // back to kAdd / kRemove / kContains
      handle_op(api, op, /*forwarded=*/true);
      break;
    }
    case kOpBatch: {
      // Combined direct ops: decode each fat entry into a plain op message
      // and run it through the normal gate. The migration semantics hold
      // per entry (execute / forward / defer / reject individually); a
      // deferred entry is copied into the deferred queue by value, so the
      // fat payload can be released as soon as the loop is done.
      const runtime::FatEntry* entries = runtime::fat_entries(m);
      for (std::uint16_t j = 0; j < m.fat_count; ++j) {
        Message op;
        op.kind = entries[j].kind;
        op.key = entries[j].key;
        op.slot = entries[j].slot;
#ifndef PIMDS_OBS_DISABLED
        op.req_id = entries[j].req_id;
#endif
        handle_op(api, op, /*forwarded=*/false);
      }
      runtime::release_fat_payload(m);
      break;
    }
    case kMigStart: {
      auto* slot = static_cast<ResponseSlot<OpReply>*>(m.slot);
      // The owns_locally check is defensive: migration_busy_ serializes
      // migrations and is only released by the previous target's kMigEnd
      // processing (which grants its owned range first), so a kMigStart
      // can never outrun the grant it depends on. Reject rather than
      // silently migrate keys this core does not hold.
      if (vs.mig.active || !owns_locally(vs, m.key)) {
        slot->publish(OpReply{false, false}, api.reply_ready_ns());
        break;
      }
      vs.mig = Migration{true, /*outgoing=*/true, m.key, m.value,
                         static_cast<std::size_t>(m.sender), m.key};
      Message begin;
      begin.kind = kMigBegin;
      begin.key = m.key;
      begin.value = m.value;
      api.send(vs.mig.peer, begin);
      slot->publish(OpReply{true, true}, api.reply_ready_ns());
      break;
    }
    case kMigBegin:
      assert(!vs.mig.active);
      vs.mig = Migration{true, /*outgoing=*/false, m.key, m.value,
                         static_cast<std::size_t>(m.sender), m.key};
      vs.incoming_cursor = VaultIndex::InsertCursor{};
      break;
    case kMigNode: {
      std::uint64_t steps = 0;
      const bool inserted =
          vs.list->insert_ascending(vs.incoming_cursor, m.key, &steps);
      api.charge_local_access(steps);
      assert(inserted && "migrated key already present at target");
      (void)inserted;
      vs.keys.value.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    case kMigEnd: {
      assert(vs.mig.active && !vs.mig.outgoing);
      vs.owned.emplace(vs.mig.lo, vs.mig.hi);  // the grant takes effect
      vs.mig.active = false;
      // Serve requests that raced with the migration; this core now owns
      // the range, so they execute locally.
      std::deque<Message> deferred;
      deferred.swap(vs.deferred);
      for (const Message& req : deferred) handle_op(api, req, false);
      migration_busy_.value.store(false, std::memory_order_release);
      break;
    }
    default:
      assert(false && "unknown skip-list opcode");
  }
  // Drive an outgoing migration forward even under request load.
  if (vs.mig.active && vs.mig.outgoing) step_migration(api);
}

std::vector<PimSkipList::VaultStats> PimSkipList::vault_stats() const {
  std::vector<VaultStats> out;
  out.reserve(vaults_.size());
  for (const auto& vs : vaults_) {
    out.push_back({vs->keys.value.load(std::memory_order_relaxed),
                   vs->requests.value.load(std::memory_order_relaxed)});
  }
  return out;
}

std::size_t PimSkipList::size() const noexcept {
  std::size_t total = 0;
  for (const auto& vs : vaults_) {
    total += vs->keys.value.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace pimds::core
