#include "core/pim_skiplist.hpp"

#include <cassert>

#include "runtime/mailbox.hpp"

namespace pimds::core {

using runtime::Message;
using runtime::PimCoreApi;
using runtime::ResponseSlot;

namespace {

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

/// SkipListVault's context over the runtime: one per handler call.
struct PimSkipList::VaultCtx {
  PimCoreApi& api;
  PimSkipList& list;

  std::size_t self() const { return api.vault_id(); }
  void send(std::size_t vault, const Vault::Signal& s) {
    Message m;
    m.kind = kSignal + static_cast<std::uint32_t>(s.kind);
    m.key = s.key;
    m.value = s.kind == Vault::Signal::Kind::kForward
                  ? static_cast<std::uint64_t>(s.op)
                  : s.hi;
    m.slot = s.requester;
    api.send(vault, m);
  }
  void charge(std::uint64_t n) { api.charge_local_access(n); }
  void reply(Requester r, SkipListReply reply) {
    r->publish(reply, api.reply_ready_ns());
  }
  void record(std::uint64_t key) { list.loadmap_.record(self(), key); }
  void publish_range(std::uint64_t lo, std::size_t vault) {
    list.directory_.move_range(lo, vault);
  }
  void migration_done() {
    list.migration_busy_.value.store(false, std::memory_order_release);
  }
};

PimSkipList::PimSkipList(runtime::PimSystem& system, Options options)
    : system_(system),
      options_(options),
      directory_(SentinelDirectory::equal_ranges(
          options.key_min, options.key_max, system.num_vaults())),
      loadmap_(loadmap_options(options, system.num_vaults())) {
  combiners_.reserve(system_.num_vaults());
  for (std::size_t v = 0; v < system_.num_vaults(); ++v) {
    combiners_.push_back(std::make_unique<runtime::RequestCombiner>());
  }
  for (std::size_t v = 0; v < system_.num_vaults(); ++v) {
    // The local index holds any key of the domain: migrations may later
    // hand this vault a range below the one it started with (Section
    // 4.2.1). Range routing is the directory's job; the index windows the
    // whole domain so every vault computes any key's root the same way.
    vaults_.push_back(std::make_unique<Vault>(
        options_.migrate_chunk, NoMigrationFault{}, system_.vault(v),
        options_.key_min, options_.key_max));
    // Batch handler: ride the runtime's batched mailbox drain (no per-
    // message head-of-line stall) but serve strictly in arrival order —
    // the migration protocol (kMigNode/kMigEnd vs. forwarded ops) depends
    // on per-channel FIFO, so no reordering or cross-message combining.
    system_.set_batch_handler(
        v, [this](PimCoreApi& api, const Message* msgs, std::size_t n) {
          VaultCtx ctx{api, *this};
          for (std::size_t i = 0; i < n; ++i) handle(ctx, msgs[i]);
        });
    system_.set_idle_handler(v, [this](PimCoreApi& api) {
      VaultCtx ctx{api, *this};
      return vaults_[api.vault_id()]->step_migration(ctx);
    });
  }
  // Safe here: handlers only run after start().
  Vault::assign_initial(
      directory_, [this](std::size_t v) -> Vault& { return *vaults_[v]; });
}

bool PimSkipList::submit(SetOp op, std::uint64_t key) {
  assert(key >= options_.key_min && key <= options_.key_max &&
         "key outside the configured range");
  ResponseSlot<SkipListReply> slot;
  for (;;) {
    const std::size_t vault = directory_.route(key);
    runtime::RequestCombiner::Entry entry{};
    entry.key = key;
    entry.value = static_cast<std::uint64_t>(op);
    entry.slot = &slot;
    // The combiner_wait phase: submission to "shipped in some batch".
    const std::uint64_t t0 = obs::metrics_enabled() ? now_ns() : 0;
    combiners_[vault]->submit(entry, [this, vault](Message& m) {
      m.kind = kOpBatch;
      system_.send(vault, m);
    });
    if (t0 != 0) {
      obs::record_runtime_phase(obs::Phase::kCombinerWait, now_ns() - t0);
    }
    const SkipListReply r = slot.await();
    if (r.accepted) return r.result;
    // Stale routing: the partition moved; the directory has (or will have)
    // the new owner. The vault's owned-ranges gate rejected this entry on
    // its own, so the retry re-routes just this op.
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

bool PimSkipList::add(std::uint64_t key) { return submit(SetOp::kAdd, key); }
bool PimSkipList::remove(std::uint64_t key) {
  return submit(SetOp::kRemove, key);
}
bool PimSkipList::contains(std::uint64_t key) {
  return submit(SetOp::kContains, key);
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
  ResponseSlot<SkipListReply> slot;
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

void PimSkipList::handle(VaultCtx& ctx, const Message& m) {
  Vault& vault = *vaults_[ctx.self()];
  switch (m.kind) {
    case kOpBatch: {
      // Each entry goes through the gate on its own (execute / forward /
      // defer / reject); a deferred entry is copied, so the fat payload can
      // be released as soon as the loop is done. An outgoing migration
      // advances after every served op, however the ops were batched.
      const runtime::FatEntry* entries = runtime::fat_entries(m);
      for (std::uint16_t j = 0; j < m.fat_count; ++j) {
        vault.request(ctx, static_cast<SetOp>(entries[j].value),
                      entries[j].key, static_cast<Requester>(entries[j].slot));
        vault.step_migration(ctx);
      }
      runtime::release_fat_payload(m);
      return;
    }
    case kMigStart:
      vault.start_migration(ctx, m.key, m.value, m.sender,
                            static_cast<Requester>(m.slot));
      break;
    default: {
      assert(m.kind >= kSignal && "unknown skip-list opcode");
      Vault::Signal s;
      s.kind = static_cast<Vault::Signal::Kind>(m.kind - kSignal);
      s.key = m.key;
      if (s.kind == Vault::Signal::Kind::kForward) {
        s.op = static_cast<SetOp>(m.value);
      } else {
        s.hi = m.value;
      }
      s.requester = static_cast<Requester>(m.slot);
      vault.receive(ctx, m.sender, s);
    }
  }
  // Drive an outgoing migration forward even under request load.
  vault.step_migration(ctx);
}

std::vector<PimSkipList::VaultStats> PimSkipList::vault_stats() const {
  std::vector<VaultStats> out;
  out.reserve(vaults_.size());
  for (const auto& vault : vaults_) {
    out.push_back({vault->stats().keys.load(std::memory_order_relaxed),
                   vault->stats().requests.load(std::memory_order_relaxed)});
  }
  return out;
}

std::uint64_t PimSkipList::migrated_keys() const noexcept {
  std::uint64_t n = 0;
  for (const auto& vault : vaults_) {
    n += vault->stats().migrated_keys.load(std::memory_order_relaxed);
  }
  return n;
}

std::size_t PimSkipList::size() const noexcept {
  std::size_t total = 0;
  for (const auto& vault : vaults_) {
    total += vault->stats().keys.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace pimds::core
