#include "runtime/vault.hpp"

#include <sys/mman.h>

#include <cassert>
#include <cstring>

#include "obs/metrics.hpp"

namespace pimds::runtime {

namespace {
// Process-wide allocator traffic across all vaults (per-vault split is not
// worth a field per Vault: the interesting signal is total churn and the
// bytes high-water mark, which record_max folds across vaults).
struct VaultMetrics {
  obs::Counter& allocs = obs::Registry::instance().counter("runtime.vault.allocs");
  obs::Counter& frees = obs::Registry::instance().counter("runtime.vault.frees");
  obs::Gauge& bytes_hwm =
      obs::Registry::instance().gauge("runtime.vault.bytes_hwm");
};
VaultMetrics& vault_metrics() {
  static VaultMetrics m;
  return m;
}
}  // namespace

// An anonymous private mapping rather than new[] or calloc: untouched pages
// read zero and stay out of RSS, and a vault torn down returns its pages to
// the OS instead of leaving a chunk that the next vault's allocator would
// clear again.
Vault::Vault(std::size_t vault_id, std::size_t capacity_bytes)
    : id_(vault_id), capacity_(capacity_bytes) {
  void* p = ::mmap(nullptr, capacity_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  arena_ = static_cast<std::byte*>(p);
}

Vault::~Vault() { ::munmap(arena_, capacity_); }

void Vault::assert_owner() const noexcept {
  assert((owner_ == std::thread::id{} || owner_ == std::this_thread::get_id()) &&
         "vault accessed from a thread other than its PIM core");
}

std::size_t Vault::size_class(std::size_t bytes) noexcept {
  if (bytes <= 16) return 0;
  if (bytes <= 32) return 1;
  if (bytes <= 64) return 2;
  if (bytes <= 128) return 3;
  if (bytes <= 256) return 4;
  return kNumClasses;  // not recycled
}

void Vault::note_alloc(std::size_t bytes) noexcept {
  used_ += bytes;
  ++allocs_;
  vault_metrics().allocs.add(1);
  vault_metrics().bytes_hwm.record_max(used_);
}

void* Vault::bump(std::size_t bytes, std::size_t alignment) {
  // Free-listed classes round up so recycled blocks fit any request of the
  // same class. Alignment applies to the absolute address, not the arena
  // offset.
  const std::size_t cls = size_class(bytes);
  const std::size_t alloc_bytes =
      cls < kNumClasses ? (std::size_t{16} << cls) : bytes;
  const auto base = reinterpret_cast<std::uintptr_t>(arena_);
  const std::uintptr_t aligned =
      (base + bump_ + alignment - 1) & ~(alignment - 1);
  const std::size_t offset = aligned - base;
  if (offset + alloc_bytes > capacity_) throw std::bad_alloc();
  bump_ = offset + alloc_bytes;
  note_alloc(bytes);
  return arena_ + offset;
}

void* Vault::allocate(std::size_t bytes, std::size_t alignment) {
  assert_owner();
  const std::size_t cls = size_class(bytes);
  if (cls < kNumClasses && free_lists_[cls] != nullptr &&
      alignment <= alignof(std::max_align_t)) {
    void* p = free_lists_[cls];
    std::memcpy(&free_lists_[cls], p, sizeof(void*));
    note_alloc(bytes);
    return p;
  }
  return bump(bytes, alignment);
}

void* Vault::allocate_zeroed(std::size_t bytes, std::size_t alignment) {
  assert_owner();
  return bump(bytes, alignment);
}

void Vault::deallocate(void* p, std::size_t bytes,
                       std::size_t alignment) noexcept {
  assert_owner();
  if (p == nullptr) return;
  used_ -= bytes;
  ++frees_;
  vault_metrics().frees.add(1);
  const std::size_t cls = size_class(bytes);
  if (cls >= kNumClasses || alignment > alignof(std::max_align_t)) {
    return;  // large blocks are abandoned to the arena
  }
  std::memcpy(p, &free_lists_[cls], sizeof(void*));
  free_lists_[cls] = p;
}

}  // namespace pimds::runtime
