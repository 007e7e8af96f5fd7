// A PIM vault: a memory partition owned by exactly one PIM core.
//
// Per the paper's architecture (Section 2), "a vault can be accessed only by
// its local PIM core" and PIM cores do not share memory. The emulation
// enforces this in debug builds: after the owning core thread binds itself,
// every allocation and free asserts it runs on that thread.
//
// Allocation is a bump arena plus per-size-class free lists — single-
// threaded by construction, so no synchronization is needed (that absence
// is itself part of what makes PIM data structures simpler, a point the
// paper emphasizes). The arena is one anonymous memory mapping: its pages
// read zero and cost no resident memory until first touched, so a block
// the bump pointer hands out for the first time reads all-zero.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <utility>
#include <vector>

namespace pimds::runtime {

class Vault {
 public:
  /// Maps a `capacity_bytes` arena; throws std::bad_alloc if the OS cannot
  /// (as it cannot for 0 bytes).
  Vault(std::size_t vault_id, std::size_t capacity_bytes);
  ~Vault();

  Vault(const Vault&) = delete;
  Vault& operator=(const Vault&) = delete;

  std::size_t vault_id() const noexcept { return id_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t bytes_used() const noexcept { return used_; }

  /// Per-instance allocator traffic (the process-wide totals live in the
  /// registry as runtime.vault.allocs/frees). live_blocks() is the
  /// shutdown-time balance check: after a structure quiesces it must equal
  /// the blocks the structure intentionally keeps (e.g. live segments), or
  /// something leaked.
  std::uint64_t allocs() const noexcept { return allocs_; }
  std::uint64_t frees() const noexcept { return frees_; }
  std::uint64_t live_blocks() const noexcept { return allocs_ - frees_; }

  /// Called once by the owning PIM core thread; enables owner assertions.
  void bind_owner() noexcept { owner_ = std::this_thread::get_id(); }

  /// Raw allocation (throws std::bad_alloc when the vault is exhausted).
  void* allocate(std::size_t bytes, std::size_t alignment);

  /// Allocation that never takes a recycled block: it comes from the bump
  /// region, which no one has written, so it reads all-zero and its pages
  /// stay unbacked until first written.
  void* allocate_zeroed(std::size_t bytes, std::size_t alignment);

  /// Return a block obtained from allocate() to the vault's free list.
  void deallocate(void* p, std::size_t bytes, std::size_t alignment) noexcept;

  /// 32-bit references into the arena, for structures that pack block links
  /// into fixed-size nodes: a block's offset from the arena base, and back.
  /// The arena is one contiguous allocation, so an offset names a block as
  /// well as its address does as long as the capacity fits in 32 bits
  /// (kMaxOffsetCapacity, 4 GiB).
  static constexpr std::size_t kMaxOffsetCapacity = std::size_t{1} << 32;
  std::uint32_t offset_of(const void* p) const noexcept {
    assert(capacity_ <= kMaxOffsetCapacity && "vault too large for offsets");
    const auto off = static_cast<std::size_t>(
        static_cast<const std::byte*>(p) - arena_);
    assert(off < capacity_ && "pointer outside the vault arena");
    return static_cast<std::uint32_t>(off);
  }
  void* at_offset(std::uint32_t offset) const noexcept {
    assert(capacity_ <= kMaxOffsetCapacity && "vault too large for offsets");
    assert(offset < capacity_ && "offset outside the vault arena");
    return arena_ + offset;
  }

  /// Typed helpers.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  template <typename T>
  void destroy(T* p) noexcept {
    if (p == nullptr) return;
    p->~T();
    deallocate(p, sizeof(T), alignof(T));
  }

 private:
  void assert_owner() const noexcept;
  static std::size_t size_class(std::size_t bytes) noexcept;
  /// A never-used block off the bump region.
  void* bump(std::size_t bytes, std::size_t alignment);
  /// Count an allocation of `bytes` in the vault and registry totals.
  void note_alloc(std::size_t bytes) noexcept;

  std::size_t id_;
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::uint64_t allocs_ = 0;
  std::uint64_t frees_ = 0;
  std::byte* arena_ = nullptr;  // capacity_ bytes, mapped
  std::size_t bump_ = 0;
  // Free lists for 16/32/64/128/256-byte classes; larger blocks are not
  // recycled (rare in the data structures here).
  static constexpr std::size_t kNumClasses = 5;
  void* free_lists_[kNumClasses] = {};
  std::thread::id owner_{};
};

}  // namespace pimds::runtime
