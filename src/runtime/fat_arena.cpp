#include "runtime/fat_arena.hpp"

namespace pimds::runtime {

FatArena& FatArena::instance() {
  static FatArena arena;
  return arena;
}

FatArena::FatArena()
    : pool_(kPoolCapacity),
      reclaim_(make_reclaimer(ReclaimPolicy::kEbr, "fat_arena")),
      acquires_(obs::Registry::instance().counter("runtime.fat_arena.acquires")),
      releases_(obs::Registry::instance().counter("runtime.fat_arena.releases")),
      heap_allocs_(
          obs::Registry::instance().counter("runtime.fat_arena.heap_allocs")) {}

FatEntry* FatArena::acquire() {
  acquires_.add(1);
  if (std::optional<FatEntry*> block = pool_.try_pop()) return *block;
  heap_allocs_.add(1);
  return new FatEntry[kMaxFatEntries];
}

void FatArena::release(FatEntry* block) {
  releases_.add(1);
  ReclaimGuard guard(*reclaim_);
  guard.retire(block, &FatArena::recycle);
}

// The arena is a function-local static, so this runs single-threaded at
// process exit, after every PimSystem has joined its cores. Retired blocks
// go back to the pool first; then the pool is emptied.
FatArena::~FatArena() {
  reclaim_->reclaim_all_unsafe();
  while (std::optional<FatEntry*> block = pool_.try_pop()) delete[] *block;
}

// Runs when the reclaimer frees a retired block.
void FatArena::recycle(void* p) {
  auto* block = static_cast<FatEntry*>(p);
  if (!instance().pool_.try_push(block)) delete[] block;
}

}  // namespace pimds::runtime
