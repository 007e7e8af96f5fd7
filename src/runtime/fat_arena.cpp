#include "runtime/fat_arena.hpp"

namespace pimds::runtime {

FatArena& FatArena::instance() {
  static FatArena arena;
  return arena;
}

FatArena::FatArena()
    : pool_(kPoolCapacity),
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
  if (!pool_.try_push(block)) delete[] block;
}

// The arena is a function-local static, so this runs single-threaded at
// process exit, after every PimSystem has joined its cores.
FatArena::~FatArena() {
  while (std::optional<FatEntry*> block = pool_.try_pop()) delete[] *block;
}

}  // namespace pimds::runtime
