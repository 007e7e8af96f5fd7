// Set operations shared by every linked list and skip list in the library:
// the simulator's, the flat-combining baselines' and the runtime's.
#pragma once

#include <cstdint>

namespace pimds::core {

enum class SetOp : std::uint8_t { kAdd, kRemove, kContains };

struct SetRequest {
  SetOp op = SetOp::kContains;
  std::uint64_t key = 0;
};

}  // namespace pimds::core
