#include "core/chain_unit.hpp"

namespace sch::chain {

void ChainUnit::set_mask(u32 new_mask) {
  const u32 old_mask = mask_.value();
  for (u8 r = 0; r < isa::kNumFpRegs; ++r) {
    const bool was = ((old_mask >> r) & 1u) != 0;
    const bool now = ((new_mask >> r) & 1u) != 0;
    if (!was && now) {
      valid_[r] = false; // fresh FIFO: stale value is not an element
    }
    // Disabling keeps value_[r] as the architectural register content.
  }
  mask_.set_value(new_mask);
}

} // namespace sch::chain
