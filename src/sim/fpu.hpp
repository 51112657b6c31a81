// Pipelined FPU model. Results are computed at issue (functional-ahead) and
// carried through the pipeline; writeback applies them to the destination:
// FP register file, chain FIFO (push), SSR write stream, or the integer
// core (compares/conversions). A blocked writeback freezes the pipeline --
// this freeze is exactly the chaining backpressure mechanism of the paper.
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "isa/instr.hpp"

namespace sch::sim {

/// Where a result goes at writeback.
enum class DestKind : u8 { kNone, kFpReg, kChain, kSsrWrite, kIntReg };

struct FpuSlot {
  bool busy = false;
  isa::Mnemonic mn = isa::Mnemonic::kInvalid;
  u8 rd = 0;
  DestKind dest = DestKind::kNone;
  u64 result = 0;
  u64 seq = 0; // issue order, for traces
};

class FpuPipeline {
 public:
  explicit FpuPipeline(u32 depth) : slots_(depth) {}

  [[nodiscard]] u32 depth() const { return static_cast<u32>(slots_.size()); }
  [[nodiscard]] bool stage0_free() const { return !slots_[head_].busy; }
  [[nodiscard]] const FpuSlot& last() const { return slots_[last_index()]; }
  [[nodiscard]] const FpuSlot& stage(u32 i) const {
    const u32 p = head_ + i;
    return slots_[p < depth() ? p : p - depth()];
  }
  [[nodiscard]] bool empty() const {
    for (const FpuSlot& s : slots_) {
      if (s.busy) return false;
    }
    return true;
  }

  /// Insert into stage 0 (issue). Requires stage0_free().
  void insert(const FpuSlot& slot) { slots_[head_] = slot; }

  /// Advance one cycle after the last stage was written back (or was empty):
  /// every slot moves one stage forward and stage 0 is cleared. The slots
  /// form a ring, so this moves stage 0 back onto the old last stage's
  /// slot and copies no other slot.
  void advance() {
    head_ = last_index();
    slots_[head_] = FpuSlot{};
  }

  /// Clear the last stage in place (writeback done, used before advance()).
  void clear_last() { slots_[last_index()] = FpuSlot{}; }

 private:
  [[nodiscard]] u32 last_index() const {
    return head_ == 0 ? depth() - 1 : head_ - 1;
  }

  std::vector<FpuSlot> slots_;
  u32 head_ = 0; // slots_ index of stage 0; stage i is i slots further on
};

/// Iterative (unpipelined) unit for fdiv/fsqrt.
struct IterativeUnit {
  bool busy = false;
  FpuSlot slot{};
  Cycle done_at = 0;

  [[nodiscard]] bool ready(Cycle now) const { return busy && now >= done_at; }
};

} // namespace sch::sim
