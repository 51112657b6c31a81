// Timing-level chaining unit: the per-register valid bit and the push/pop
// protocol between the FPU writeback stage and the FP issue stage
// (paper, Section II: "we add a valid bit per architectural register to
// implement the backpressure mechanism").
//
// Protocol (see DESIGN.md §4):
//  * pop-at-issue: a consumer reading a chaining-enabled register takes the
//    architectural register value and clears the valid bit;
//  * push-at-writeback: a producer's value moves from the last FPU pipeline
//    register into the architectural register, setting the valid bit;
//  * backpressure: when the valid bit is set and nothing popped it, the
//    producer holds in the last pipeline stage (FPU stalls).
//
// `strict_handoff` forbids a push into a slot freed by a pop in the same
// cycle, modeling a conservative RTL without the pop->push bypass; it costs
// a bubble per handoff and exists as an ablation (bench/ablation_handoff).
#pragma once

#include <array>
#include <cassert>

#include "common/types.hpp"
#include "core/chain_config.hpp"

namespace sch::chain {

class ChainUnit {
 public:
  explicit ChainUnit(bool strict_handoff = false)
      : strict_handoff_(strict_handoff) {}

  /// CSR write. Enabling a register clears its valid bit (stale value is not
  /// an element). Disabling keeps the current value as the architectural one.
  void set_mask(u32 new_mask);

  [[nodiscard]] u32 mask() const { return mask_.value(); }
  [[nodiscard]] bool enabled(u8 reg) const { return mask_.enabled(reg); }

  /// Start-of-cycle bookkeeping (clears the popped/pushed-this-cycle marks).
  void begin_cycle() {
    popped_this_cycle_ = 0;
    pushed_this_cycle_ = 0;
  }

  /// Can the FP issue stage pop `reg` this cycle?
  [[nodiscard]] bool can_pop(u8 reg) const { return valid_[reg]; }

  /// Pop: returns the value and frees the slot.
  u64 pop(u8 reg) {
    assert(valid_[reg] && "chain pop of empty register");
    valid_[reg] = false;
    popped_this_cycle_ |= bit(reg);
    ++stats_.pops;
    return value_[reg];
  }

  /// Can the FPU writeback stage push into `reg` this cycle? At most one
  /// push per register per cycle (single writeback port); in strict mode a
  /// slot freed by a pop this cycle is not reusable until the next cycle.
  [[nodiscard]] bool can_push(u8 reg) const {
    if ((pushed_this_cycle_ & bit(reg)) != 0) return false;
    const bool popped = (popped_this_cycle_ & bit(reg)) != 0;
    if (strict_handoff_) return !valid_[reg] && !popped;
    return !valid_[reg] || popped;
  }

  /// Push: sets the valid bit and stores the value.
  void push(u8 reg, u64 value) {
    assert(can_push(reg) && "chain push into occupied register");
    valid_[reg] = true;
    value_[reg] = value;
    pushed_this_cycle_ |= bit(reg);
    ++stats_.pushes;
  }

  /// Fault injection (sim::FaultKind::kDropChainEntry): silently discard the
  /// entry in `reg`. The consumer that would have popped it waits forever,
  /// which is exactly what the cluster watchdog must detect.
  void drop(u8 reg) { valid_[reg] = false; }

  /// Raw register view (used when chaining is disabled mid-program and for
  /// the Fig. 2 pipeline-occupancy dump).
  [[nodiscard]] bool valid(u8 reg) const { return valid_[reg]; }
  [[nodiscard]] u64 value(u8 reg) const { return value_[reg]; }

  [[nodiscard]] bool strict_handoff() const { return strict_handoff_; }

  struct Stats {
    u64 pushes = 0;
    u64 pops = 0;
    u64 backpressure_cycles = 0;  // counted by the FPU on blocked pushes
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void count_backpressure() { ++stats_.backpressure_cycles; }

 private:
  static constexpr u32 bit(u8 reg) { return u32{1} << reg; }

  bool strict_handoff_;
  ChainMask mask_;
  std::array<bool, isa::kNumFpRegs> valid_{};
  std::array<u64, isa::kNumFpRegs> value_{};
  u32 popped_this_cycle_ = 0; // bit r: register r popped this cycle
  u32 pushed_this_cycle_ = 0; // bit r: register r pushed this cycle
  Stats stats_;
};

} // namespace sch::chain
