// FP subsystem of the pseudo-dual-issue core: offload queue + FREP sequencer,
// issue stage with scoreboard, pipelined FPU, iterative div/sqrt unit, FP
// load/store unit, the three SSR streamers, and the chaining unit.
//
// Issue protocol (see DESIGN.md §4): when the next instruction's operands are
// ready, they are read/popped atomically into a one-entry issue latch (the
// FPU input register); the latch drains into the FPU the same cycle unless
// the pipeline is frozen by writeback backpressure. Pops happen before the
// pipeline's writeback pushes within a cycle, so a value written back in
// cycle t is poppable in t+1 (issue-to-use = depth + 1).
#pragma once

#include <array>
#include <optional>
#include <string>

#include "asm/program.hpp"
#include "core/chain_unit.hpp"
#include "isa/reg.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/fpu.hpp"
#include "sim/perf.hpp"
#include "sim/sequencer.hpp"
#include "sim/sim_config.hpp"
#include "ssr/ssr_file.hpp"
#include "ssr/streamer.hpp"

namespace sch::sim {

/// Per-cycle shared structural state (the core's single TCDM port).
struct CorePort {
  bool used = false;
};

class IntCore;

class FpSubsystem {
 public:
  /// `hartid` selects this subsystem's TCDM requester block (it shares the
  /// owning core's LSU port priority).
  FpSubsystem(const SimConfig& cfg, Memory& mem, Tcdm& tcdm,
              PerfCounters& perf, u32 hartid = 0);

  /// Wire the integer core that receives FP->integer writebacks (compares,
  /// conversions) through IntCore::schedule_write.
  void set_int_wb_sink(IntCore* core) { int_wb_ = core; }

  // --- integer-core interface ---
  [[nodiscard]] bool offload_ready() const { return !seq_.queue_full(); }
  void offload(FpOp op) { seq_.push(std::move(op)); }

  /// Ordering interlock for the integer LSU: true while a pending (queued
  /// or frep-replayed, not yet executed) fld/fsd overlaps the access and at
  /// least one side writes. Issued ops are not hazards -- their memory
  /// effect is applied at FP issue time. SSR/DMA traffic is exempt: those
  /// streams are architecturally asynchronous and synchronized explicitly
  /// (SSR disable barrier, dmstat polling).
  [[nodiscard]] bool mem_hazard(u32 addr, u32 bytes, bool int_is_write) const {
    return seq_.pending_mem_overlap(addr, bytes, int_is_write);
  }

  /// Everything drained: queue, latch, pipeline, div unit, LSU, write streams.
  [[nodiscard]] bool quiescent() const;

  void set_ssr_enable(bool enable) {
    ssr_enabled_ = enable;
    update_src_kinds();
  }
  [[nodiscard]] bool ssr_enabled() const { return ssr_enabled_; }
  void set_chain_mask(u32 mask);
  [[nodiscard]] u32 chain_mask() const { return chain_.mask(); }

  Status cfg_write(i32 index, u32 value);
  [[nodiscard]] u32 cfg_read(i32 index) const;

  // --- simulation loop interface ---
  void begin_cycle(Cycle now);
  void tick(Cycle now, CorePort& port);
  ssr::Streamer& streamer(u32 i) { return streamers_[i]; }
  [[nodiscard]] const ssr::Streamer& streamer(u32 i) const { return streamers_[i]; }

  [[nodiscard]] bool has_error() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Kind of the failure behind error() (kNone while there is none).
  [[nodiscard]] FailureKind failure_kind() const { return failure_kind_; }
  /// pc of the op behind error(): the faulting op's offload pc, or the frep
  /// marker's for a sequencer error.
  [[nodiscard]] Addr error_pc() const { return error_pc_; }

  // --- observability ---
  [[nodiscard]] const std::array<u64, isa::kNumFpRegs>& fregs() const { return fregs_; }
  [[nodiscard]] std::array<u64, isa::kNumFpRegs>& fregs() { return fregs_; }
  [[nodiscard]] const chain::ChainUnit& chain() const { return chain_; }
  /// Mutable chain-unit access for fault injection (sim::FaultPlan).
  [[nodiscard]] chain::ChainUnit& chain_mut() { return chain_; }
  [[nodiscard]] const FpuPipeline& pipeline() const { return pipe_; }
  [[nodiscard]] const Sequencer& sequencer() const { return seq_; }
  /// The op issued this cycle, or null (api::TraceObserver renders it).
  /// Points into the core's Program: recording it costs one store.
  [[nodiscard]] const isa::Instr* last_issue() const { return last_issue_; }
  /// Stall cause tag of this cycle ("" if none). Stored as a pointer to a
  /// string literal so the hot loop never touches a std::string.
  [[nodiscard]] const char* last_stall() const { return last_stall_; }

 private:
  /// Where an FP register operand lives under the current SSR enable,
  /// stream directions and chain mask.
  enum class SrcKind : u8 { kRf, kChain, kSsrRead, kSsrWrite };

  /// One-entry issue latch (the FPU input register).
  struct Latch {
    bool full = false;
    bool to_div = false;  // the iterative div/sqrt unit, else the pipeline
    FpuSlot slot;
  };

  struct LsuPending {
    bool busy = false;
    u8 rd = 0;
    DestKind dest = DestKind::kNone;
    u64 value = 0;
    Cycle ready_at = 0;
  };

  /// Fail the run at `pc` (the faulting op's): the message gets the same
  /// "pc=0x...: " prefix IntCore::fail writes.
  void fail(const std::string& message, Addr pc,
            FailureKind kind = FailureKind::kValidation);

  /// Recompute src_kind_. Called by every write that changes an input:
  /// set_ssr_enable, set_chain_mask and the arming branch of cfg_write.
  void update_src_kinds();
  /// Fail a read of a register armed as a write stream (`read`) or a write
  /// to one armed as a read stream, at `pc`.
  void fail_stream_direction(u8 reg, bool read, Addr pc);

  // The operand helpers below run several times per issued op; they are
  // defined here so they inline into the fill functions, with their one
  // failure path out of line.

  /// True when the source operand can be read/popped this cycle; on false,
  /// bumps the corresponding stall counter (or fails the run at op's pc).
  bool src_ready(u8 reg, const FpOp& op) {
    switch (src_kind_[reg]) {
      case SrcKind::kSsrRead:
        if (!streamers_[reg].can_pop()) {
          ++perf_.stall_ssr_empty;
          last_stall_ = "ssr-empty";
          return false;
        }
        return true;
      case SrcKind::kSsrWrite:
        fail_stream_direction(reg, /*read=*/true, op.pc);
        return false;
      case SrcKind::kChain:
        if (!chain_.can_pop(reg)) {
          ++perf_.stall_chain_empty;
          last_stall_ = "chain-empty";
          return false;
        }
        return true;
      case SrcKind::kRf:
        if (busy_f_[reg] != 0) {
          ++perf_.stall_fp_raw;
          last_stall_ = "raw";
          return false;
        }
        return true;
    }
    return false;
  }

  /// Read/pop the source operand value (commits SSR/chain pops).
  u64 read_src(u8 reg) {
    switch (src_kind_[reg]) {
      case SrcKind::kSsrRead:
        return streamers_[reg].pop();
      case SrcKind::kChain:
        return chain_.pop(reg);
      case SrcKind::kRf:
        ++perf_.rf_fp_reads;
        return fregs_[reg];
      case SrcKind::kSsrWrite: // src_ready() failed the run first
        break;
    }
    return 0;
  }

  /// Resolve the destination kind for an FP-destination instruction.
  std::optional<DestKind> resolve_dest(u8 rd, const FpOp& op) {
    switch (src_kind_[rd]) {
      case SrcKind::kSsrWrite:
        return DestKind::kSsrWrite;
      case SrcKind::kSsrRead:
        fail_stream_direction(rd, /*read=*/false, op.pc);
        return std::nullopt;
      case SrcKind::kChain:
        return DestKind::kChain; // no WAW for chained regs
      case SrcKind::kRf:
        break;
    }
    if (busy_f_[rd] != 0) {
      ++perf_.stall_fp_waw;
      last_stall_ = "waw";
      return std::nullopt;
    }
    return DestKind::kFpReg;
  }

  void try_fill_latch(Cycle now, CorePort& port);
  void fill_compute(const FpOp& op);
  void fill_load(const FpOp& op, Cycle now, CorePort& port);
  void fill_store(const FpOp& op, CorePort& port);
  /// Attempt writeback of `slot`; returns false when blocked (backpressure).
  bool try_writeback(const FpuSlot& slot, Cycle now);
  void tick_lsu(Cycle now);
  void drain_latch(Cycle now);

  const SimConfig& cfg_;
  Memory& mem_;
  Tcdm& tcdm_;
  PerfCounters& perf_;
  const u32 lsu_req_; // the owning core's LSU requester id in the shared TCDM

  Sequencer seq_;
  FpuPipeline pipe_;
  IterativeUnit div_;
  LsuPending lsu_;
  chain::ChainUnit chain_;

  std::array<u64, isa::kNumFpRegs> fregs_{};
  std::array<u8, isa::kNumFpRegs> busy_f_{}; // outstanding writes per register

  bool ssr_enabled_ = false;
  /// Per-register operand source, so issue looks it up instead of
  /// re-testing the SSR enable, stream direction and chain mask.
  std::array<SrcKind, isa::kNumFpRegs> src_kind_{};
  std::array<ssr::SsrRawConfig, ssr::kNumSsrs> ssr_cfgs_{};
  std::array<ssr::Streamer, ssr::kNumSsrs> streamers_;

  Latch latch_;
  IntCore* int_wb_ = nullptr;
  std::string error_;
  const isa::Instr* last_issue_ = nullptr;
  const char* last_stall_ = "";
  u64 issue_seq_ = 0;
  FailureKind failure_kind_ = FailureKind::kNone;
  Addr error_pc_ = 0;
};

} // namespace sch::sim
