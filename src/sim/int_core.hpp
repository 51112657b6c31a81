// Integer core of the pseudo-dual-issue pair: fetch/issue at most one
// instruction per cycle; FP-domain instructions are offloaded into the FP
// subsystem's queue with their integer operands captured (addresses for
// fld/fsd, rs1 values for int->FP ops and frep), after which the core moves
// on -- FP stalls only reach the core through a full offload queue.
//
// tick() is the one issue path. It checks, in order: the blocking divider,
// the taken-branch bubble, the fetch, a malformed frep body, the FP barrier
// (fence and stream/chaining CSR accesses wait for the FP subsystem to go
// quiet) and the scoreboard, which is one AND of the pending-write mask
// against the integer fields the ISA row names (isa::preflag::kRdInt,
// kRs1Int, kRs2Int). An illegal encoding has no flags, so it passes those
// and its handler fails it. A handler holds only an instruction's
// semantics, its structural stalls and faults and its instruction-mix
// counter, and returns whether it issued; on issue tick() charges the
// register-file reads (the row's integer source fields), int_instrs or
// offloads, the trace hook and the pc step. Delayed register writebacks
// live in a fixed-capacity array (bounded by one outstanding write per
// architectural register), so the per-cycle loop is allocation-free.
#pragma once

#include <array>
#include <string>

#include "asm/program.hpp"
#include "dma/dma.hpp"
#include "iss/arch_state.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/fp_subsystem.hpp"
#include "sim/perf.hpp"
#include "sim/sim_config.hpp"

namespace sch::sim {

class IntCore {
 public:
  /// `hartid` selects this core's mhartid CSR value and its TCDM requester
  /// block (hartid * kTcdmPortsPerCore + role). `dma` is the cluster-shared
  /// DMA engine the Xdma instructions program.
  IntCore(const Program& prog, Memory& mem, Tcdm& tcdm, const SimConfig& cfg,
          PerfCounters& perf, FpSubsystem& fp, u32 hartid, dma::Engine& dma);

  /// Commit scheduled register writes (loads, muls, FP->int results) whose
  /// latency has elapsed. Call at the start of each cycle.
  void commit_pending(Cycle now);

  void tick(Cycle now, CorePort& port);

  /// Schedule a delayed integer register write (also used by the FP
  /// subsystem for compare/convert writebacks).
  void schedule_write(u8 rd, u32 value, Cycle ready_at);

  [[nodiscard]] bool halting() const { return halt_ != HaltReason::kNone; }
  /// No scheduled register writes outstanding (halt must wait for these).
  [[nodiscard]] bool pending_empty() const { return pending_size_ == 0; }
  [[nodiscard]] HaltReason halt_reason() const { return halt_; }
  [[nodiscard]] bool has_error() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Kind of the failure behind error() (kNone while there is none).
  [[nodiscard]] FailureKind failure_kind() const { return failure_kind_; }

  [[nodiscard]] const std::array<u32, isa::kNumIntRegs>& regs() const { return x_; }
  [[nodiscard]] Addr pc() const { return pc_; }
  /// The instruction issued this cycle (null if none) and whether it was
  /// offloaded to the FP subsystem (api::TraceObserver renders both). The
  /// pointer is into the core's Program: recording it costs one store.
  [[nodiscard]] const isa::Instr* last_issue() const { return last_issue_; }
  [[nodiscard]] bool last_offloaded() const { return last_offloaded_; }

 private:
  struct Pending {
    u8 rd;
    u32 value;
    Cycle ready_at;
  };

  /// Executes an instruction whose operands are ready; false when it did
  /// not issue this cycle (a structural stall, a fault or a halt).
  using Handler = bool (IntCore::*)(const isa::Instr&,
                                    const isa::PredecodedInstr&, Cycle,
                                    CorePort&);
  static const Handler kHandlers[static_cast<usize>(isa::ExecHandler::kCount)];

  void fail(const std::string& message,
            FailureKind kind = FailureKind::kValidation);
  [[nodiscard]] u32 read_x(u8 r) const { return x_[r]; }
  void write_x(u8 r, u32 v) {
    if (r != 0) x_[r] = v;
  }
  /// Write rd now and count one register-file write.
  void write_rd(u8 rd, u32 v) {
    write_x(rd, v);
    ++perf_.rf_int_writes;
  }
  u32 csr_read(u32 addr, Cycle now) const;
  void csr_apply(u32 addr, u32 value);
  /// Address check, FP-ordering interlock and TCDM port/bank claim of an
  /// integer load or store at `ea`; false when it stalls or faults.
  bool lsu_claim(Addr ea, u8 bytes, bool is_write, CorePort& port);

  // Handler-table targets (one per isa::ExecHandler, specials pre-resolved;
  // every FP-domain id offloads).
  bool h_invalid(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool exec_offload(const isa::Instr&, const isa::PredecodedInstr&, Cycle,
                    CorePort&);
  bool h_lui(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_auipc(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_alu_imm(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_alu_reg(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_mul(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_div(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_jal(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_jalr(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_branch(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_load(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_store(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_csr(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_ecall(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_ebreak(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_fence(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_scfg_w(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_scfg_r(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_dma_src(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_dma_dst(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_dma_str(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_dma_cpy(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);
  bool h_dma_stat(const isa::Instr&, const isa::PredecodedInstr&, Cycle, CorePort&);

  const Program& prog_;
  Memory& mem_;
  Tcdm& tcdm_;
  const SimConfig& cfg_;
  PerfCounters& perf_;
  FpSubsystem& fp_;
  dma::Engine& dma_;
  const u32 hartid_;
  const u32 lsu_req_; // this core's LSU requester id in the shared TCDM

  Addr pc_;
  std::array<u32, isa::kNumIntRegs> x_{};
  /// Scoreboard: bit r set while a write to xr is pending (never x0).
  u32 busy_x_ = 0;
  /// Outstanding delayed writebacks. Bounded by kNumIntRegs: issue stalls on
  /// a busy rd, so at most one write per register is in flight.
  std::array<Pending, isa::kNumIntRegs> pending_{};
  u32 pending_size_ = 0;
  u32 bubbles_ = 0;
  Cycle div_busy_until_ = 0;
  HaltReason halt_ = HaltReason::kNone;
  std::string error_;
  const isa::Instr* last_issue_ = nullptr;
  bool last_offloaded_ = false;
  FailureKind failure_kind_ = FailureKind::kNone;
};

} // namespace sch::sim
