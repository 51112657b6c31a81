// Functional instruction-set simulator ("spike-style" golden reference).
// Executes one instruction per step with full architectural semantics of the
// custom extensions (SSR streams, FREP hardware loops, scalar chaining), but
// no timing. The cycle-level simulator is cross-validated against it.
//
// Execution dispatches through the program's predecoded handler records
// (isa::PredecodedInstr): mnemonic specials, metadata lookups and immediate
// shifts are resolved once at load instead of on every dynamic instruction.
#pragma once

#include <array>

#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "core/arch_chain.hpp"
#include "dma/dma.hpp"
#include "iss/arch_state.hpp"
#include "mem/memory.hpp"
#include "ssr/ssr_file.hpp"

namespace sch {

struct IssConfig {
  u64 max_steps = 200'000'000;
  /// Host wall-clock budget in milliseconds (0 = unlimited). Checked every
  /// few thousand steps by run(); exceeding it halts with kMaxSteps and a
  /// "wall-clock budget exhausted" error (mirrors sim::SimConfig::max_wall_ms).
  u64 max_wall_ms = 0;
  /// Value of the mhartid CSR (multi-core validation runs one ISS per hart).
  u32 hartid = 0;
  /// Value of the mnumharts CSR (cluster core count the program sees).
  u32 num_harts = 1;
  /// Load the program's data image in the constructor. Engines running
  /// several harts sequentially against one Memory preload every image once
  /// and disable this, so hart N does not clobber hart N-1's output.
  bool load_image = true;
  /// run() executes through the threaded superblock loop (computed-goto
  /// dispatch, per-block instead of per-instruction validation; see
  /// Iss::run_burst). Architecturally invisible -- identical halt state,
  /// instret and memory image; the fast-path-equivalence suite pins the two
  /// paths against each other. Compilers without label-address support fall
  /// back to the handler table regardless of this flag.
  bool fast_dispatch = true;
};

class Iss {
 public:
  /// The ISS keeps its own copy of the program (so temporaries are safe);
  /// `memory` must outlive the ISS.
  Iss(Program program, Memory& memory, const IssConfig& config = {});

  /// Execute one instruction. Returns false when halted.
  bool step();

  /// Run until halt (ecall/ebreak/off-text/error/step budget).
  HaltReason run();

  [[nodiscard]] const ArchState& state() const { return state_; }
  [[nodiscard]] ArchState& state() { return state_; }
  [[nodiscard]] HaltReason halt_reason() const { return halt_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Kind of an abnormal halt: the failing site's kind for kError,
  /// kBudgetExceeded for kMaxSteps, kValidation for kOffText, else kNone.
  [[nodiscard]] FailureKind failure_kind() const;
  [[nodiscard]] u64 instret() const { return instret_; }
  [[nodiscard]] const chain::ArchChainFile& chains() const { return chains_; }

 private:
  using Handler = void (Iss::*)(const isa::Instr&, const isa::PredecodedInstr&);
  static const Handler kHandlers[static_cast<usize>(isa::ExecHandler::kCount)];

  /// Dispatch one predecoded instruction through the handler table.
  void exec(u32 idx) {
    const isa::PredecodedInstr& pre = prog_.pre[idx];
    (this->*kHandlers[static_cast<usize>(pre.handler)])(prog_.instrs[idx], pre);
  }

  void halt_error(const std::string& message,
                  FailureKind kind = FailureKind::kValidation);
  /// Halt with kOffText: the pc names no instruction of the text.
  void halt_off_text();

  /// Operand read honoring SSR mapping and chaining FIFO semantics.
  u64 read_fp(u8 reg);
  /// The rs1/rs2/rs3 operand values of `pre`: each distinct FP source is
  /// read once through read_fp, in plan order (the pop-once rule); a slot
  /// that is not an FP register reads 0.
  std::array<u64, 3> read_fp_operands(const isa::PredecodedInstr& pre);
  /// Destination write honoring SSR mapping and chaining FIFO semantics.
  void write_fp(u8 reg, u64 value);

  u32 csr_read(u32 addr);
  void csr_write(u32 addr, u32 value);

  // Handler-table targets (one per isa::ExecHandler, specials pre-resolved).
  void h_invalid(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_lui(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_auipc(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_alu_imm(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_alu_reg(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_mul_div(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_jal(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_jalr(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_branch(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_load(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_load_s8(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_load_s16(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_store(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_csr(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_ecall(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_ebreak(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_fence(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_fp_load(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_fp_store(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_fp_compute(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_fp_to_int(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_fp_from_int(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_frep(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_scfg_w(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_scfg_r(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_dma_src(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_dma_dst(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_dma_str(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_dma_cpy(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_dma_cpy2d(const isa::Instr& in, const isa::PredecodedInstr& pre);
  void h_dma_stat(const isa::Instr& in, const isa::PredecodedInstr& pre);

  /// Run a frep whose body was statically validated at predecode time
  /// (preflag::kFrepBodyOk); fails with isa::frep_body_error's diagnostic
  /// when the flag says the body is malformed.
  void exec_frep(const isa::Instr& in);

  /// Threaded superblock executor: run until halt or `instret_ >= stop_at`,
  /// checked once per superblock instead of once per instruction. run()
  /// slices bursts at the wall-clock/step-budget boundaries so the budget
  /// semantics match the step() loop exactly.
  void run_burst(u64 stop_at);

  Program prog_;
  Memory& mem_;
  IssConfig cfg_;
  ArchState state_;
  ssr::FunctionalSsrFile ssrs_;
  chain::ArchChainFile chains_;
  dma::FunctionalDma dma_;
  HaltReason halt_ = HaltReason::kNone;
  std::string error_;
  u64 instret_ = 0;
  bool in_frep_ = false;
  FailureKind error_kind_ = FailureKind::kNone;  // kind of a kError halt
};

} // namespace sch
