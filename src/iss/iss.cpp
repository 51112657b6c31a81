#include "iss/iss.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <sstream>

#include "isa/csr.hpp"
#include "isa/disasm.hpp"
#include "iss/exec_semantics.hpp"

namespace sch {

using isa::ExecHandler;
using isa::Instr;
using isa::Mnemonic;
using isa::PredecodedInstr;

// Threaded dispatch needs the GNU address-of-label extension; elsewhere
// run() falls back to the portable handler-table step loop.
#if defined(__GNUC__) || defined(__clang__)
#define SCH_ISS_THREADED_DISPATCH 1
#else
#define SCH_ISS_THREADED_DISPATCH 0
#endif

Iss::Iss(Program program, Memory& memory, const IssConfig& config)
    : prog_(std::move(program)), mem_(memory), cfg_(config) {
  prog_.ensure_predecoded();
  state_.pc = prog_.text_base;
  if (cfg_.load_image) mem_.load_image(prog_.data_base, prog_.data);
}

void Iss::halt_error(const std::string& message, FailureKind kind) {
  halt_ = HaltReason::kError;
  error_kind_ = kind;
  std::ostringstream os;
  os << "pc=0x" << std::hex << state_.pc << std::dec << ": " << message;
  error_ = os.str();
}

void Iss::halt_off_text() {
  halt_error(isa::kOffTextMessage);
  halt_ = HaltReason::kOffText;  // failure_kind(): kValidation
}

u64 Iss::read_fp(u8 reg) {
  if (ssrs_.maps(reg)) {
    auto v = ssrs_.read(reg, mem_);
    if (!v) {
      halt_error("read of SSR register " + std::string(isa::fp_reg_name(reg)) +
                 " with no active/remaining read stream");
      return 0;
    }
    return *v;
  }
  if (chains_.enabled(reg)) {
    auto v = chains_.pop(reg);
    if (!v) {
      halt_error("chain FIFO underflow on " + std::string(isa::fp_reg_name(reg)),
                 FailureKind::kDeadlock);
      return 0;
    }
    return *v;
  }
  return state_.f[reg];
}

void Iss::write_fp(u8 reg, u64 value) {
  if (ssrs_.maps(reg)) {
    if (!ssrs_.write(reg, mem_, value)) {
      halt_error("write to SSR register " + std::string(isa::fp_reg_name(reg)) +
                 " with no active/remaining write stream");
    }
    return;
  }
  if (chains_.enabled(reg)) {
    chains_.push(reg, value);
    return;
  }
  state_.f[reg] = value;
}

u32 Iss::csr_read(u32 addr) {
  switch (addr) {
    case isa::csr::kFflags: return state_.fcsr & 0x1F;
    case isa::csr::kFrm: return (state_.fcsr >> 5) & 0x7;
    case isa::csr::kFcsr: return state_.fcsr;
    case isa::csr::kCycle:
    case isa::csr::kMcycle:
      // The ISS has no cycle notion; expose instret as a monotonic proxy.
      return static_cast<u32>(instret_);
    case isa::csr::kInstret:
    case isa::csr::kMinstret:
      return static_cast<u32>(instret_);
    case isa::csr::kMhartid: return cfg_.hartid;
    case isa::csr::kMnumharts: return cfg_.num_harts;
    case isa::csr::kSsrEnable: return ssrs_.enabled() ? 1u : 0u;
    case isa::csr::kChainMask: return chains_.mask().value();
    default: return 0;
  }
}

void Iss::csr_write(u32 addr, u32 value) {
  switch (addr) {
    case isa::csr::kFflags:
      state_.fcsr = (state_.fcsr & ~0x1Fu) | (value & 0x1Fu);
      return;
    case isa::csr::kFrm:
      state_.fcsr = (state_.fcsr & ~0xE0u) | ((value & 0x7u) << 5);
      return;
    case isa::csr::kFcsr:
      state_.fcsr = value & 0xFFu;
      return;
    case isa::csr::kSsrEnable:
      ssrs_.set_enabled((value & 1u) != 0);
      return;
    case isa::csr::kChainMask: {
      // Disabling a register latches the oldest unpopped element.
      for (const auto& e : chains_.set_mask(value)) {
        if (e.latched_value) state_.f[e.reg] = *e.latched_value;
      }
      return;
    }
    default:
      return; // unimplemented CSRs write as no-ops
  }
}

// --- handler-table targets --------------------------------------------------

void Iss::h_invalid(const Instr& in, const PredecodedInstr&) {
  halt_error("unhandled instruction: " + isa::disassemble(in));
}

void Iss::h_lui(const Instr& in, const PredecodedInstr& pre) {
  state_.write_x(in.rd, static_cast<u32>(pre.aux));
}

void Iss::h_auipc(const Instr& in, const PredecodedInstr& pre) {
  state_.write_x(in.rd, state_.pc + static_cast<u32>(pre.aux));
}

void Iss::h_alu_imm(const Instr& in, const PredecodedInstr& pre) {
  state_.write_x(in.rd, exec::int_op(in.mn, state_.read_x(in.rs1),
                                     static_cast<u32>(pre.aux)));
}

void Iss::h_alu_reg(const Instr& in, const PredecodedInstr&) {
  state_.write_x(in.rd, exec::int_op(in.mn, state_.read_x(in.rs1),
                                     state_.read_x(in.rs2)));
}

void Iss::h_mul_div(const Instr& in, const PredecodedInstr&) {
  state_.write_x(in.rd, exec::int_op(in.mn, state_.read_x(in.rs1),
                                     state_.read_x(in.rs2)));
}

void Iss::h_jal(const Instr& in, const PredecodedInstr& pre) {
  const u32 link = state_.pc + 4;
  state_.pc = state_.pc + static_cast<u32>(pre.aux) - 4;
  state_.write_x(in.rd, link);
}

void Iss::h_jalr(const Instr& in, const PredecodedInstr& pre) {
  const u32 link = state_.pc + 4;
  const u32 target = (state_.read_x(in.rs1) + static_cast<u32>(pre.aux)) & ~1u;
  state_.pc = target - 4;
  state_.write_x(in.rd, link);
}

void Iss::h_branch(const Instr& in, const PredecodedInstr& pre) {
  if (exec::branch_taken(in.mn, state_.read_x(in.rs1), state_.read_x(in.rs2))) {
    state_.pc = state_.pc + static_cast<u32>(pre.aux) - 4;
  }
}

void Iss::h_load(const Instr& in, const PredecodedInstr& pre) {
  const Addr addr = state_.read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!mem_.valid(addr, pre.mem_bytes)) {
    halt_error("load from unmapped address", FailureKind::kBusError);
    return;
  }
  state_.write_x(in.rd, static_cast<u32>(mem_.load(addr, pre.mem_bytes)));
}

void Iss::h_load_s8(const Instr& in, const PredecodedInstr& pre) {
  const Addr addr = state_.read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!mem_.valid(addr, 1)) {
    halt_error("load from unmapped address", FailureKind::kBusError);
    return;
  }
  const auto v = static_cast<i8>(mem_.load(addr, 1));
  state_.write_x(in.rd, static_cast<u32>(static_cast<i32>(v)));
}

void Iss::h_load_s16(const Instr& in, const PredecodedInstr& pre) {
  const Addr addr = state_.read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!mem_.valid(addr, 2)) {
    halt_error("load from unmapped address", FailureKind::kBusError);
    return;
  }
  const auto v = static_cast<i16>(mem_.load(addr, 2));
  state_.write_x(in.rd, static_cast<u32>(static_cast<i32>(v)));
}

void Iss::h_store(const Instr& in, const PredecodedInstr& pre) {
  const Addr addr = state_.read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!mem_.valid(addr, pre.mem_bytes)) {
    halt_error("store to unmapped address", FailureKind::kBusError);
    return;
  }
  mem_.store(addr, state_.read_x(in.rs2), pre.mem_bytes);
}

void Iss::h_csr(const Instr& in, const PredecodedInstr& pre) {
  const u32 addr = static_cast<u32>(pre.aux);
  const u32 old = csr_read(addr);
  u32 operand = 0;
  switch (in.mn) {
    case Mnemonic::kCsrrw: case Mnemonic::kCsrrs: case Mnemonic::kCsrrc:
      operand = state_.read_x(in.rs1);
      break;
    default:
      operand = in.rs1; // zimm
  }
  switch (in.mn) {
    case Mnemonic::kCsrrw: case Mnemonic::kCsrrwi:
      csr_write(addr, operand);
      break;
    case Mnemonic::kCsrrs: case Mnemonic::kCsrrsi:
      if (operand != 0) csr_write(addr, old | operand);
      break;
    default:
      if (operand != 0) csr_write(addr, old & ~operand);
  }
  state_.write_x(in.rd, old);
}

void Iss::h_ecall(const Instr&, const PredecodedInstr&) {
  halt_ = HaltReason::kEcall;
}

void Iss::h_ebreak(const Instr&, const PredecodedInstr&) {
  halt_ = HaltReason::kEbreak;
}

void Iss::h_fence(const Instr&, const PredecodedInstr&) {
  // fence: no-op in a single-hart model
}

void Iss::h_fp_load(const Instr& in, const PredecodedInstr& pre) {
  const Addr addr = state_.read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!mem_.valid(addr, pre.mem_bytes)) {
    halt_error("fp load from unmapped address", FailureKind::kBusError);
    return;
  }
  const u64 raw = mem_.load(addr, pre.mem_bytes);
  write_fp(in.rd, pre.mem_bytes == 4 ? exec::box32(static_cast<u32>(raw)) : raw);
}

void Iss::h_fp_store(const Instr& in, const PredecodedInstr& pre) {
  const Addr addr = state_.read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!mem_.valid(addr, pre.mem_bytes)) {
    halt_error("fp store to unmapped address", FailureKind::kBusError);
    return;
  }
  const u64 v = read_fp(in.rs2);
  mem_.store(addr, pre.mem_bytes == 4 ? exec::unbox32(v) : v, pre.mem_bytes);
}

std::array<u64, 3> Iss::read_fp_operands(const PredecodedInstr& pre) {
  u64 src_val[3] = {};
  for (u32 i = 0; i < pre.n_fp_srcs; ++i) src_val[i] = read_fp(pre.fp_srcs[i]);
  std::array<u64, 3> ops{};
  for (u32 slot = 0; slot < 3; ++slot) {
    if (pre.fp_slot[slot] != isa::kNoFpSlot) ops[slot] = src_val[pre.fp_slot[slot]];
  }
  return ops;
}

void Iss::h_fp_compute(const Instr& in, const PredecodedInstr& pre) {
  const std::array<u64, 3> ops = read_fp_operands(pre);
  if (halt_ != HaltReason::kNone) return;
  write_fp(in.rd, exec::fp_compute(in.mn, ops[0], ops[1], ops[2]));
}

void Iss::h_fp_to_int(const Instr& in, const PredecodedInstr& pre) {
  const std::array<u64, 3> ops = read_fp_operands(pre);
  if (halt_ != HaltReason::kNone) return;
  state_.write_x(in.rd, exec::fp_to_int(in.mn, ops[0], ops[1]));
}

void Iss::h_fp_from_int(const Instr& in, const PredecodedInstr&) {
  write_fp(in.rd, exec::int_to_fp(in.mn, state_.read_x(in.rs1)));
}

void Iss::h_frep(const Instr& in, const PredecodedInstr&) {
  exec_frep(in);
}

void Iss::h_scfg_w(const Instr& in, const PredecodedInstr&) {
  const Status s = ssrs_.cfg_write(in.imm, state_.read_x(in.rs1));
  if (!s.is_ok()) halt_error(s.message(), s.kind());
}

void Iss::h_scfg_r(const Instr& in, const PredecodedInstr&) {
  state_.write_x(in.rd, ssrs_.cfg_read(in.imm));
}

// Xdma: the functional model copies instantly at issue; dmstat reports all
// transfers completed, which matches the cycle engine at every
// well-synchronized poll (see dma/dma.hpp).

void Iss::h_dma_src(const Instr& in, const PredecodedInstr&) {
  dma_.set_src(state_.read_x(in.rs1));
}

void Iss::h_dma_dst(const Instr& in, const PredecodedInstr&) {
  dma_.set_dst(state_.read_x(in.rs1));
}

void Iss::h_dma_str(const Instr& in, const PredecodedInstr&) {
  dma_.set_strides(static_cast<i32>(state_.read_x(in.rs1)),
                   static_cast<i32>(state_.read_x(in.rs2)));
}

void Iss::h_dma_cpy(const Instr& in, const PredecodedInstr&) {
  const Result<u32> id = dma_.copy(mem_, state_.read_x(in.rs1), 1);
  if (!id.ok()) {
    halt_error(id.status().message(), id.status().kind());
    return;
  }
  state_.write_x(in.rd, id.value());
}

void Iss::h_dma_cpy2d(const Instr& in, const PredecodedInstr&) {
  const Result<u32> id =
      dma_.copy(mem_, state_.read_x(in.rs1), state_.read_x(in.rs2));
  if (!id.ok()) {
    halt_error(id.status().message(), id.status().kind());
    return;
  }
  state_.write_x(in.rd, id.value());
}

void Iss::h_dma_stat(const Instr& in, const PredecodedInstr& pre) {
  const u32 sel = static_cast<u32>(pre.aux);
  state_.write_x(in.rd, sel == 0 ? dma_.completed() : dma_.outstanding());
}

const Iss::Handler Iss::kHandlers[static_cast<usize>(ExecHandler::kCount)] = {
    &Iss::h_invalid,     // kInvalid
    &Iss::h_lui,         // kLui
    &Iss::h_auipc,       // kAuipc
    &Iss::h_alu_imm,     // kIntAluImm
    &Iss::h_alu_reg,     // kIntAluReg
    &Iss::h_mul_div,     // kIntMul
    &Iss::h_mul_div,     // kIntDiv
    &Iss::h_jal,         // kJal
    &Iss::h_jalr,        // kJalr
    &Iss::h_branch,      // kBranch
    &Iss::h_load,        // kLoad
    &Iss::h_load_s8,     // kLoadSext8
    &Iss::h_load_s16,    // kLoadSext16
    &Iss::h_store,       // kStore
    &Iss::h_csr,         // kCsr
    &Iss::h_ecall,       // kEcall
    &Iss::h_ebreak,      // kEbreak
    &Iss::h_fence,       // kFence
    &Iss::h_fp_load,     // kFpLoad
    &Iss::h_fp_store,    // kFpStore
    &Iss::h_fp_compute,  // kFpMac
    &Iss::h_fp_compute,  // kFpDiv
    &Iss::h_fp_compute,  // kFpSqrt
    &Iss::h_fp_to_int,   // kFpCmp
    &Iss::h_fp_to_int,   // kFpCvtF2I
    &Iss::h_fp_from_int, // kFpCvtI2F
    &Iss::h_frep,        // kFrep
    &Iss::h_scfg_w,      // kScfgW
    &Iss::h_scfg_r,      // kScfgR
    &Iss::h_dma_src,     // kDmaSrc
    &Iss::h_dma_dst,     // kDmaDst
    &Iss::h_dma_str,     // kDmaStr
    &Iss::h_dma_cpy,     // kDmaCpy
    &Iss::h_dma_cpy2d,   // kDmaCpy2d
    &Iss::h_dma_stat,    // kDmaStat
};

void Iss::exec_frep(const Instr& in) {
  if (in_frep_) {
    halt_error("nested frep");
    return;
  }
  const u32 reps = state_.read_x(in.rs1) + 1;
  const u32 body = static_cast<u32>(in.imm);
  // Only reachable through dispatch on a fetched instruction, so the pc is
  // always a valid text index.
  const u32 site = prog_.text_index(state_.pc);
  assert(site != Program::kNoIndex);
  const u32 body_idx = site + 1;
  // The body was validated once per static site at predecode time; a clear
  // flag means it is malformed, and only then is it walked again to name
  // the first offending slot.
  if ((prog_.pre[site].flags & isa::preflag::kFrepBodyOk) == 0) {
    halt_error(isa::frep_body_error(prog_.pre, site));
    return;
  }
  in_frep_ = true;
  const Addr body_base = state_.pc + 4;
  const Addr saved_next = body_base + 4 * body;
  if (in.mn == Mnemonic::kFrepO) {
    for (u32 r = 0; r < reps && halt_ == HaltReason::kNone; ++r) {
      for (u32 i = 0; i < body && halt_ == HaltReason::kNone; ++i) {
        state_.pc = body_base + 4 * i;
        exec(body_idx + i);
        ++instret_;
      }
    }
  } else { // frep.i: repeat each instruction individually
    for (u32 i = 0; i < body && halt_ == HaltReason::kNone; ++i) {
      state_.pc = body_base + 4 * i;
      for (u32 r = 0; r < reps && halt_ == HaltReason::kNone; ++r) {
        exec(body_idx + i);
        ++instret_;
      }
    }
  }
  in_frep_ = false;
  state_.pc = saved_next - 4; // step() adds 4
}

bool Iss::step() {
  if (halt_ != HaltReason::kNone) return false;
  const u32 idx = prog_.text_index(state_.pc);
  if (idx == Program::kNoIndex) {
    halt_off_text();
    return false;
  }
  const PredecodedInstr& pre = prog_.pre[idx];
  if (pre.handler == ExecHandler::kInvalid && !prog_.instrs[idx].valid()) {
    halt_error(isa::illegal_encoding_message(prog_.instrs[idx].raw));
    return false;
  }
  exec(idx);
  ++instret_;
  if (halt_ != HaltReason::kNone) return false;
  state_.pc += 4;
  return true;
}

// Threaded superblock executor. Dispatch is a computed goto through a
// label-address table (one label per ExecHandler, same order as the enum);
// the label bodies call the exact member handlers the table path uses, so
// there is a single source of truth for instruction semantics. Superblocks
// (PredecodedInstr::run_len) let straight-line runs execute with only the
// per-instruction halt check: bounds, budget and dispatch-class validation
// happen once per static block. Control flow re-enters through the block
// header; jal/branch use the predecoded taken-target index instead of
// re-deriving the text index from the pc.
#if SCH_ISS_THREADED_DISPATCH
void Iss::run_burst(u64 stop_at) {
  static const void* kLabels[static_cast<usize>(ExecHandler::kCount)] = {
      &&L_invalid,   // kInvalid
      &&L_lui,       // kLui
      &&L_auipc,     // kAuipc
      &&L_alu_imm,   // kIntAluImm
      &&L_alu_reg,   // kIntAluReg
      &&L_mul_div,   // kIntMul
      &&L_mul_div,   // kIntDiv
      &&L_jal,       // kJal
      &&L_jalr,      // kJalr
      &&L_branch,    // kBranch
      &&L_load,      // kLoad
      &&L_load_s8,   // kLoadSext8
      &&L_load_s16,  // kLoadSext16
      &&L_store,     // kStore
      &&L_csr,       // kCsr
      &&L_ecall,     // kEcall
      &&L_ebreak,    // kEbreak
      &&L_fence,     // kFence
      &&L_fp_load,   // kFpLoad
      &&L_fp_store,  // kFpStore
      &&L_fp_comp,   // kFpMac
      &&L_fp_comp,   // kFpDiv
      &&L_fp_comp,   // kFpSqrt
      &&L_fp_to_i,   // kFpCmp
      &&L_fp_to_i,   // kFpCvtF2I
      &&L_fp_fr_i,   // kFpCvtI2F
      &&L_frep,      // kFrep
      &&L_scfg_w,    // kScfgW
      &&L_scfg_r,    // kScfgR
      &&L_dma_src,   // kDmaSrc
      &&L_dma_dst,   // kDmaDst
      &&L_dma_str,   // kDmaStr
      &&L_dma_cpy,   // kDmaCpy
      &&L_dma_cpy2d, // kDmaCpy2d
      &&L_dma_stat,  // kDmaStat
  };
  const u32 n = static_cast<u32>(prog_.instrs.size());
  u32 idx = prog_.text_index(state_.pc);
  if (idx == Program::kNoIndex) {
    halt_off_text();
    return;
  }
  u32 run_left;  // instructions until the superblock (or budget) boundary

block_entry:  // idx is a valid text index here
  if (instret_ >= stop_at) return;
  run_left = prog_.pre[idx].run_len;
  if (run_left == 0) run_left = 1;  // control flow / invalid execute solo
  if (stop_at - instret_ < run_left) {
    run_left = static_cast<u32>(stop_at - instret_);
  }
dispatch:
  goto *kLabels[static_cast<usize>(prog_.pre[idx].handler)];

// Linear instructions: pc advances by 4 and idx by 1; within a superblock
// only the halt flag needs checking (the block header validated the rest).
#define SCH_ISS_LINEAR(label, handler)                    \
  label:                                                  \
  handler(prog_.instrs[idx], prog_.pre[idx]);             \
  ++instret_;                                             \
  if (halt_ != HaltReason::kNone) return;                 \
  state_.pc += 4;                                         \
  ++idx;                                                  \
  if (--run_left != 0) goto dispatch;                     \
  if (idx >= n) {                                         \
    halt_off_text();                                      \
    return;                                               \
  }                                                       \
  goto block_entry;

  SCH_ISS_LINEAR(L_lui, h_lui)
  SCH_ISS_LINEAR(L_auipc, h_auipc)
  SCH_ISS_LINEAR(L_alu_imm, h_alu_imm)
  SCH_ISS_LINEAR(L_alu_reg, h_alu_reg)
  SCH_ISS_LINEAR(L_mul_div, h_mul_div)
  SCH_ISS_LINEAR(L_load, h_load)
  SCH_ISS_LINEAR(L_load_s8, h_load_s8)
  SCH_ISS_LINEAR(L_load_s16, h_load_s16)
  SCH_ISS_LINEAR(L_store, h_store)
  SCH_ISS_LINEAR(L_csr, h_csr)
  SCH_ISS_LINEAR(L_fence, h_fence)
  SCH_ISS_LINEAR(L_fp_load, h_fp_load)
  SCH_ISS_LINEAR(L_fp_store, h_fp_store)
  SCH_ISS_LINEAR(L_fp_comp, h_fp_compute)
  SCH_ISS_LINEAR(L_fp_to_i, h_fp_to_int)
  SCH_ISS_LINEAR(L_fp_fr_i, h_fp_from_int)
  SCH_ISS_LINEAR(L_scfg_w, h_scfg_w)
  SCH_ISS_LINEAR(L_scfg_r, h_scfg_r)
  SCH_ISS_LINEAR(L_dma_src, h_dma_src)
  SCH_ISS_LINEAR(L_dma_dst, h_dma_dst)
  SCH_ISS_LINEAR(L_dma_str, h_dma_str)
  SCH_ISS_LINEAR(L_dma_cpy, h_dma_cpy)
  SCH_ISS_LINEAR(L_dma_cpy2d, h_dma_cpy2d)
  SCH_ISS_LINEAR(L_dma_stat, h_dma_stat)
#undef SCH_ISS_LINEAR

L_jal: {
  // h_jal semantics inlined so the precomputed target index replaces the
  // pc -> index recomputation (step() adds 4 after the handler; here the
  // final pc is written directly).
  const Instr& in = prog_.instrs[idx];
  const u32 link = state_.pc + 4;
  state_.pc += static_cast<u32>(prog_.pre[idx].aux);
  state_.write_x(in.rd, link);
  ++instret_;
  idx = prog_.pre[idx].target_idx;
  if (idx == Program::kNoIndex) {
    halt_off_text();
    return;
  }
  goto block_entry;
}

L_branch: {
  const Instr& in = prog_.instrs[idx];
  ++instret_;
  if (exec::branch_taken(in.mn, state_.read_x(in.rs1),
                         state_.read_x(in.rs2))) {
    state_.pc += static_cast<u32>(prog_.pre[idx].aux);
    idx = prog_.pre[idx].target_idx;
    if (idx == Program::kNoIndex) {
      halt_off_text();
      return;
    }
  } else {
    state_.pc += 4;
    if (++idx >= n) {
      halt_off_text();
      return;
    }
  }
  goto block_entry;
}

L_jalr:
  h_jalr(prog_.instrs[idx], prog_.pre[idx]);
  ++instret_;
  state_.pc += 4;  // h_jalr stored target - 4, mirroring step()
  idx = prog_.text_index(state_.pc);
  if (idx == Program::kNoIndex) {
    halt_off_text();
    return;
  }
  goto block_entry;

L_frep:
  h_frep(prog_.instrs[idx], prog_.pre[idx]);
  ++instret_;
  if (halt_ != HaltReason::kNone) return;
  state_.pc += 4;  // exec_frep left pc at (loop exit - 4)
  idx = prog_.text_index(state_.pc);
  if (idx == Program::kNoIndex) {
    halt_off_text();
    return;
  }
  goto block_entry;

L_ecall:
  h_ecall(prog_.instrs[idx], prog_.pre[idx]);
  ++instret_;
  return;

L_ebreak:
  h_ebreak(prog_.instrs[idx], prog_.pre[idx]);
  ++instret_;
  return;

L_invalid:
  if (!prog_.instrs[idx].valid()) {
    halt_error(isa::illegal_encoding_message(prog_.instrs[idx].raw));
    return;
  }
  h_invalid(prog_.instrs[idx], prog_.pre[idx]);
  ++instret_;
  return;
}
#else
void Iss::run_burst(u64 stop_at) {
  // Portability fallback: the handler-table step loop, sliced identically.
  while (halt_ == HaltReason::kNone && instret_ < stop_at) step();
}
#endif

FailureKind Iss::failure_kind() const {
  switch (halt_) {
    case HaltReason::kError: return error_kind_;
    case HaltReason::kMaxSteps: return FailureKind::kBudgetExceeded;
    case HaltReason::kOffText: return FailureKind::kValidation;
    default: return FailureKind::kNone;
  }
}

HaltReason Iss::run() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point wall_start =
      cfg_.max_wall_ms != 0 ? Clock::now() : Clock::time_point{};
  while (halt_ == HaltReason::kNone) {
    if (instret_ >= cfg_.max_steps) {
      halt_ = HaltReason::kMaxSteps;
      error_ = "step budget exhausted (" + std::to_string(cfg_.max_steps) +
               " instructions)";
      break;
    }
    // Wall-clock budget, checked off the hot path (every 8192 steps).
    if (cfg_.max_wall_ms != 0 && (instret_ & 0x1FFF) == 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                wall_start);
      if (static_cast<u64>(elapsed.count()) > cfg_.max_wall_ms) {
        halt_ = HaltReason::kMaxSteps;
        error_ = "wall-clock budget exhausted (" +
                 std::to_string(cfg_.max_wall_ms) + " ms) after " +
                 std::to_string(instret_) + " instructions";
        break;
      }
    }
    if (cfg_.fast_dispatch) {
      // Burst to the next step-budget or wall-check boundary; budgets are
      // re-checked between instructions exactly as the step() loop does.
      run_burst(std::min<u64>(cfg_.max_steps, (instret_ | 0x1FFF) + 1));
    } else {
      step();
    }
  }
  return halt_;
}

} // namespace sch
