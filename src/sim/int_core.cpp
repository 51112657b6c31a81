#include "sim/int_core.hpp"

#include <cassert>
#include <sstream>

#include "isa/csr.hpp"
#include "iss/exec_semantics.hpp"

namespace sch::sim {

using isa::ExecHandler;
using isa::Instr;
using isa::Mnemonic;
using isa::PredecodedInstr;

IntCore::IntCore(const Program& prog, Memory& mem, Tcdm& tcdm,
                 const SimConfig& cfg, PerfCounters& perf, FpSubsystem& fp,
                 u32 hartid, dma::Engine& dma)
    : prog_(prog), mem_(mem), tcdm_(tcdm), cfg_(cfg), perf_(perf), fp_(fp),
      dma_(dma), hartid_(hartid),
      lsu_req_(Tcdm::requester_id(hartid, TcdmPortId::kCoreLsu)),
      pc_(prog.text_base) {}

void IntCore::fail(const std::string& message, FailureKind kind) {
  if (halt_ != HaltReason::kNone) return;
  halt_ = HaltReason::kError;
  failure_kind_ = kind;
  std::ostringstream os;
  os << "pc=0x" << std::hex << pc_ << std::dec << ": " << message;
  error_ = os.str();
}

void IntCore::schedule_write(u8 rd, u32 value, Cycle ready_at) {
  if (rd == 0) return;
  busy_x_ |= 1u << rd;
  assert(pending_size_ < pending_.size() &&
         "pending writeback queue exceeds one in-flight write per register");
  pending_[pending_size_++] = {rd, value, ready_at};
}

void IntCore::commit_pending(Cycle now) {
  u32 i = 0;
  while (i < pending_size_) {
    if (pending_[i].ready_at <= now) {
      write_x(pending_[i].rd, pending_[i].value);
      busy_x_ &= ~(1u << pending_[i].rd);
      ++perf_.rf_int_writes;
      pending_[i] = pending_[--pending_size_]; // swap-remove; order is free
    } else {
      ++i;
    }
  }
}

u32 IntCore::csr_read(u32 addr, Cycle now) const {
  switch (addr) {
    case isa::csr::kCycle:
    case isa::csr::kMcycle:
      return static_cast<u32>(now);
    case isa::csr::kInstret:
    case isa::csr::kMinstret:
      return static_cast<u32>(perf_.total_retired());
    case isa::csr::kMhartid:
      return hartid_;
    case isa::csr::kMnumharts:
      return cfg_.num_cores;
    case isa::csr::kSsrEnable:
      return fp_.ssr_enabled() ? 1u : 0u;
    case isa::csr::kChainMask:
      return fp_.chain_mask();
    default:
      return 0;
  }
}

void IntCore::csr_apply(u32 addr, u32 value) {
  switch (addr) {
    case isa::csr::kSsrEnable:
      fp_.set_ssr_enable((value & 1u) != 0);
      return;
    case isa::csr::kChainMask:
      fp_.set_chain_mask(value);
      return;
    default:
      return; // other CSRs are read-only or no-op in this model
  }
}

bool IntCore::lsu_claim(Addr ea, u8 bytes, bool is_write, CorePort& port) {
  if (!mem_.valid(ea, bytes)) {
    fail(is_write ? "store to unmapped address" : "load from unmapped address",
         FailureKind::kBusError);
    return false;
  }
  // Program-order interlock against offloaded FP loads/stores to this
  // address: a load must not overtake an older queued fsd, nor a store an
  // older fld/fsd.
  if (fp_.mem_hazard(ea, bytes, is_write)) {
    ++perf_.stall_int_lsu;
    return false;
  }
  if (Memory::in_tcdm(ea)) {
    if (port.used || !tcdm_.request(lsu_req_, ea, is_write)) {
      ++perf_.stall_int_lsu;
      return false;
    }
    port.used = true;
  }
  return true;
}

// --- handler-table targets --------------------------------------------------

bool IntCore::h_invalid(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  fail(isa::illegal_encoding_message(in.raw));
  return false;
}

bool IntCore::exec_offload(const Instr& in, const PredecodedInstr& pre, Cycle,
                           CorePort&) {
  if (!fp_.offload_ready()) {
    ++perf_.stall_offload_full;
    return false;
  }
  FpOp op;
  op.in = &in;
  op.pre = &pre;
  op.pc = pc_;
  // Integer operands are captured at offload time.
  if ((pre.flags & isa::preflag::kRs1Int) != 0) {
    const u32 rs1 = read_x(in.rs1);
    op.int_operand = (pre.handler == ExecHandler::kFpLoad ||
                      pre.handler == ExecHandler::kFpStore)
                         ? rs1 + static_cast<u32>(pre.aux)
                         : rs1;
  }
  // An FP->int result is written back asynchronously (released by the FP
  // writeback). x0 never turns busy: the writeback drops it, so its bit
  // would never clear.
  if ((pre.flags & isa::preflag::kRdInt) != 0) busy_x_ |= (1u << in.rd) & ~1u;
  fp_.offload(op);
  return true;
}

bool IntCore::h_lui(const Instr& in, const PredecodedInstr& pre, Cycle,
                    CorePort&) {
  write_rd(in.rd, static_cast<u32>(pre.aux));
  ++perf_.int_alu_ops;
  return true;
}

bool IntCore::h_auipc(const Instr& in, const PredecodedInstr& pre, Cycle,
                      CorePort&) {
  write_rd(in.rd, pc_ + static_cast<u32>(pre.aux));
  ++perf_.int_alu_ops;
  return true;
}

bool IntCore::h_alu_imm(const Instr& in, const PredecodedInstr& pre, Cycle,
                        CorePort&) {
  write_rd(in.rd,
           exec::int_op(in.mn, read_x(in.rs1), static_cast<u32>(pre.aux)));
  ++perf_.int_alu_ops;
  return true;
}

bool IntCore::h_alu_reg(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  write_rd(in.rd, exec::int_op(in.mn, read_x(in.rs1), read_x(in.rs2)));
  ++perf_.int_alu_ops;
  return true;
}

bool IntCore::h_mul(const Instr& in, const PredecodedInstr&, Cycle now,
                    CorePort&) {
  schedule_write(in.rd, exec::int_op(in.mn, read_x(in.rs1), read_x(in.rs2)),
                 now + cfg_.int_mul_latency);
  ++perf_.int_mul_ops;
  return true;
}

bool IntCore::h_div(const Instr& in, const PredecodedInstr&, Cycle now,
                    CorePort&) {
  write_rd(in.rd, exec::int_op(in.mn, read_x(in.rs1), read_x(in.rs2)));
  div_busy_until_ = now + cfg_.int_div_latency; // blocking divider
  ++perf_.int_div_ops;
  return true;
}

bool IntCore::h_jal(const Instr& in, const PredecodedInstr& pre, Cycle,
                    CorePort&) {
  write_rd(in.rd, pc_ + 4);
  pc_ += static_cast<u32>(pre.aux);
  bubbles_ = cfg_.taken_branch_penalty;
  return true;
}

bool IntCore::h_jalr(const Instr& in, const PredecodedInstr& pre, Cycle,
                     CorePort&) {
  const Addr target = (read_x(in.rs1) + static_cast<u32>(pre.aux)) & ~1u;
  write_rd(in.rd, pc_ + 4);
  pc_ = target;
  bubbles_ = cfg_.taken_branch_penalty;
  return true;
}

bool IntCore::h_branch(const Instr& in, const PredecodedInstr& pre, Cycle,
                       CorePort&) {
  ++perf_.branches;
  if (exec::branch_taken(in.mn, read_x(in.rs1), read_x(in.rs2))) {
    pc_ += static_cast<u32>(pre.aux);
    bubbles_ = cfg_.taken_branch_penalty;
  } else {
    pc_ += 4;
  }
  return true;
}

bool IntCore::h_load(const Instr& in, const PredecodedInstr& pre, Cycle now,
                     CorePort& port) {
  const Addr ea = read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!lsu_claim(ea, pre.mem_bytes, /*is_write=*/false, port)) return false;
  u32 v = static_cast<u32>(mem_.load(ea, pre.mem_bytes));
  if (pre.handler == ExecHandler::kLoadSext8) {
    v = static_cast<u32>(static_cast<i32>(static_cast<i8>(v)));
  } else if (pre.handler == ExecHandler::kLoadSext16) {
    v = static_cast<u32>(static_cast<i32>(static_cast<i16>(v)));
  }
  schedule_write(in.rd, v,
                 now + (Memory::in_tcdm(ea) ? 1 + cfg_.load_latency
                                            : cfg_.main_mem_latency));
  ++perf_.int_loads;
  return true;
}

bool IntCore::h_store(const Instr& in, const PredecodedInstr& pre, Cycle,
                      CorePort& port) {
  const Addr ea = read_x(in.rs1) + static_cast<u32>(pre.aux);
  if (!lsu_claim(ea, pre.mem_bytes, /*is_write=*/true, port)) return false;
  mem_.store(ea, read_x(in.rs2), pre.mem_bytes);
  ++perf_.int_stores;
  return true;
}

bool IntCore::h_csr(const Instr& in, const PredecodedInstr& pre, Cycle now,
                    CorePort&) {
  const u32 addr = static_cast<u32>(pre.aux);
  // The immediate forms carry a zimm in the rs1 field.
  const u32 operand =
      (pre.flags & isa::preflag::kRs1Int) != 0 ? read_x(in.rs1) : in.rs1;
  const u32 old = csr_read(addr, now);
  switch (in.mn) {
    case Mnemonic::kCsrrw: case Mnemonic::kCsrrwi:
      csr_apply(addr, operand);
      break;
    case Mnemonic::kCsrrs: case Mnemonic::kCsrrsi:
      if (operand != 0) csr_apply(addr, old | operand);
      break;
    default:
      if (operand != 0) csr_apply(addr, old & ~operand);
  }
  // Not counted in rf_int_writes: the timing-oracle golden pins that count
  // without CSR results.
  write_x(in.rd, old);
  ++perf_.csr_ops;
  return true;
}

bool IntCore::h_ecall(const Instr&, const PredecodedInstr&, Cycle, CorePort&) {
  halt_ = HaltReason::kEcall;
  return false;
}

bool IntCore::h_ebreak(const Instr&, const PredecodedInstr&, Cycle,
                       CorePort&) {
  halt_ = HaltReason::kEbreak;
  return false;
}

bool IntCore::h_fence(const Instr&, const PredecodedInstr&, Cycle, CorePort&) {
  return true; // tick() held it until the FP subsystem went quiet
}

bool IntCore::h_scfg_w(const Instr& in, const PredecodedInstr&, Cycle,
                       CorePort&) {
  const Status s = fp_.cfg_write(in.imm, read_x(in.rs1));
  if (!s.is_ok()) {
    fail(s.message(), s.kind());
    return false;
  }
  ++perf_.csr_ops;
  return true;
}

bool IntCore::h_scfg_r(const Instr& in, const PredecodedInstr&, Cycle,
                       CorePort&) {
  write_rd(in.rd, fp_.cfg_read(in.imm));
  ++perf_.csr_ops;
  return true;
}

// --- Xdma ------------------------------------------------------------------

bool IntCore::h_dma_src(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  dma_.set_src(hartid_, read_x(in.rs1));
  ++perf_.csr_ops;
  return true;
}

bool IntCore::h_dma_dst(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  dma_.set_dst(hartid_, read_x(in.rs1));
  ++perf_.csr_ops;
  return true;
}

bool IntCore::h_dma_str(const Instr& in, const PredecodedInstr&, Cycle,
                        CorePort&) {
  dma_.set_strides(hartid_, static_cast<i32>(read_x(in.rs1)),
                   static_cast<i32>(read_x(in.rs2)));
  ++perf_.csr_ops;
  return true;
}

bool IntCore::h_dma_cpy(const Instr& in, const PredecodedInstr& pre, Cycle,
                        CorePort&) {
  // Cheap queue check first: a retry against a full queue must not re-walk
  // the O(rows) footprint validation every cycle (the latches cannot change
  // while this hart is stalled here).
  if (!dma_.can_issue(hartid_)) {
    ++perf_.stall_dma_full;
    dma_.note_queue_full();
    return false;
  }
  const u32 row_bytes = read_x(in.rs1);
  const u32 rows =
      pre.handler == ExecHandler::kDmaCpy2d ? read_x(in.rs2) : 1;
  const Status valid =
      dma::validate_copy(mem_, dma_.snapshot(hartid_, row_bytes, rows));
  if (!valid.is_ok()) {
    fail(valid.message(), valid.kind());
    return false;
  }
  write_rd(in.rd, dma_.issue(hartid_, row_bytes, rows));
  ++perf_.csr_ops;
  return true;
}

bool IntCore::h_dma_stat(const Instr& in, const PredecodedInstr& pre, Cycle,
                         CorePort&) {
  write_rd(in.rd, pre.aux == 0 ? dma_.completed(hartid_)
                               : dma_.outstanding(hartid_));
  ++perf_.csr_ops;
  return true;
}

const IntCore::Handler
    IntCore::kHandlers[static_cast<usize>(ExecHandler::kCount)] = {
        &IntCore::h_invalid,    // kInvalid
        &IntCore::h_lui,        // kLui
        &IntCore::h_auipc,      // kAuipc
        &IntCore::h_alu_imm,    // kIntAluImm
        &IntCore::h_alu_reg,    // kIntAluReg
        &IntCore::h_mul,        // kIntMul
        &IntCore::h_div,        // kIntDiv
        &IntCore::h_jal,        // kJal
        &IntCore::h_jalr,       // kJalr
        &IntCore::h_branch,     // kBranch
        &IntCore::h_load,       // kLoad
        &IntCore::h_load,       // kLoadSext8
        &IntCore::h_load,       // kLoadSext16
        &IntCore::h_store,      // kStore
        &IntCore::h_csr,        // kCsr
        &IntCore::h_ecall,      // kEcall
        &IntCore::h_ebreak,     // kEbreak
        &IntCore::h_fence,      // kFence
        &IntCore::exec_offload, // kFpLoad
        &IntCore::exec_offload, // kFpStore
        &IntCore::exec_offload, // kFpMac
        &IntCore::exec_offload, // kFpDiv
        &IntCore::exec_offload, // kFpSqrt
        &IntCore::exec_offload, // kFpCmp
        &IntCore::exec_offload, // kFpCvtF2I
        &IntCore::exec_offload, // kFpCvtI2F
        &IntCore::exec_offload, // kFrep
        &IntCore::h_scfg_w,     // kScfgW
        &IntCore::h_scfg_r,     // kScfgR
        &IntCore::h_dma_src,    // kDmaSrc
        &IntCore::h_dma_dst,    // kDmaDst
        &IntCore::h_dma_str,    // kDmaStr
        &IntCore::h_dma_cpy,    // kDmaCpy
        &IntCore::h_dma_cpy,    // kDmaCpy2d
        &IntCore::h_dma_stat,   // kDmaStat
};

void IntCore::tick(Cycle now, CorePort& port) {
  using namespace isa::preflag;
  last_issue_ = nullptr;
  if (halt_ != HaltReason::kNone) return;
  if (now < div_busy_until_) {
    ++perf_.int_div_busy;
    return;
  }
  if (bubbles_ > 0) {
    --bubbles_;
    ++perf_.branch_bubbles;
    return;
  }
  const u32 idx = prog_.text_index(pc_);
  if (idx == Program::kNoIndex) {
    fail(isa::kOffTextMessage);
    return;
  }
  const PredecodedInstr& pre = prog_.pre[idx];
  const Instr& in = prog_.instrs[idx];
  // A malformed frep body fails with the ISS's diagnostic before its
  // operands are awaited, instead of wedging the sequencer.
  if (pre.handler == ExecHandler::kFrep && (pre.flags & kFrepBodyOk) == 0) {
    fail(isa::frep_body_error(prog_.pre, idx));
    return;
  }
  if ((pre.flags & kFpBarrier) != 0 && !fp_.quiescent()) {
    ++perf_.stall_csr_barrier;
    return;
  }
  const u32 fields = (u32{(pre.flags & kRdInt) != 0} << in.rd) |
                     (u32{(pre.flags & kRs1Int) != 0} << in.rs1) |
                     (u32{(pre.flags & kRs2Int) != 0} << in.rs2);
  if ((busy_x_ & fields) != 0) {
    ++perf_.stall_int_raw;
    return;
  }
  // FP-domain ids all map to exec_offload: call it directly so it inlines.
  const bool issued =
      pre.fp_domain
          ? exec_offload(in, pre, now, port)
          : (this->*kHandlers[static_cast<usize>(pre.handler)])(in, pre, now,
                                                                port);
  if (!issued) return;
  // Issued: reads are charged now, never on a stalled cycle.
  perf_.rf_int_reads +=
      u32{(pre.flags & kRs1Int) != 0} + u32{(pre.flags & kRs2Int) != 0};
  if (pre.fp_domain) {
    ++perf_.offloads;
  } else {
    ++perf_.int_instrs;
  }
  last_issue_ = &in;
  last_offloaded_ = pre.fp_domain;
  if (pre.fp_domain || isa::exec_handler_linear(pre.handler)) pc_ += 4;
}

} // namespace sch::sim
