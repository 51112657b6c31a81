#include "sim/fp_subsystem.hpp"

#include <sstream>

#include "isa/disasm.hpp"
#include "iss/exec_semantics.hpp"
#include "sim/int_core.hpp"

namespace sch::sim {

using isa::ExecHandler;
using isa::Instr;
using isa::Mnemonic;
using isa::PredecodedInstr;
using isa::RegClass;

FpSubsystem::FpSubsystem(const SimConfig& cfg, Memory& mem, Tcdm& tcdm,
                         PerfCounters& perf, u32 hartid)
    : cfg_(cfg),
      mem_(mem),
      tcdm_(tcdm),
      perf_(perf),
      lsu_req_(Tcdm::requester_id(hartid, TcdmPortId::kCoreLsu)),
      seq_(cfg.fp_queue_depth, cfg.seq_buffer_depth),
      pipe_(cfg.fpu_depth),
      chain_(cfg.strict_chain_handoff),
      streamers_{ssr::Streamer(cfg.ssr), ssr::Streamer(cfg.ssr),
                 ssr::Streamer(cfg.ssr)} {}

bool FpSubsystem::quiescent() const {
  if (!seq_.idle() || latch_.full || !pipe_.empty() || div_.busy ||
      lsu_.busy) {
    return false;
  }
  for (const ssr::Streamer& s : streamers_) {
    if (s.dir() == ssr::StreamDir::kWrite && !s.idle()) return false;
  }
  return true;
}

void FpSubsystem::fail(const std::string& message, Addr pc,
                       FailureKind kind) {
  if (!error_.empty()) return;
  std::ostringstream os;
  os << "pc=0x" << std::hex << pc << std::dec << ": " << message;
  error_ = os.str();
  failure_kind_ = kind;
  error_pc_ = pc;
}

void FpSubsystem::set_chain_mask(u32 mask) {
  // Disabling a register latches its unpopped element (if any) into the RF.
  const u32 old_mask = chain_.mask();
  for (u8 r = 0; r < isa::kNumFpRegs; ++r) {
    const bool was = ((old_mask >> r) & 1u) != 0;
    const bool now = ((mask >> r) & 1u) != 0;
    if (was && !now && chain_.valid(r)) fregs_[r] = chain_.value(r);
  }
  chain_.set_mask(mask);
  update_src_kinds();
}

void FpSubsystem::update_src_kinds() {
  for (u8 r = 0; r < isa::kNumFpRegs; ++r) {
    const ssr::StreamDir dir = ssr_enabled_ && r < ssr::kNumSsrs
                                   ? streamers_[r].dir()
                                   : ssr::StreamDir::kNone;
    if (dir == ssr::StreamDir::kRead) {
      src_kind_[r] = SrcKind::kSsrRead;
    } else if (dir == ssr::StreamDir::kWrite) {
      src_kind_[r] = SrcKind::kSsrWrite;
    } else if (chain_.enabled(r)) {
      src_kind_[r] = SrcKind::kChain;
    } else {
      src_kind_[r] = SrcKind::kRf;
    }
  }
}

Status FpSubsystem::cfg_write(i32 index, u32 value) {
  auto result = ssr::apply_cfg_write(ssr_cfgs_, index, value);
  if (!result.ok()) return result.status();
  if (const auto& arm = result.value(); arm.has_value()) {
    streamers_[arm->ssr].arm(ssr_cfgs_[arm->ssr], arm->ptr, arm->dims, arm->dir);
    update_src_kinds();
  }
  return Status::ok();
}

u32 FpSubsystem::cfg_read(i32 index) const {
  std::array<bool, ssr::kNumSsrs> active{};
  for (u32 i = 0; i < ssr::kNumSsrs; ++i) active[i] = !streamers_[i].idle();
  return ssr::apply_cfg_read(ssr_cfgs_, index, active);
}

void FpSubsystem::begin_cycle(Cycle now) {
  chain_.begin_cycle();
  for (ssr::Streamer& s : streamers_) s.begin_cycle(now);
  last_issue_ = nullptr;
  last_stall_ = "";
}

void FpSubsystem::fail_stream_direction(u8 reg, bool read, Addr pc) {
  const std::string name(isa::fp_reg_name(reg));
  fail(read ? "read of SSR register " + name + " armed as a write stream"
            : "write to SSR register " + name + " armed as a read stream",
       pc);
}

void FpSubsystem::fill_compute(const FpOp& op) {
  const Instr& in = *op.in;
  const PredecodedInstr& pre = *op.pre;
  const bool is_div =
      pre.handler == ExecHandler::kFpDiv || pre.handler == ExecHandler::kFpSqrt;
  if (is_div && div_.busy) {
    ++perf_.stall_fpu_busy;
    last_stall_ = "div-busy";
    return;
  }

  // Every distinct source must be ready before any is popped (the
  // predecoded plan lists each stream/chain register once).
  for (u32 i = 0; i < pre.n_fp_srcs; ++i) {
    if (!src_ready(pre.fp_srcs[i], op)) return;
  }

  DestKind dest = DestKind::kIntReg;
  if (pre.mi->rd == RegClass::kFp) {
    const auto d = resolve_dest(in.rd, op);
    if (!d) return;
    dest = *d;
  }

  // Commit: pop/read each distinct source once and fan the value out.
  u64 src_val[3] = {};
  for (u32 i = 0; i < pre.n_fp_srcs; ++i) src_val[i] = read_src(pre.fp_srcs[i]);
  const auto operand = [&](u32 slot) -> u64 {
    return pre.fp_slot[slot] == isa::kNoFpSlot ? 0 : src_val[pre.fp_slot[slot]];
  };

  u64 result = 0;
  switch (pre.handler) {
    case ExecHandler::kFpMac:
    case ExecHandler::kFpDiv:
    case ExecHandler::kFpSqrt:
      result = exec::fp_compute(in.mn, operand(0), operand(1), operand(2));
      break;
    case ExecHandler::kFpCmp:
    case ExecHandler::kFpCvtF2I:
      result = exec::fp_to_int(in.mn, operand(0), operand(1));
      break;
    case ExecHandler::kFpCvtI2F:
      result = exec::int_to_fp(in.mn, op.int_operand);
      break;
    default:
      fail("fill_compute: unexpected exec class", op.pc);
      return;
  }

  FpuSlot& slot = latch_.slot;
  slot.busy = true;
  slot.mn = in.mn;
  slot.rd = in.rd;
  slot.dest = dest;
  slot.result = result;
  slot.seq = ++issue_seq_;
  latch_.to_div = is_div;
  latch_.full = true;
  if (dest == DestKind::kFpReg) ++busy_f_[in.rd];

  last_issue_ = op.in;
  seq_.pop_front();
  ++perf_.fp_instrs;
  if (is_div) {
    ++perf_.fp_div_ops;
  } else {
    ++perf_.fp_mac_ops;
  }
}

void FpSubsystem::fill_load(const FpOp& op, Cycle now, CorePort& port) {
  const Instr& in = *op.in;
  const u8 bytes = op.pre->mem_bytes;
  if (lsu_.busy) {
    ++perf_.stall_fp_lsu;
    last_stall_ = "lsu-busy";
    return;
  }
  const auto d = resolve_dest(in.rd, op);
  if (!d) return;
  const Addr ea = op.int_operand;
  if (!mem_.valid(ea, bytes)) {
    fail("fp load from unmapped address", op.pc, FailureKind::kBusError);
    return;
  }
  Cycle ready_at;
  if (Memory::in_tcdm(ea)) {
    if (port.used) {
      ++perf_.stall_fp_lsu;
      last_stall_ = "lsu-port";
      return;
    }
    if (!tcdm_.request(lsu_req_, ea, /*is_write=*/false)) {
      ++perf_.stall_fp_lsu;
      last_stall_ = "lsu-bank";
      return;
    }
    port.used = true;
    ready_at = now + 1 + cfg_.load_latency;
  } else {
    ready_at = now + cfg_.main_mem_latency;
  }
  const u64 raw = mem_.load(ea, bytes);
  lsu_.busy = true;
  lsu_.rd = in.rd;
  lsu_.dest = *d;
  lsu_.value = bytes == 4 ? exec::box32(static_cast<u32>(raw)) : raw;
  lsu_.ready_at = ready_at;
  if (*d == DestKind::kFpReg) ++busy_f_[in.rd];
  last_issue_ = op.in;
  seq_.pop_front();
  ++perf_.fp_instrs;
  ++perf_.fp_loads;
}

void FpSubsystem::fill_store(const FpOp& op, CorePort& port) {
  const Instr& in = *op.in;
  const u8 bytes = op.pre->mem_bytes;
  if (!src_ready(in.rs2, op)) return;
  const Addr ea = op.int_operand;
  if (!mem_.valid(ea, bytes)) {
    fail("fp store to unmapped address", op.pc, FailureKind::kBusError);
    return;
  }
  if (Memory::in_tcdm(ea)) {
    if (port.used) {
      ++perf_.stall_fp_lsu;
      last_stall_ = "lsu-port";
      return;
    }
    if (!tcdm_.request(lsu_req_, ea, /*is_write=*/true)) {
      ++perf_.stall_fp_lsu;
      last_stall_ = "lsu-bank";
      return;
    }
    port.used = true;
  }
  const u64 v = read_src(in.rs2);
  mem_.store(ea, bytes == 4 ? exec::unbox32(v) : v, bytes);
  last_issue_ = op.in;
  seq_.pop_front();
  ++perf_.fp_instrs;
  ++perf_.fp_stores;
}

void FpSubsystem::try_fill_latch(Cycle now, CorePort& port) {
  if (latch_.full) return;
  const FpOp* op = seq_.peek();
  if (seq_.has_error()) {
    fail(seq_.error(), seq_.error_pc());
    return;
  }
  if (op == nullptr) {
    ++perf_.fp_queue_empty;
    return;
  }
  switch (op->pre->handler) {
    case ExecHandler::kFpMac:
    case ExecHandler::kFpDiv:
    case ExecHandler::kFpSqrt:
    case ExecHandler::kFpCmp:
    case ExecHandler::kFpCvtF2I:
    case ExecHandler::kFpCvtI2F:
      fill_compute(*op);
      return;
    case ExecHandler::kFpLoad:
      fill_load(*op, now, port);
      return;
    case ExecHandler::kFpStore:
      fill_store(*op, port);
      return;
    default:
      fail("non-FP instruction reached the FP issue stage: " +
               isa::disassemble(*op->in),
           op->pc);
  }
}

bool FpSubsystem::try_writeback(const FpuSlot& slot, Cycle now) {
  switch (slot.dest) {
    case DestKind::kFpReg:
      fregs_[slot.rd] = slot.result;
      --busy_f_[slot.rd];
      ++perf_.rf_fp_writes;
      return true;
    case DestKind::kChain:
      if (!chain_.can_push(slot.rd)) {
        ++perf_.stall_chain_full;
        chain_.count_backpressure();
        return false;
      }
      chain_.push(slot.rd, slot.result);
      return true;
    case DestKind::kSsrWrite:
      if (!streamers_[slot.rd].can_push()) {
        ++perf_.stall_ssr_wfull;
        return false;
      }
      streamers_[slot.rd].push(slot.result);
      return true;
    case DestKind::kIntReg:
      if (int_wb_ != nullptr) {
        int_wb_->schedule_write(slot.rd, static_cast<u32>(slot.result), now + 1);
      }
      return true;
    case DestKind::kNone:
      return true;
  }
  return true;
}

void FpSubsystem::tick_lsu(Cycle now) {
  if (!lsu_.busy || now < lsu_.ready_at) return;
  FpuSlot slot;
  slot.busy = true;
  slot.rd = lsu_.rd;
  slot.dest = lsu_.dest;
  slot.result = lsu_.value;
  if (try_writeback(slot, now)) lsu_.busy = false;
}

void FpSubsystem::drain_latch(Cycle now) {
  if (!latch_.full) return;
  if (latch_.to_div) {
    if (div_.busy) return;
    div_.busy = true;
    div_.slot = latch_.slot;
    const bool is_sqrt = latch_.slot.mn == Mnemonic::kFsqrtD ||
                         latch_.slot.mn == Mnemonic::kFsqrtS;
    div_.done_at = now + (is_sqrt ? cfg_.fsqrt_latency : cfg_.fdiv_latency);
    ++perf_.fpu_ops;
    latch_.full = false;
    return;
  }
  if (!pipe_.stage0_free()) {
    if (last_stall_[0] == '\0') last_stall_ = "pipe-frozen";
    ++perf_.stall_fpu_busy;
    return;
  }
  pipe_.insert(latch_.slot);
  ++perf_.fpu_ops;
  latch_.full = false;
}

void FpSubsystem::tick(Cycle now, CorePort& port) {
  if (has_error()) return;

  // 1. LSU completion (loads land in RF/chain FIFO).
  tick_lsu(now);

  // 2. Issue stage: operand pops happen here, before writeback pushes.
  try_fill_latch(now, port);

  // 3. Pipeline writeback + advance (pushes into chain/SSR FIFOs). A blocked
  //    writeback freezes the whole pipeline: this is the paper's chaining
  //    backpressure (and the SSR write-FIFO backpressure).
  bool wb_used = false;
  if (pipe_.last().busy) {
    if (try_writeback(pipe_.last(), now)) {
      pipe_.clear_last();
      pipe_.advance();
      wb_used = true;
    }
  } else {
    pipe_.advance();
  }

  // 4. Iterative unit shares the single writeback port with the pipeline.
  if (div_.ready(now) && !wb_used) {
    if (try_writeback(div_.slot, now)) div_.busy = false;
  }

  // 5. Move the latched instruction into its unit if possible.
  drain_latch(now);
}

} // namespace sch::sim
