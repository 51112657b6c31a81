#include "isa/predecode.hpp"

#include <cstdio>

#include "isa/csr.hpp"

namespace sch::isa {
namespace {

ExecHandler classify(const Instr& in, const MnemonicInfo& mi) {
  switch (mi.exec) {
    case ExecClass::kIntAlu:
      if (in.mn == Mnemonic::kLui) return ExecHandler::kLui;
      if (in.mn == Mnemonic::kAuipc) return ExecHandler::kAuipc;
      return mi.imm == ImmKind::kNone ? ExecHandler::kIntAluReg
                                      : ExecHandler::kIntAluImm;
    case ExecClass::kIntMul: return ExecHandler::kIntMul;
    case ExecClass::kIntDiv: return ExecHandler::kIntDiv;
    case ExecClass::kJump:
      return in.mn == Mnemonic::kJal ? ExecHandler::kJal : ExecHandler::kJalr;
    case ExecClass::kBranch: return ExecHandler::kBranch;
    case ExecClass::kLoad:
      if (in.mn == Mnemonic::kLb) return ExecHandler::kLoadSext8;
      if (in.mn == Mnemonic::kLh) return ExecHandler::kLoadSext16;
      return ExecHandler::kLoad;
    case ExecClass::kStore: return ExecHandler::kStore;
    case ExecClass::kCsr: return ExecHandler::kCsr;
    case ExecClass::kSystem:
      if (in.mn == Mnemonic::kEcall) return ExecHandler::kEcall;
      if (in.mn == Mnemonic::kEbreak) return ExecHandler::kEbreak;
      return ExecHandler::kFence;
    case ExecClass::kFpLoad: return ExecHandler::kFpLoad;
    case ExecClass::kFpStore: return ExecHandler::kFpStore;
    case ExecClass::kFpMac: return ExecHandler::kFpMac;
    case ExecClass::kFpDiv: return ExecHandler::kFpDiv;
    case ExecClass::kFpSqrt: return ExecHandler::kFpSqrt;
    case ExecClass::kFpCmp: return ExecHandler::kFpCmp;
    case ExecClass::kFpCvtF2I: return ExecHandler::kFpCvtF2I;
    case ExecClass::kFpCvtI2F: return ExecHandler::kFpCvtI2F;
    case ExecClass::kFrep: return ExecHandler::kFrep;
    case ExecClass::kScfg:
      return in.mn == Mnemonic::kScfgw ? ExecHandler::kScfgW
                                       : ExecHandler::kScfgR;
    case ExecClass::kDma:
      switch (in.mn) {
        case Mnemonic::kDmSrc: return ExecHandler::kDmaSrc;
        case Mnemonic::kDmDst: return ExecHandler::kDmaDst;
        case Mnemonic::kDmStr: return ExecHandler::kDmaStr;
        case Mnemonic::kDmCpy: return ExecHandler::kDmaCpy;
        case Mnemonic::kDmCpy2d: return ExecHandler::kDmaCpy2d;
        default: return ExecHandler::kDmaStat;
      }
  }
  return ExecHandler::kInvalid;
}

i32 precompute_aux(const Instr& in, ExecHandler h) {
  switch (h) {
    case ExecHandler::kLui:
    case ExecHandler::kAuipc:
      return static_cast<i32>(static_cast<u32>(in.imm) << 12);
    default:
      return in.imm;
  }
}

} // namespace

PredecodedInstr predecode(const Instr& in) {
  PredecodedInstr p;
  p.mi = &info(in.mn);
  if (!in.valid()) return p; // kInvalid handler, sentinel metadata
  p.handler = classify(in, *p.mi);
  p.aux = precompute_aux(in, p.handler);
  p.fp_domain = p.mi->fp_domain;
  p.mem_bytes = p.mi->mem_bytes;
  if (p.mi->rd == RegClass::kInt) p.flags |= preflag::kRdInt;
  if (p.mi->rs1 == RegClass::kInt) p.flags |= preflag::kRs1Int;
  if (p.mi->rs2 == RegClass::kInt) p.flags |= preflag::kRs2Int;
  if (in.mn == Mnemonic::kFence ||
      (p.handler == ExecHandler::kCsr &&
       csr::is_stream_csr(static_cast<u32>(p.aux)))) {
    p.flags |= preflag::kFpBarrier;
  }

  const RegClass classes[3] = {p.mi->rs1, p.mi->rs2, p.mi->rs3};
  const u8 regs[3] = {in.rs1, in.rs2, in.rs3};
  for (u32 slot = 0; slot < 3; ++slot) {
    if (classes[slot] != RegClass::kFp) continue;
    u8 j = 0;
    while (j < p.n_fp_srcs && p.fp_srcs[j] != regs[slot]) ++j;
    if (j == p.n_fp_srcs) p.fp_srcs[p.n_fp_srcs++] = regs[slot];
    p.fp_slot[slot] = j;
  }
  return p;
}

std::string frep_body_error(const std::vector<PredecodedInstr>& pre,
                            usize site) {
  const u32 body = static_cast<u32>(pre[site].aux);
  if (body == 0) return "frep with empty body";
  for (u32 i = 0; i < body; ++i) {
    const usize idx = site + 1 + i;
    if (idx >= pre.size() || !pre[idx].fp_domain) {
      return "frep body contains a non-FP instruction at offset " +
             std::to_string(i);
    }
    if (pre[idx].handler == ExecHandler::kFrep) return "nested frep";
  }
  return "";
}

std::string illegal_encoding_message(u32 word) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "illegal instruction encoding 0x%08x", word);
  return buf;
}

void link_superblocks(std::vector<PredecodedInstr>& pre) {
  const usize n = pre.size();
  constexpr u32 kNoIndex = 0xFFFF'FFFF;

  // Backward pass: straight-line run lengths.
  u32 run = 0;
  for (usize i = n; i-- > 0;) {
    run = exec_handler_linear(pre[i].handler) ? run + 1 : 0;
    pre[i].run_len = run;
  }

  for (usize i = 0; i < n; ++i) {
    PredecodedInstr& p = pre[i];
    switch (p.handler) {
      case ExecHandler::kJal:
      case ExecHandler::kBranch: {
        // aux is the pc-relative byte delta of the taken path.
        const i64 t = static_cast<i64>(i) * 4 + p.aux;
        p.target_idx = (t >= 0 && t < static_cast<i64>(n) * 4 && (t & 3) == 0)
                           ? static_cast<u32>(t >> 2)
                           : kNoIndex;
        break;
      }
      case ExecHandler::kFrep:
        // Static body validation, once per site.
        if (frep_body_error(pre, i).empty()) p.flags |= preflag::kFrepBodyOk;
        break;
      default:
        break;
    }
  }
}

} // namespace sch::isa
