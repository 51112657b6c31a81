#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "asm/builder.hpp"
#include "isa/csr.hpp"
#include "isa/disasm.hpp"
#include "ssr/ssr_config.hpp"

namespace sch::fuzz {

const char* block_kind_name(BlockKind kind) {
  switch (kind) {
    case BlockKind::kIntAlu: return "int_alu";
    case BlockKind::kIntMulDiv: return "int_muldiv";
    case BlockKind::kMemory: return "memory";
    case BlockKind::kBranchLoop: return "branch_loop";
    case BlockKind::kFpCompute: return "fp_compute";
    case BlockKind::kChain: return "chain";
    case BlockKind::kFrep: return "frep";
    case BlockKind::kSsr: return "ssr";
    case BlockKind::kDma: return "dma";
    case BlockKind::kCsr: return "csr";
    case BlockKind::kCount: break;
  }
  return "?";
}

bool parse_block_kind(const std::string& name, BlockKind& out) {
  for (u32 k = 0; k < static_cast<u32>(BlockKind::kCount); ++k) {
    if (name == block_kind_name(static_cast<BlockKind>(k))) {
      out = static_cast<BlockKind>(k);
      return true;
    }
  }
  return false;
}

namespace {

// Register discipline: every block may clobber any register below, so
// blocks never depend on each other's register state (they reload what
// they need from their own data). x5..x7 are block-internal temporaries
// (addresses, loop counters); the operand pools feed the random choices.
constexpr u8 kT0 = 5, kT1 = 6, kT2 = 7;
constexpr u8 kIntPool[] = {10, 11, 12, 13, 14, 15, 16, 17, 28, 29, 30, 31};
constexpr u8 kFpPool[] = {3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
constexpr u8 kChainRegs[] = {16, 17, 18, 19, 20, 21, 22, 23}; // f16..f23
constexpr u8 kFreeFp[] = {24, 25, 26, 27, 28, 29, 30, 31};    // pop targets

template <usize N>
u8 pick(Rng& rng, const u8 (&pool)[N]) {
  return pool[rng.next() % N];
}

/// Per-hart main-memory scratch partition for DMA staging: 256 KiB per
/// hart (a page-rounded equal share of the 4 MiB main window beyond 16
/// harts), 4 KiB per block position. Partitions never overlap, like the
/// TCDM ones.
Addr main_scratch(u32 hart, u32 num_harts, u32 block_index) {
  const u32 share =
      std::min<u32>(0x40000, (memmap::kMainSize / num_harts) & ~0xFFFu);
  return memmap::kMainBase + hart * share +
         (block_index % (share / 0x1000)) * 0x1000;
}

struct BlockCtx {
  u32 hart = 0;
  u32 num_harts = 1;
  u32 index = 0;  // position in the hart's block list (label uniqueness)

  [[nodiscard]] std::string lbl(const char* tag) const {
    return "b" + std::to_string(index) + "_" + tag;
  }
};

void emit_int_alu(ProgramBuilder& b, Rng& rng) {
  const u32 seeds = rng.range(2, 4);
  for (u32 i = 0; i < seeds; ++i) {
    b.li(pick(rng, kIntPool), static_cast<i64>(static_cast<i32>(rng.next())));
  }
  const u32 n = rng.range(4, 12);
  for (u32 i = 0; i < n; ++i) {
    const u8 rd = pick(rng, kIntPool);
    const u8 rs1 = pick(rng, kIntPool);
    const u8 rs2 = pick(rng, kIntPool);
    const i32 imm = static_cast<i32>(rng.range(0, 2047)) - 1024;
    switch (rng.range(0, 11)) {
      case 0: b.add(rd, rs1, rs2); break;
      case 1: b.sub(rd, rs1, rs2); break;
      case 2: b.op_xor(rd, rs1, rs2); break;
      case 3: b.op_or(rd, rs1, rs2); break;
      case 4: b.op_and(rd, rs1, rs2); break;
      case 5: b.sll(rd, rs1, rs2); break;
      case 6: b.addi(rd, rs1, imm); break;
      case 7: b.xori(rd, rs1, imm); break;
      case 8: b.slti(rd, rs1, imm); break;
      case 9: b.sltiu(rd, rs1, imm); break;
      case 10: b.slli(rd, rs1, static_cast<i32>(rng.range(0, 31))); break;
      case 11: b.srai(rd, rs1, static_cast<i32>(rng.range(0, 31))); break;
    }
  }
}

void emit_int_muldiv(ProgramBuilder& b, Rng& rng) {
  const u32 seeds = rng.range(2, 3);
  for (u32 i = 0; i < seeds; ++i) {
    b.li(pick(rng, kIntPool), static_cast<i64>(static_cast<i32>(rng.next())));
  }
  if (rng.chance(30)) b.li(pick(rng, kIntPool), 0);  // seed a zero divisor
  const u32 n = rng.range(3, 8);
  for (u32 i = 0; i < n; ++i) {
    const u8 rd = pick(rng, kIntPool);
    const u8 rs1 = pick(rng, kIntPool);
    const u8 rs2 = pick(rng, kIntPool);
    switch (rng.range(0, 2)) {
      case 0: b.mul(rd, rs1, rs2); break;
      case 1: b.divu(rd, rs1, rs2); break;  // x/0 == all-ones (RV spec)
      case 2: b.remu(rd, rs1, rs2); break;
    }
  }
}

void emit_memory(ProgramBuilder& b, Rng& rng) {
  b.data_align(8);
  const Addr buf = b.data_zero(64);
  b.la(kT0, buf);
  if (rng.chance(50)) {
    b.li(pick(rng, kIntPool), static_cast<i64>(static_cast<i32>(rng.next())));
  }
  const u32 n = rng.range(3, 8);
  for (u32 i = 0; i < n; ++i) {
    switch (rng.range(0, 3)) {
      case 0: b.sw(pick(rng, kIntPool), kT0, 4 * static_cast<i32>(rng.range(0, 15))); break;
      case 1: b.lw(pick(rng, kIntPool), kT0, 4 * static_cast<i32>(rng.range(0, 15))); break;
      case 2: b.fsd(pick(rng, kFpPool), kT0, 8 * static_cast<i32>(rng.range(0, 7))); break;
      case 3: b.fld(pick(rng, kFpPool), kT0, 8 * static_cast<i32>(rng.range(0, 7))); break;
    }
  }
}

void emit_branch_loop(ProgramBuilder& b, Rng& rng, const BlockCtx& ctx) {
  const u32 trip = rng.range(1, 6);
  const std::string head = ctx.lbl("loop");
  b.li(kT2, trip);
  b.li(kT0, 0);
  b.label(head);
  const u32 body = rng.range(1, 3);
  for (u32 i = 0; i < body; ++i) {
    const u8 rd = pick(rng, kIntPool);
    if (rng.chance(50)) {
      b.add(kT0, kT0, kT2);
    } else {
      b.addi(rd, rd, static_cast<i32>(rng.range(0, 15)));
    }
  }
  b.addi(kT2, kT2, -1);
  b.bnez(kT2, head);
  if (rng.chance(50)) {
    // Forward skip: beq on equal registers is always taken.
    const std::string skip = ctx.lbl("skip");
    const u8 r = pick(rng, kIntPool);
    b.beq(kT0, kT0, skip);
    b.addi(r, r, 1);  // skipped
    b.label(skip);
  }
}

void emit_fp_compute(ProgramBuilder& b, Rng& rng) {
  const u32 k = rng.range(2, 4);
  std::vector<double> consts;
  consts.reserve(k);
  for (u32 i = 0; i < k; ++i) consts.push_back(rng.f64());
  b.data_align(8);
  const Addr cbase = b.data_f64(consts);
  b.la(kT0, cbase);
  for (u32 i = 0; i < k; ++i) b.fld(kFpPool[i], kT0, 8 * static_cast<i32>(i));
  const u32 n = rng.range(3, 10);
  u8 last = kFpPool[0];
  for (u32 i = 0; i < n; ++i) {
    const u8 rd = pick(rng, kFpPool);
    const u8 a = pick(rng, kFpPool);
    const u8 c = pick(rng, kFpPool);
    const u8 d = pick(rng, kFpPool);
    switch (rng.range(0, 8)) {
      case 0: b.fadd_d(rd, a, c); break;
      case 1: b.fsub_d(rd, a, c); break;
      case 2: b.fmul_d(rd, a, c); break;
      case 3: b.fmadd_d(rd, a, c, d); break;
      case 4: b.fsgnj_d(rd, a, c); break;
      case 5: b.fmin_d(rd, a, c); break;
      case 6: b.fmax_d(rd, a, c); break;
      case 7: b.fdiv_d(rd, a, c); break;  // /0 -> inf, bit-exact both engines
      case 8:
        b.fmul_d(rd, a, a);   // square: non-negative operand ...
        b.fsqrt_d(rd, rd);    // ... so fsqrt never produces a NaN
        break;
    }
    last = rd;
  }
  if (rng.chance(40)) b.feq_d(pick(rng, kIntPool), last, pick(rng, kFpPool));
  if (rng.chance(30)) b.fcvt_d_w(pick(rng, kFpPool), pick(rng, kIntPool));
  b.data_align(8);
  const Addr out = b.data_zero(16);
  b.la(kT1, out);
  b.fsd(last, kT1, 0);
  if (rng.chance(50)) b.fsd(pick(rng, kFpPool), kT1, 8);
}

void emit_chain(ProgramBuilder& b, Rng& rng) {
  // Seed non-chained sources from data, *before* enabling the mask (an fld
  // into an enabled register would be a push).
  b.data_align(8);
  const Addr cbase = b.data_f64({rng.f64(), rng.f64(), rng.f64()});
  b.la(kT0, cbase);
  b.fld(3, kT0, 0);
  b.fld(4, kT0, 8);
  b.fld(5, kT0, 16);
  const u32 nch = rng.range(1, 2);
  const u8 c0 = pick(rng, kChainRegs);
  u8 c1 = pick(rng, kChainRegs);
  while (nch == 2 && c1 == c0) c1 = pick(rng, kChainRegs);
  const u32 mask = (1u << c0) | (nch == 2 ? (1u << c1) : 0u);
  b.li(kT1, static_cast<i64>(mask));
  b.csrw(isa::csr::kChainMask, kT1);
  const u8 srcs[] = {3, 4, 5};
  u8 last = 3;
  // Balanced push/pop traffic: <= 1 outstanding value per chained register,
  // and each push precedes its pop in program order -- the discipline that
  // keeps the in-order core deadlock-free (DESIGN.md scheduling hazard).
  const auto produce = [&](u8 c) { b.fadd_d(c, pick(rng, srcs), pick(rng, srcs)); };
  const auto consume = [&](u8 c) {
    const u8 rd = pick(rng, kFreeFp);
    b.fadd_d(rd, c, pick(rng, srcs));  // chained operand used exactly once
    last = rd;
  };
  const u32 pairs = rng.range(1, 3);
  for (u32 p = 0; p < pairs; ++p) {
    if (nch == 1) {
      produce(c0);
      consume(c0);
    } else if (rng.chance(50)) {
      produce(c0);
      consume(c0);
      produce(c1);
      consume(c1);
    } else {
      // Interleaved across two registers; still <= 1 outstanding per reg.
      produce(c0);
      produce(c1);
      consume(c0);
      consume(c1);
    }
  }
  b.csrwi(isa::csr::kChainMask, 0);  // all FIFOs drained by construction
  b.data_align(8);
  const Addr out = b.data_zero(8);
  b.la(kT1, out);
  b.fsd(last, kT1, 0);
}

void emit_frep(ProgramBuilder& b, Rng& rng) {
  b.data_align(8);
  const Addr cbase = b.data_f64({rng.f64(), rng.f64(), rng.f64(), rng.f64()});
  b.la(kT0, cbase);
  b.fld(8, kT0, 0);
  b.fld(9, kT0, 8);
  b.fld(10, kT0, 16);
  b.fld(11, kT0, 24);
  const u32 body = rng.range(1, 3);
  const u32 reps = rng.range(1, 6);
  b.li(kT2, static_cast<i64>(reps) - 1);
  b.frep_o(kT2, static_cast<i32>(body));
  for (u32 i = 0; i < body; ++i) {
    switch (rng.range(0, 2)) {  // FP-only body (frep legality)
      case 0: b.fadd_d(10, 10, 8); break;
      case 1: b.fmadd_d(11, 8, 9, 11); break;
      case 2: b.fmul_d(12, 10, 9); break;
    }
  }
  b.data_align(8);
  const Addr out = b.data_zero(24);
  b.la(kT1, out);
  b.fsd(10, kT1, 0);
  b.fsd(11, kT1, 8);
  b.fsd(12, kT1, 16);
}

void emit_ssr(ProgramBuilder& b, Rng& rng) {
  using ssr::CfgReg;
  using ssr::cfg_index;
  const u32 n = rng.range(2, 4);
  const u32 rpt = rng.chance(30) ? rng.range(1, 2) : 0;  // reads/elem - 1
  std::vector<double> elems;
  elems.reserve(n);
  for (u32 i = 0; i < n; ++i) elems.push_back(rng.f64());
  b.data_align(8);
  const Addr src = b.data_f64(elems);
  // Config registers persist across blocks, so every shape parameter is
  // written explicitly (never inherited).
  b.li(kT0, static_cast<i64>(n) - 1);
  b.scfgw(kT0, cfg_index(0, CfgReg::kBound0));
  b.li(kT0, 8);
  b.scfgw(kT0, cfg_index(0, CfgReg::kStride0));
  b.li(kT0, static_cast<i64>(rpt));
  b.scfgw(kT0, cfg_index(0, CfgReg::kRepeat));
  const bool write_stream = rpt == 0 && rng.chance(40);
  if (write_stream) {
    const Addr dst = b.data_zero(8 * n);
    b.li(kT0, static_cast<i64>(n) - 1);
    b.scfgw(kT0, cfg_index(1, CfgReg::kBound0));
    b.li(kT0, 8);
    b.scfgw(kT0, cfg_index(1, CfgReg::kStride0));
    b.li(kT0, 0);
    b.scfgw(kT0, cfg_index(1, CfgReg::kRepeat));
    b.la(kT0, dst);
    b.scfgw(kT0, cfg_index(1, CfgReg::kWptr0));  // arm 1-D write on ft1
  }
  if (rng.chance(25)) b.scfgr(pick(rng, kIntPool), cfg_index(0, CfgReg::kBound0));
  // Seed the accumulator before the streamers claim ft0/ft1/ft2.
  b.la(kT1, src);
  b.fld(20, kT1, 0);
  b.la(kT0, src);
  b.scfgw(kT0, cfg_index(0, CfgReg::kRptr0));  // arm 1-D read on ft0, last
  b.csrwi(isa::csr::kSsrEnable, 1);
  const u32 reads = n * (rpt + 1);
  if (write_stream) {
    // Each op consumes one read element and produces one write element:
    // exactly n reads and n writes, matching both shapes.
    for (u32 i = 0; i < reads; ++i) b.fadd_d(1, 0, 20);  // ft1 <- ft0 + f20
  } else if (rng.chance(50)) {
    // The paper's canonical pattern: frep body consuming the read stream.
    b.li(kT2, static_cast<i64>(reads) - 1);
    b.frep_o(kT2, 1);
    b.fadd_d(20, 20, 0);  // f20 += ft0
  } else {
    for (u32 i = 0; i < reads; ++i) b.fadd_d(20, 20, 0);
  }
  b.csrwi(isa::csr::kSsrEnable, 0);  // serializing stream-CSR write
  b.data_align(8);
  const Addr out = b.data_zero(8);
  b.la(kT1, out);
  b.fsd(20, kT1, 0);
  // The write stream's destination is deliberately not read back here: its
  // drain is only guaranteed quiescent at halt, where the lockstep memory
  // compare covers it.
}

void emit_dma(ProgramBuilder& b, Rng& rng, const BlockCtx& ctx) {
  const u32 n = rng.range(2, 8);
  std::vector<double> vals;
  vals.reserve(n);
  for (u32 i = 0; i < n; ++i) vals.push_back(rng.f64());
  b.data_align(8);
  const Addr src = b.data_f64(vals);
  const u32 bytes = 8 * n;
  const bool to_main = rng.chance(50);
  const Addr dst = to_main ? main_scratch(ctx.hart, ctx.num_harts, ctx.index)
                           : b.data_zero(bytes);
  b.la(kT0, src);
  b.dmsrc(kT0);
  b.la(kT1, dst);
  b.dmdst(kT1);
  b.li(kT2, bytes);
  b.dmcpy(10, kT2);  // a0 <- per-hart transfer id (1, 2, ... both engines)
  const std::string poll = ctx.lbl("poll");
  b.label(poll);
  b.dmstat(11, 1);   // outstanding count; retires every iteration, so the
  b.bnez(11, poll);  // spin never trips the progress watchdog
  b.la(kT1, dst);
  b.fld(22, kT1, 8 * static_cast<i32>(rng.range(0, n - 1)));
  b.data_align(8);
  const Addr out = b.data_zero(8);
  b.la(kT0, out);
  b.fsd(22, kT0, 0);
  if (rng.chance(35)) {
    // 2-D gather: rows x row_bytes with a source stride over a wider block.
    const u32 rows = rng.range(2, 3);
    const u32 row_bytes = 16;
    const i32 sstride = rng.chance(50) ? 16 : 24;
    std::vector<double> wide;
    wide.reserve(12);
    for (u32 i = 0; i < 12; ++i) wide.push_back(rng.f64());
    b.data_align(8);
    const Addr src2 = b.data_f64(wide);  // 96 B >= (rows-1)*stride + row_bytes
    const Addr dst2 = b.data_zero(rows * row_bytes);
    b.la(kT0, src2);
    b.dmsrc(kT0);
    b.la(kT1, dst2);
    b.dmdst(kT1);
    b.li(12, sstride);
    b.li(13, static_cast<i64>(row_bytes));  // packed destination
    b.dmstr(12, 13);
    b.li(kT2, static_cast<i64>(row_bytes));
    b.li(14, static_cast<i64>(rows));
    b.dmcpy2d(15, kT2, 14);
    const std::string poll2 = ctx.lbl("poll2");
    b.label(poll2);
    b.dmstat(11, 1);
    b.bnez(11, poll2);
    b.la(kT1, dst2);
    b.fld(23, kT1, 8 * static_cast<i32>(rng.range(0, rows * row_bytes / 8 - 1)));
    b.fsd(23, kT0, 0);  // kT0 still holds `out`
  }
}

void emit_csr(ProgramBuilder& b, Rng& rng) {
  b.csrr(pick(rng, kIntPool), isa::csr::kMhartid);
  b.csrr(pick(rng, kIntPool), isa::csr::kMnumharts);
  const u8 a = pick(rng, kIntPool);
  b.csrr(a, isa::csr::kMhartid);
  b.slli(a, a, static_cast<i32>(rng.range(0, 4)));
  if (rng.chance(50)) b.csrr(pick(rng, kIntPool), isa::csr::kChainMask);
  // Counter CSRs (cycle/instret) are deliberately never read: they are the
  // one architecturally-visible, legitimately engine-dependent state.
}

void emit_block(ProgramBuilder& b, const BlockSpec& blk, const BlockCtx& ctx) {
  Rng rng(blk.seed);
  switch (blk.kind) {
    case BlockKind::kIntAlu: emit_int_alu(b, rng); break;
    case BlockKind::kIntMulDiv: emit_int_muldiv(b, rng); break;
    case BlockKind::kMemory: emit_memory(b, rng); break;
    case BlockKind::kBranchLoop: emit_branch_loop(b, rng, ctx); break;
    case BlockKind::kFpCompute: emit_fp_compute(b, rng); break;
    case BlockKind::kChain: emit_chain(b, rng); break;
    case BlockKind::kFrep: emit_frep(b, rng); break;
    case BlockKind::kSsr: emit_ssr(b, rng); break;
    case BlockKind::kDma: emit_dma(b, rng, ctx); break;
    case BlockKind::kCsr: emit_csr(b, rng); break;
    case BlockKind::kCount: break;
  }
}

} // namespace

ProgramSpec generate_spec(u64 seed, const GenConfig& config) {
  ProgramSpec spec;
  spec.seed = seed;
  Rng rng(mix_seed(seed, 0xA11CE));
  const u32 max_harts = std::max<u32>(config.max_harts, 1);
  const u32 choices[4] = {1, 1, std::min<u32>(2, max_harts), max_harts};
  spec.num_harts = choices[rng.range(0, 3)];
  const u32 lo = std::max<u32>(config.min_blocks, 1);
  const u32 hi = std::max<u32>(config.max_blocks, lo);
  spec.harts.resize(spec.num_harts);
  for (u32 h = 0; h < spec.num_harts; ++h) {
    const u32 nb = rng.range(lo, hi);
    spec.harts[h].reserve(nb);
    for (u32 i = 0; i < nb; ++i) {
      BlockSpec blk;
      blk.kind = static_cast<BlockKind>(
          rng.range(0, static_cast<u32>(BlockKind::kCount) - 1));
      blk.seed = rng.next();
      spec.harts[h].push_back(blk);
    }
  }
  return spec;
}

std::vector<Program> materialize(const ProgramSpec& spec) {
  const u32 n = std::max<u32>(spec.num_harts, 1);
  std::vector<Program> programs;
  programs.reserve(n);
  for (u32 h = 0; h < n; ++h) {
    ProgramBuilder b(memmap::kTextBase,
                     memmap::kTcdmBase + h * (memmap::kTcdmSize / n));
    if (h < spec.harts.size()) {
      for (u32 i = 0; i < spec.harts[h].size(); ++i) {
        BlockCtx ctx;
        ctx.hart = h;
        ctx.num_harts = n;
        ctx.index = i;
        emit_block(b, spec.harts[h][i], ctx);
      }
    }
    b.ecall();
    programs.push_back(b.build());
  }
  return programs;
}

std::string render_asm(const ProgramSpec& spec, u32 hart) {
  const std::vector<Program> programs = materialize(spec);
  const Program& p = programs.at(hart);
  std::ostringstream os;
  os << "# fuzz reproducer: seed=0x" << std::hex << spec.seed << std::dec
     << " hart " << hart << "/" << spec.num_harts << "\n# blocks:";
  if (hart < spec.harts.size()) {
    for (const BlockSpec& blk : spec.harts[hart]) {
      os << " " << block_kind_name(blk.kind);
    }
  }
  os << "\n";
  if (p.data_base != memmap::kTcdmBase) {
    os << "# NOTE: assemble with data_base=0x" << std::hex << p.data_base
       << std::dec << " (hart partition)\n";
  }
  if (!p.data.empty()) {
    os << ".data\n";
    usize i = 0;
    while (i < p.data.size()) {
      usize z = i;
      while (z < p.data.size() && p.data[z] == 0) ++z;
      if (z - i >= 16) {  // compress long zero runs (scratch buffers)
        os << ".zero " << (z - i) << "\n";
        i = z;
        continue;
      }
      const usize chunk = std::min<usize>(8, p.data.size() - i);
      if (chunk == 8) {
        u64 v = 0;
        for (usize j = 0; j < 8; ++j) v |= static_cast<u64>(p.data[i + j]) << (8 * j);
        os << ".dword 0x" << std::hex << v << std::dec << "\n";
      } else {
        for (usize j = 0; j < chunk; ++j) {
          os << ".byte " << static_cast<u32>(p.data[i + j]) << "\n";
        }
      }
      i += chunk;
    }
  }
  os << ".text\n";
  for (const isa::Instr& in : p.instrs) os << isa::disassemble(in) << "\n";
  return os.str();
}

namespace {

std::string hex_u64(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

bool parse_hex_u64(const std::string& s, u64& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 0);
  return end != nullptr && *end == '\0';
}

} // namespace

scenario::Json spec_to_json(const ProgramSpec& spec) {
  using scenario::Json;
  Json o = Json::object();
  o.set("fuzz_spec", static_cast<i64>(1));
  o.set("seed", hex_u64(spec.seed));
  o.set("num_harts", static_cast<i64>(spec.num_harts));
  Json harts = Json::array();
  for (const auto& blocks : spec.harts) {
    Json arr = Json::array();
    for (const BlockSpec& blk : blocks) {
      Json bj = Json::object();
      bj.set("kind", std::string(block_kind_name(blk.kind)));
      bj.set("seed", hex_u64(blk.seed));
      arr.push_back(std::move(bj));
    }
    harts.push_back(std::move(arr));
  }
  o.set("harts", std::move(harts));
  return o;
}

Status spec_from_json(const scenario::Json& json, ProgramSpec& out) {
  using scenario::Json;
  if (!json.is_object()) return Status::error("fuzz spec: not a JSON object");
  const Json* seed = json.get("seed");
  const Json* num_harts = json.get("num_harts");
  const Json* harts = json.get("harts");
  if (seed == nullptr || !seed->is_string() ||
      !parse_hex_u64(seed->as_string(), out.seed)) {
    return Status::error("fuzz spec: missing/invalid 'seed' (hex string)");
  }
  if (num_harts == nullptr || !num_harts->is_integer() ||
      num_harts->as_i64() < 1 || num_harts->as_i64() > 64) {
    return Status::error("fuzz spec: missing/invalid 'num_harts'");
  }
  out.num_harts = static_cast<u32>(num_harts->as_i64());
  if (harts == nullptr || !harts->is_array() ||
      harts->items().size() != out.num_harts) {
    return Status::error("fuzz spec: 'harts' must be an array of num_harts "
                         "block lists");
  }
  out.harts.clear();
  for (const Json& arr : harts->items()) {
    if (!arr.is_array()) return Status::error("fuzz spec: hart entry not an array");
    std::vector<BlockSpec> blocks;
    for (const Json& bj : arr.items()) {
      const Json* kind = bj.get("kind");
      const Json* bseed = bj.get("seed");
      BlockSpec blk;
      if (kind == nullptr || !kind->is_string() ||
          !parse_block_kind(kind->as_string(), blk.kind)) {
        return Status::error("fuzz spec: block with missing/unknown 'kind'");
      }
      if (bseed == nullptr || !bseed->is_string() ||
          !parse_hex_u64(bseed->as_string(), blk.seed)) {
        return Status::error("fuzz spec: block with missing/invalid 'seed'");
      }
      blocks.push_back(blk);
    }
    out.harts.push_back(std::move(blocks));
  }
  return Status::ok();
}

} // namespace sch::fuzz
