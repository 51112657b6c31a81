#include "asm/builder.hpp"

#include <bit>
#include <stdexcept>
#include <type_traits>

#include "common/bitfield.hpp"
#include "isa/decode.hpp"

namespace sch {

using isa::Instr;
using isa::Mnemonic;

namespace {

/// Append `values` to `data` as little-endian sizeof(T)-byte words, growing
/// the vector once.
template <typename T>
void append_le(std::vector<u8>& data, const std::vector<T>& values) {
  const usize at = data.size();
  data.resize(at + values.size() * sizeof(T));
  u8* out = data.data() + at;
  for (const T v : values) {
    u64 bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      bits = std::bit_cast<u64>(v);
    } else {
      bits = v;
    }
    for (usize i = 0; i < sizeof(T); ++i) *out++ = static_cast<u8>(bits >> (8 * i));
  }
}

} // namespace

ProgramBuilder::ProgramBuilder(Addr text_base, Addr data_base) {
  prog_.text_base = text_base;
  prog_.data_base = data_base;
}

void ProgramBuilder::label(const std::string& name) {
  if (prog_.symbols.count(name) != 0) {
    throw std::invalid_argument("duplicate label: " + name);
  }
  prog_.symbols[name] = here();
}

Addr ProgramBuilder::here() const {
  return prog_.text_base + static_cast<Addr>(prog_.words.size() * 4);
}

void ProgramBuilder::emit(Instr instr) {
  prog_.instrs.push_back(instr);
  prog_.words.push_back(instr.raw);
  prog_.source_lines.push_back(0);
}

// --- RV32I -------------------------------------------------------------------

void ProgramBuilder::lui(u8 rd, i32 imm20) { emit(isa::make_u(Mnemonic::kLui, rd, imm20)); }
void ProgramBuilder::auipc(u8 rd, i32 imm20) { emit(isa::make_u(Mnemonic::kAuipc, rd, imm20)); }

void ProgramBuilder::jal(u8 rd, const std::string& target) {
  fixups_.push_back({prog_.words.size(), target});
  emit(isa::make_j(Mnemonic::kJal, rd, 0));
}

void ProgramBuilder::jalr(u8 rd, u8 rs1, i32 imm) {
  emit(isa::make_i(Mnemonic::kJalr, rd, rs1, imm));
}

void ProgramBuilder::emit_branch(Mnemonic mn, u8 rs1, u8 rs2,
                                 const std::string& target) {
  fixups_.push_back({prog_.words.size(), target});
  emit(isa::make_b(mn, rs1, rs2, 0));
}

void ProgramBuilder::beq(u8 a, u8 b, const std::string& t) { emit_branch(Mnemonic::kBeq, a, b, t); }
void ProgramBuilder::bne(u8 a, u8 b, const std::string& t) { emit_branch(Mnemonic::kBne, a, b, t); }
void ProgramBuilder::blt(u8 a, u8 b, const std::string& t) { emit_branch(Mnemonic::kBlt, a, b, t); }
void ProgramBuilder::bge(u8 a, u8 b, const std::string& t) { emit_branch(Mnemonic::kBge, a, b, t); }
void ProgramBuilder::bltu(u8 a, u8 b, const std::string& t) { emit_branch(Mnemonic::kBltu, a, b, t); }
void ProgramBuilder::bgeu(u8 a, u8 b, const std::string& t) { emit_branch(Mnemonic::kBgeu, a, b, t); }

void ProgramBuilder::lw(u8 rd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kLw, rd, rs1, imm)); }
void ProgramBuilder::sw(u8 rs2, u8 rs1, i32 imm) { emit(isa::make_s(Mnemonic::kSw, rs1, rs2, imm)); }
void ProgramBuilder::addi(u8 rd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kAddi, rd, rs1, imm)); }
void ProgramBuilder::slti(u8 rd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kSlti, rd, rs1, imm)); }
void ProgramBuilder::sltiu(u8 rd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kSltiu, rd, rs1, imm)); }
void ProgramBuilder::xori(u8 rd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kXori, rd, rs1, imm)); }
void ProgramBuilder::ori(u8 rd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kOri, rd, rs1, imm)); }
void ProgramBuilder::andi(u8 rd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kAndi, rd, rs1, imm)); }
void ProgramBuilder::slli(u8 rd, u8 rs1, i32 s) { emit(isa::make_i(Mnemonic::kSlli, rd, rs1, s)); }
void ProgramBuilder::srli(u8 rd, u8 rs1, i32 s) { emit(isa::make_i(Mnemonic::kSrli, rd, rs1, s)); }
void ProgramBuilder::srai(u8 rd, u8 rs1, i32 s) { emit(isa::make_i(Mnemonic::kSrai, rd, rs1, s)); }
void ProgramBuilder::add(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kAdd, rd, rs1, rs2)); }
void ProgramBuilder::sub(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kSub, rd, rs1, rs2)); }
void ProgramBuilder::mul(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kMul, rd, rs1, rs2)); }
void ProgramBuilder::divu(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kDivu, rd, rs1, rs2)); }
void ProgramBuilder::remu(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kRemu, rd, rs1, rs2)); }
void ProgramBuilder::sll(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kSll, rd, rs1, rs2)); }
void ProgramBuilder::op_and(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kAnd, rd, rs1, rs2)); }
void ProgramBuilder::op_or(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kOr, rd, rs1, rs2)); }
void ProgramBuilder::op_xor(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kXor, rd, rs1, rs2)); }

// --- pseudo ------------------------------------------------------------------

void ProgramBuilder::nop() { addi(0, 0, 0); }

void ProgramBuilder::ecall() {
  Instr i;
  i.mn = Mnemonic::kEcall;
  i.raw = isa::encode(i);
  emit(i);
}

void ProgramBuilder::ebreak() {
  Instr i;
  i.mn = Mnemonic::kEbreak;
  i.raw = isa::encode(i);
  emit(i);
}

void ProgramBuilder::li(u8 rd, i64 value) {
  if (!fits_simm(value, 32) && !fits_uimm(value, 32)) {
    throw std::out_of_range("li: value does not fit 32 bits");
  }
  const i32 v = static_cast<i32>(value);
  if (fits_simm(v, 12)) {
    addi(rd, 0, v);
    return;
  }
  const i32 lo = sign_extend(static_cast<u32>(v) & 0xFFF, 12);
  const i32 hi = static_cast<i32>((static_cast<u32>(v - lo) >> 12) & 0xFFFFF);
  lui(rd, hi);
  if (lo != 0) addi(rd, rd, lo);
}

void ProgramBuilder::la(u8 rd, Addr addr) {
  const i32 v = static_cast<i32>(addr);
  const i32 lo = sign_extend(static_cast<u32>(v) & 0xFFF, 12);
  const i32 hi = static_cast<i32>((static_cast<u32>(v - lo) >> 12) & 0xFFFFF);
  lui(rd, hi);
  addi(rd, rd, lo);
}

void ProgramBuilder::mv(u8 rd, u8 rs1) { addi(rd, rs1, 0); }
void ProgramBuilder::j(const std::string& target) { jal(0, target); }
void ProgramBuilder::ret() { jalr(0, isa::kRa, 0); }
void ProgramBuilder::beqz(u8 rs1, const std::string& t) { beq(rs1, 0, t); }
void ProgramBuilder::bnez(u8 rs1, const std::string& t) { bne(rs1, 0, t); }

// --- CSR ------------------------------------------------------------------

void ProgramBuilder::csrrw(u8 rd, u32 csr, u8 rs1) { emit(isa::make_csr(Mnemonic::kCsrrw, rd, rs1, csr)); }
void ProgramBuilder::csrrs(u8 rd, u32 csr, u8 rs1) { emit(isa::make_csr(Mnemonic::kCsrrs, rd, rs1, csr)); }
void ProgramBuilder::csrrc(u8 rd, u32 csr, u8 rs1) { emit(isa::make_csr(Mnemonic::kCsrrc, rd, rs1, csr)); }
void ProgramBuilder::csrwi(u32 csr, u8 zimm) { emit(isa::make_csr(Mnemonic::kCsrrwi, 0, zimm, csr)); }
void ProgramBuilder::csrsi(u32 csr, u8 zimm) { emit(isa::make_csr(Mnemonic::kCsrrsi, 0, zimm, csr)); }
void ProgramBuilder::csrci(u32 csr, u8 zimm) { emit(isa::make_csr(Mnemonic::kCsrrci, 0, zimm, csr)); }

// --- FP ------------------------------------------------------------------

void ProgramBuilder::flw(u8 frd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kFlw, frd, rs1, imm)); }
void ProgramBuilder::fsw(u8 frs2, u8 rs1, i32 imm) { emit(isa::make_s(Mnemonic::kFsw, rs1, frs2, imm)); }
void ProgramBuilder::fld(u8 frd, u8 rs1, i32 imm) { emit(isa::make_i(Mnemonic::kFld, frd, rs1, imm)); }
void ProgramBuilder::fsd(u8 frs2, u8 rs1, i32 imm) { emit(isa::make_s(Mnemonic::kFsd, rs1, frs2, imm)); }

void ProgramBuilder::fadd_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFaddD, rd, a, b)); }
void ProgramBuilder::fsub_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFsubD, rd, a, b)); }
void ProgramBuilder::fmul_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFmulD, rd, a, b)); }
void ProgramBuilder::fdiv_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFdivD, rd, a, b)); }
void ProgramBuilder::fsqrt_d(u8 rd, u8 a) { emit(isa::make_r(Mnemonic::kFsqrtD, rd, a, 0)); }
void ProgramBuilder::fmadd_d(u8 rd, u8 a, u8 b, u8 c) { emit(isa::make_r4(Mnemonic::kFmaddD, rd, a, b, c)); }
void ProgramBuilder::fmsub_d(u8 rd, u8 a, u8 b, u8 c) { emit(isa::make_r4(Mnemonic::kFmsubD, rd, a, b, c)); }
void ProgramBuilder::fnmadd_d(u8 rd, u8 a, u8 b, u8 c) { emit(isa::make_r4(Mnemonic::kFnmaddD, rd, a, b, c)); }
void ProgramBuilder::fnmsub_d(u8 rd, u8 a, u8 b, u8 c) { emit(isa::make_r4(Mnemonic::kFnmsubD, rd, a, b, c)); }
void ProgramBuilder::fsgnj_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFsgnjD, rd, a, b)); }
void ProgramBuilder::fmin_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFminD, rd, a, b)); }
void ProgramBuilder::fmax_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFmaxD, rd, a, b)); }
void ProgramBuilder::fadd_s(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFaddS, rd, a, b)); }
void ProgramBuilder::fmul_s(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFmulS, rd, a, b)); }
void ProgramBuilder::fmadd_s(u8 rd, u8 a, u8 b, u8 c) { emit(isa::make_r4(Mnemonic::kFmaddS, rd, a, b, c)); }
void ProgramBuilder::fcvt_d_w(u8 frd, u8 rs1) { emit(isa::make_r(Mnemonic::kFcvtDW, frd, rs1, 0)); }
void ProgramBuilder::fcvt_w_d(u8 rd, u8 frs1) { emit(isa::make_r(Mnemonic::kFcvtWD, rd, frs1, 0)); }
void ProgramBuilder::fmv_x_w(u8 rd, u8 frs1) { emit(isa::make_r(Mnemonic::kFmvXW, rd, frs1, 0)); }
void ProgramBuilder::fmv_w_x(u8 frd, u8 rs1) { emit(isa::make_r(Mnemonic::kFmvWX, frd, rs1, 0)); }
void ProgramBuilder::feq_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFeqD, rd, a, b)); }
void ProgramBuilder::flt_d(u8 rd, u8 a, u8 b) { emit(isa::make_r(Mnemonic::kFltD, rd, a, b)); }

// --- custom --------------------------------------------------------------

void ProgramBuilder::frep_o(u8 rs1, i32 n_instr) { emit(isa::make_i(Mnemonic::kFrepO, 0, rs1, n_instr)); }
void ProgramBuilder::frep_i(u8 rs1, i32 n_instr) { emit(isa::make_i(Mnemonic::kFrepI, 0, rs1, n_instr)); }
void ProgramBuilder::scfgw(u8 rs1, i32 idx) { emit(isa::make_i(Mnemonic::kScfgw, 0, rs1, idx)); }
void ProgramBuilder::scfgr(u8 rd, i32 idx) { emit(isa::make_i(Mnemonic::kScfgr, rd, 0, idx)); }
void ProgramBuilder::dmsrc(u8 rs1) { emit(isa::make_i(Mnemonic::kDmSrc, 0, rs1, 0)); }
void ProgramBuilder::dmdst(u8 rs1) { emit(isa::make_i(Mnemonic::kDmDst, 0, rs1, 0)); }
void ProgramBuilder::dmstr(u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kDmStr, 0, rs1, rs2)); }
void ProgramBuilder::dmcpy(u8 rd, u8 rs1) { emit(isa::make_i(Mnemonic::kDmCpy, rd, rs1, 0)); }
void ProgramBuilder::dmcpy2d(u8 rd, u8 rs1, u8 rs2) { emit(isa::make_r(Mnemonic::kDmCpy2d, rd, rs1, rs2)); }
void ProgramBuilder::dmstat(u8 rd, i32 sel) { emit(isa::make_i(Mnemonic::kDmStat, rd, 0, sel)); }

// --- data ----------------------------------------------------------------

Addr ProgramBuilder::data_here() const {
  return prog_.data_base + static_cast<Addr>(prog_.data.size());
}

Addr ProgramBuilder::data_align(u32 align) {
  if (!is_pow2(align)) throw std::invalid_argument("data_align: not a power of two");
  prog_.data.resize((prog_.data.size() + align - 1) & ~usize{align - 1});
  return data_here();
}

Addr ProgramBuilder::data_f64(const std::vector<double>& values) {
  const Addr base = data_align(8);
  append_le(prog_.data, values);
  return base;
}

Addr ProgramBuilder::data_u32(const std::vector<u32>& values) {
  const Addr base = data_align(4);
  append_le(prog_.data, values);
  return base;
}

Addr ProgramBuilder::data_u16(const std::vector<u16>& values) {
  const Addr base = data_align(2);
  append_le(prog_.data, values);
  return base;
}

Addr ProgramBuilder::data_zero(u32 bytes) {
  const Addr base = data_here();
  prog_.data.insert(prog_.data.end(), bytes, 0);
  return base;
}

void ProgramBuilder::data_label(const std::string& name) {
  if (prog_.symbols.count(name) != 0) {
    throw std::invalid_argument("duplicate label: " + name);
  }
  prog_.symbols[name] = data_here();
}

// --- finalize --------------------------------------------------------------

Program ProgramBuilder::build() {
  for (const Fixup& fx : fixups_) {
    auto it = prog_.symbols.find(fx.label);
    if (it == prog_.symbols.end()) {
      throw std::invalid_argument("undefined label: " + fx.label);
    }
    const Addr pc = prog_.text_base + static_cast<Addr>(fx.word_index * 4);
    const i64 offset = static_cast<i64>(it->second) - static_cast<i64>(pc);
    isa::Instr& in = prog_.instrs[fx.word_index];
    const unsigned width = in.mn == Mnemonic::kJal ? 21 : 13;
    if (!fits_simm(offset, width)) {
      throw std::out_of_range("branch target out of range: " + fx.label);
    }
    in.imm = static_cast<i32>(offset);
    in.raw = isa::encode(in);
    prog_.words[fx.word_index] = in.raw;
  }
  fixups_.clear();
  prog_.predecode();
  return prog_;
}

} // namespace sch
