#include "isa/encode.hpp"

#include <cassert>
#include <stdexcept>

#include "common/bitfield.hpp"

namespace sch::isa {
namespace {

/// The immediate's bits at their places in the word.
u32 place_imm(ImmKind kind, i32 imm) {
  const u32 u = static_cast<u32>(imm);
  switch (kind) {
    case ImmKind::kNone:
      return 0;
    case ImmKind::kI:
      assert(fits_simm(imm, 12));
      return place(u, 12, 20);
    case ImmKind::kS:
      assert(fits_simm(imm, 12));
      return place(bits(u, 11, 5), 7, 25) | place(bits(u, 4, 0), 5, 7);
    case ImmKind::kB:
      assert(fits_simm(imm, 13) && (imm & 1) == 0);
      return place(bit(u, 12), 1, 31) | place(bits(u, 10, 5), 6, 25) |
             place(bits(u, 4, 1), 4, 8) | place(bit(u, 11), 1, 7);
    case ImmKind::kU:
      return place(u, 20, 12);
    case ImmKind::kJ:
      assert(fits_simm(imm, 21) && (imm & 1) == 0);
      return place(bit(u, 20), 1, 31) | place(bits(u, 10, 1), 10, 21) |
             place(bit(u, 11), 1, 20) | place(bits(u, 19, 12), 8, 12);
    case ImmKind::kShamt:
      return place(u, 5, 20);
    case ImmKind::kCsr:
      return place(u, 12, 20);
  }
  return 0;
}

} // namespace

u32 encode(const Instr& in) {
  if (!in.valid()) throw std::logic_error("encode: invalid mnemonic");
  const MnemonicInfo& mi = info(in.mn);
  u32 operands = place_imm(mi.imm, in.imm);
  if (mi.rd != RegClass::kNone) operands |= place(in.rd, 5, 7);
  if (mi.rs1 != RegClass::kNone) operands |= place(in.rs1, 5, 15);
  if (mi.rs2 != RegClass::kNone) operands |= place(in.rs2, 5, 20);
  if (mi.rs3 != RegClass::kNone) operands |= place(in.rs3, 5, 27);
  if (mi.has_rm) operands |= place(in.rm, 3, 12);
  return mi.match | (operands & ~mi.mask);
}

Instr make_r(Mnemonic mn, u8 rd, u8 rs1, u8 rs2, u8 rm) {
  Instr i;
  i.mn = mn; i.rd = rd; i.rs1 = rs1; i.rs2 = rs2; i.rm = rm;
  i.raw = encode(i);
  return i;
}

Instr make_r4(Mnemonic mn, u8 rd, u8 rs1, u8 rs2, u8 rs3, u8 rm) {
  Instr i;
  i.mn = mn; i.rd = rd; i.rs1 = rs1; i.rs2 = rs2; i.rs3 = rs3; i.rm = rm;
  i.raw = encode(i);
  return i;
}

Instr make_i(Mnemonic mn, u8 rd, u8 rs1, i32 imm) {
  Instr i;
  i.mn = mn; i.rd = rd; i.rs1 = rs1; i.imm = imm;
  i.raw = encode(i);
  return i;
}

Instr make_s(Mnemonic mn, u8 rs1, u8 rs2, i32 imm) {
  Instr i;
  i.mn = mn; i.rs1 = rs1; i.rs2 = rs2; i.imm = imm;
  i.raw = encode(i);
  return i;
}

Instr make_b(Mnemonic mn, u8 rs1, u8 rs2, i32 offset) {
  Instr i;
  i.mn = mn; i.rs1 = rs1; i.rs2 = rs2; i.imm = offset;
  i.raw = encode(i);
  return i;
}

Instr make_u(Mnemonic mn, u8 rd, i32 imm20) {
  Instr i;
  i.mn = mn; i.rd = rd; i.imm = imm20;
  i.raw = encode(i);
  return i;
}

Instr make_j(Mnemonic mn, u8 rd, i32 offset) {
  Instr i;
  i.mn = mn; i.rd = rd; i.imm = offset;
  i.raw = encode(i);
  return i;
}

Instr make_csr(Mnemonic mn, u8 rd, u8 rs1_or_zimm, u32 csr_addr) {
  Instr i;
  i.mn = mn; i.rd = rd; i.rs1 = rs1_or_zimm; i.imm = static_cast<i32>(csr_addr);
  i.raw = encode(i);
  return i;
}

} // namespace sch::isa
