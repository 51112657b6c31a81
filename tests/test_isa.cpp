// ISA layer tests: encode/decode round-trips across the whole mnemonic space,
// immediate field boundaries, disassembly spot checks and self-checks of the
// ISA table's match/mask rows.
#include <gtest/gtest.h>

#include <vector>

#include "common/bitfield.hpp"
#include "isa/decode.hpp"
#include "isa/disasm.hpp"
#include "isa/encode.hpp"
#include "isa/reg.hpp"

namespace sch::isa {
namespace {

TEST(RegNames, IntRoundTrip) {
  for (u8 r = 0; r < kNumIntRegs; ++r) {
    const auto name = int_reg_name(r);
    const auto parsed = parse_int_reg(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, r);
  }
}

TEST(RegNames, FpRoundTrip) {
  for (u8 r = 0; r < kNumFpRegs; ++r) {
    const auto name = fp_reg_name(r);
    const auto parsed = parse_fp_reg(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, r);
  }
}

TEST(RegNames, NumericForms) {
  EXPECT_EQ(parse_int_reg("x0"), 0);
  EXPECT_EQ(parse_int_reg("x31"), 31);
  EXPECT_EQ(parse_int_reg("x32"), std::nullopt);
  EXPECT_EQ(parse_fp_reg("f3"), 3);
  EXPECT_EQ(parse_int_reg("fp"), 8);
  EXPECT_EQ(parse_int_reg("bogus"), std::nullopt);
}

TEST(Encode, PaperListingInstructions) {
  // Instructions from Fig. 1 of the paper.
  const Instr fadd = make_r(Mnemonic::kFaddD, kFt3, kFt0, kFt1);
  const Instr fmul = make_r(Mnemonic::kFmulD, kFt2, kFt3, kFa0);
  const Instr addi = make_i(Mnemonic::kAddi, kA1, kA1, 1);
  const Instr bne = make_b(Mnemonic::kBne, kA1, kA2, -12);

  EXPECT_EQ(decode(fadd.raw), fadd);
  EXPECT_EQ(decode(fmul.raw), fmul);
  EXPECT_EQ(decode(addi.raw), addi);
  EXPECT_EQ(decode(bne.raw), bne);
}

TEST(Decode, InvalidEncodings) {
  EXPECT_FALSE(decode(0x0000'0000).valid());
  EXPECT_FALSE(decode(0xFFFF'FFFF).valid());
  // OP-FP with fmt=2 (reserved).
  EXPECT_FALSE(decode(0x0400'0053 | (2u << 25)).valid());
}

/// Boundary and interior values of an immediate kind.
std::vector<i32> imm_sweep(ImmKind kind) {
  switch (kind) {
    case ImmKind::kI:
    case ImmKind::kS: return {-2048, -1, 0, 1, 2047};
    case ImmKind::kB: return {-4096, -12, 0, 36, 4094};
    case ImmKind::kU: return {0, 1, 0xFFFFF};
    case ImmKind::kJ: return {-1048576, -4, 0, 1048574};
    case ImmKind::kShamt: return {0, 1, 31};
    case ImmKind::kCsr: return {0x001, 0x7C0, 0x7C3, 0xC00, 0xFFF};
    case ImmKind::kNone: break;
  }
  return {0};
}

// Round-trip over every mnemonic with a sweep of the operand fields its
// layout carries: decode must return the whole instruction, with every
// field outside the layout zero.
class RoundTrip : public ::testing::TestWithParam<u16> {};

TEST_P(RoundTrip, EncodeDecodeIdentity) {
  const auto mn = static_cast<Mnemonic>(GetParam());
  const MnemonicInfo& mi = info(mn);

  std::vector<Instr> cases(1);
  cases[0].mn = mn;
  // Cross one layout field's values with the cases built so far.
  auto sweep = [&cases](bool in_layout, const std::vector<i32>& values, auto set) {
    if (!in_layout) return;
    std::vector<Instr> crossed;
    for (const Instr& c : cases) {
      for (i32 v : values) {
        Instr x = c;
        set(x, v);
        crossed.push_back(x);
      }
    }
    cases = std::move(crossed);
  };
  const std::vector<i32> regs = {0, 7, 31};
  sweep(mi.rd != RegClass::kNone, regs, [](Instr& x, i32 v) { x.rd = static_cast<u8>(v); });
  sweep(mi.rs1 != RegClass::kNone, regs, [](Instr& x, i32 v) { x.rs1 = static_cast<u8>(v); });
  sweep(mi.rs2 != RegClass::kNone, regs, [](Instr& x, i32 v) { x.rs2 = static_cast<u8>(v); });
  sweep(mi.rs3 != RegClass::kNone, regs, [](Instr& x, i32 v) { x.rs3 = static_cast<u8>(v); });
  sweep(mi.has_rm, {0, 3, 7}, [](Instr& x, i32 v) { x.rm = static_cast<u8>(v); });
  sweep(mi.imm != ImmKind::kNone, imm_sweep(mi.imm), [](Instr& x, i32 v) { x.imm = v; });

  for (const Instr& in : cases) {
    const u32 word = encode(in);
    Instr want = in;
    // Where the mask fixes funct3, decode reports the fixed bits as rm.
    if (mi.has_rm && (mi.mask & 0x7000u) != 0) want.rm = static_cast<u8>(bits(mi.match, 14, 12));
    const Instr out = decode(word);
    ASSERT_TRUE(out.valid()) << name(mn) << " raw=0x" << std::hex << word;
    EXPECT_EQ(out, want) << disassemble(in) << " -> " << disassemble(out);
    EXPECT_EQ(out.raw, word) << name(mn);
    EXPECT_EQ(encode(out), word) << name(mn);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMnemonics, RoundTrip,
                         ::testing::Range<u16>(1, static_cast<u16>(Mnemonic::kCount)),
                         [](const ::testing::TestParamInfo<u16>& pi) {
                           std::string n{name(static_cast<Mnemonic>(pi.param))};
                           for (char& c : n) {
                             if (c == '.') c = '_';
                           }
                           return n;
                         });

TEST(Disasm, CanonicalSpellings) {
  EXPECT_EQ(disassemble(make_r(Mnemonic::kFaddD, kFt3, kFt0, kFt1)),
            "fadd.d ft3, ft0, ft1");
  EXPECT_EQ(disassemble(make_r4(Mnemonic::kFmaddD, kFt3, kFt0, kFt1, kFt3)),
            "fmadd.d ft3, ft0, ft1, ft3");
  EXPECT_EQ(disassemble(make_i(Mnemonic::kAddi, kA0, kA0, -1)),
            "addi a0, a0, -1");
  EXPECT_EQ(disassemble(make_i(Mnemonic::kFld, kFt4, kSp, 16)),
            "fld ft4, 16(sp)");
  EXPECT_EQ(disassemble(make_s(Mnemonic::kFsd, kSp, kFt4, -8)),
            "fsd ft4, -8(sp)");
  EXPECT_EQ(disassemble(make_b(Mnemonic::kBne, kA1, kA2, -12)),
            "bne a1, a2, -12");
  EXPECT_EQ(disassemble(make_i(Mnemonic::kFrepO, 0, kT0, 4)), "frep.o t0, 4");
  EXPECT_EQ(disassemble(make_i(Mnemonic::kScfgw, 0, kT1, 9)), "scfgw t1, 9");
}

TEST(Disasm, InvalidRendersPlaceholder) {
  EXPECT_EQ(disassemble(u32{0}), "<invalid>");
}

TEST(Metadata, FpDomainFlags) {
  EXPECT_TRUE(info(Mnemonic::kFmaddD).fp_domain);
  EXPECT_TRUE(info(Mnemonic::kFld).fp_domain);
  EXPECT_TRUE(info(Mnemonic::kFsd).fp_domain);
  EXPECT_TRUE(info(Mnemonic::kFrepO).fp_domain);
  EXPECT_FALSE(info(Mnemonic::kAddi).fp_domain);
  EXPECT_FALSE(info(Mnemonic::kScfgw).fp_domain);
  EXPECT_FALSE(info(Mnemonic::kCsrrs).fp_domain);
}

TEST(Metadata, OperandClasses) {
  EXPECT_EQ(info(Mnemonic::kFmaddD).rs3, RegClass::kFp);
  EXPECT_EQ(info(Mnemonic::kFld).rs1, RegClass::kInt);
  EXPECT_EQ(info(Mnemonic::kFld).rd, RegClass::kFp);
  EXPECT_EQ(info(Mnemonic::kFsd).rs2, RegClass::kFp);
  EXPECT_EQ(info(Mnemonic::kFeqD).rd, RegClass::kInt);
  EXPECT_EQ(info(Mnemonic::kFcvtDW).rs1, RegClass::kInt);
  EXPECT_EQ(info(Mnemonic::kFcvtWD).rd, RegClass::kInt);
}

TEST(Metadata, MemBytes) {
  EXPECT_EQ(info(Mnemonic::kFld).mem_bytes, 8);
  EXPECT_EQ(info(Mnemonic::kFlw).mem_bytes, 4);
  EXPECT_EQ(info(Mnemonic::kLw).mem_bytes, 4);
  EXPECT_EQ(info(Mnemonic::kLh).mem_bytes, 2);
  EXPECT_EQ(info(Mnemonic::kSb).mem_bytes, 1);
}

// --- ISA table self-checks --------------------------------------------------

TEST(IsaTable, NoWordMatchesTwoRows) {
  for (u16 a = 1; a < static_cast<u16>(Mnemonic::kCount); ++a) {
    const MnemonicInfo& x = info(static_cast<Mnemonic>(a));
    for (u16 b = a + 1; b < static_cast<u16>(Mnemonic::kCount); ++b) {
      const MnemonicInfo& y = info(static_cast<Mnemonic>(b));
      EXPECT_NE((x.match ^ y.match) & x.mask & y.mask, 0u)
          << x.name << " and " << y.name << " accept the same word";
    }
  }
}

TEST(IsaTable, MatchLiesInsideMask) {
  for (u16 m = 1; m < static_cast<u16>(Mnemonic::kCount); ++m) {
    const MnemonicInfo& mi = info(static_cast<Mnemonic>(m));
    EXPECT_EQ(mi.match & ~mi.mask, 0u) << mi.name;
    EXPECT_EQ(mi.mask & 0x7Fu, 0x7Fu) << mi.name << ": opcode not fixed";
  }
}

TEST(IsaTable, OperandFieldsLieOutsideMask) {
  auto imm_field = [](ImmKind kind) -> u32 {
    switch (kind) {
      case ImmKind::kI:
      case ImmKind::kCsr: return 0xFFF00000u;
      case ImmKind::kS:
      case ImmKind::kB: return 0xFE000F80u;
      case ImmKind::kU:
      case ImmKind::kJ: return 0xFFFFF000u;
      case ImmKind::kShamt: return 0x01F00000u;
      case ImmKind::kNone: break;
    }
    return 0;
  };
  for (u16 m = 1; m < static_cast<u16>(Mnemonic::kCount); ++m) {
    const MnemonicInfo& mi = info(static_cast<Mnemonic>(m));
    u32 fields = imm_field(mi.imm);
    if (mi.rd != RegClass::kNone) fields |= 0x00000F80u;
    if (mi.rs1 != RegClass::kNone) fields |= 0x000F8000u;
    if (mi.rs2 != RegClass::kNone) fields |= 0x01F00000u;
    if (mi.rs3 != RegClass::kNone) fields |= 0xF8000000u;
    // rm is the one field a mask may fix (funct3-selected OP-FP rows).
    EXPECT_EQ(fields & mi.mask, 0u) << mi.name;
  }
}

} // namespace
} // namespace sch::isa
