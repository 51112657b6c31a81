// Assembler tests: syntax coverage, labels, pseudo-instructions, data
// directives, error reporting, and the paper's Fig. 1 listings verbatim.
#include <gtest/gtest.h>

#include <cstring>

#include "asm/assembler.hpp"
#include "asm/builder.hpp"
#include "isa/decode.hpp"
#include "isa/disasm.hpp"
#include "isa/reg.hpp"

namespace sch {
namespace {

using assembler::assemble;

Program ok(std::string_view src) {
  auto r = assemble(src);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

std::string err(std::string_view src) {
  auto r = assemble(src);
  EXPECT_FALSE(r.ok());
  return r.ok() ? "" : r.status().message();
}

TEST(Assembler, EmptyAndComments) {
  const Program p = ok(R"(
  # a comment
  // another

)");
  EXPECT_EQ(p.num_instrs(), 0u);
}

TEST(Assembler, BasicArithmetic) {
  const Program p = ok(R"(add a0, a1, a2
addi t0, t1, -42
)");
  ASSERT_EQ(p.num_instrs(), 2u);
  EXPECT_EQ(isa::disassemble(p.instrs[0]), "add a0, a1, a2");
  EXPECT_EQ(isa::disassemble(p.instrs[1]), "addi t0, t1, -42");
}

TEST(Assembler, LoadsStores) {
  const Program p = ok(R"(
    lw a0, 8(sp)
    sw a0, -4(sp)
    fld ft0, 0(a1)
    fsd ft0, 16(a1)
    flw ft1, (a2)
  )");
  ASSERT_EQ(p.num_instrs(), 5u);
  EXPECT_EQ(p.instrs[0].imm, 8);
  EXPECT_EQ(p.instrs[1].imm, -4);
  EXPECT_EQ(p.instrs[4].imm, 0);
}

TEST(Assembler, BranchToLabelForwardAndBack) {
  const Program p = ok(R"(
loop:
    addi a0, a0, -1
    bnez a0, loop
    beq a1, a2, done
    nop
done:
    ret
  )");
  ASSERT_EQ(p.num_instrs(), 5u);
  EXPECT_EQ(p.instrs[1].imm, -4);  // back to loop
  EXPECT_EQ(p.instrs[2].imm, 8);   // forward over nop
}

TEST(Assembler, PaperFig1aBaseline) {
  // Fig. 1(a) with inline-asm style operands, verbatim modulo symbol defs.
  const Program p = ok(R"(
    .equ i, 11
    .equ len, 12
loop:
    fadd.d ft3, ft0, ft1
    fmul.d ft2, ft3, fa0
    addi %[i], %[i], 1
    bneq %[i], %[len], -12
  )");
  ASSERT_EQ(p.num_instrs(), 4u);
  EXPECT_EQ(isa::disassemble(p.instrs[0]), "fadd.d ft3, ft0, ft1");
  EXPECT_EQ(isa::disassemble(p.instrs[1]), "fmul.d ft2, ft3, fa0");
  // %[i] resolves to x11 == a1 via .equ.
  EXPECT_EQ(p.instrs[2].rd, isa::kA1);
  EXPECT_EQ(p.instrs[3].mn, isa::Mnemonic::kBne);
  EXPECT_EQ(p.instrs[3].imm, -12);
}

TEST(Assembler, PaperFig1cChaining) {
  const Program p = ok(R"(
    li t0, 8
    csrs 0x7C3, t0
    fadd.d ft3, ft0, ft1
    fadd.d ft3, ft0, ft1
    fadd.d ft3, ft0, ft1
    fadd.d ft3, ft0, ft1
    fmul.d ft2, ft3, fa0
    fmul.d ft2, ft3, fa0
    fmul.d ft2, ft3, fa0
    fmul.d ft2, ft3, fa0
    addi a1, a1, 4
    bneq a1, a2, -36
    csrs 0x7C3, x0
  )");
  ASSERT_EQ(p.num_instrs(), 13u);
  EXPECT_EQ(p.instrs[0].imm, 8); // li -> addi x5, x0, 8
  EXPECT_EQ(p.instrs[1].mn, isa::Mnemonic::kCsrrs);
  EXPECT_EQ(p.instrs[1].imm, 0x7C3);
}

TEST(Assembler, LiExpansions) {
  const Program p = ok(R"(
    li a0, 0
    li a1, 2047
    li a2, -2048
    li a3, 4096
    li a4, 0x12345678
    li a5, -1
  )");
  // 0, 2047, -2048, -1 -> 1 instr; 4096 -> lui only; 0x12345678 -> lui+addi.
  ASSERT_EQ(p.num_instrs(), 1 + 1 + 1 + 1 + 2 + 1u);
}

TEST(Assembler, LiValuesViaDecode) {
  const Program p = ok(R"(li a4, 0x12345678
li a5, -123456
)");
  // Verify lui+addi pairs reconstruct the constants.
  auto value_of = [&](usize first) -> u32 {
    u32 v = static_cast<u32>(p.instrs[first].imm) << 12;
    return v + static_cast<u32>(p.instrs[first + 1].imm);
  };
  EXPECT_EQ(value_of(0), 0x12345678u);
  EXPECT_EQ(value_of(2), static_cast<u32>(-123456));
}

TEST(Assembler, CsrNamesAndPseudo) {
  const Program p = ok(R"(
    csrr a0, fcsr
    csrw chain_mask, a1
    csrs ssr_enable, a2
    csrwi 0x7C0, 1
    csrsi chain_mask, 8
  )");
  ASSERT_EQ(p.num_instrs(), 5u);
  EXPECT_EQ(p.instrs[1].imm, 0x7C3);
  EXPECT_EQ(p.instrs[2].imm, 0x7C0);
  EXPECT_EQ(p.instrs[4].rs1, 8); // zimm
}

TEST(Assembler, CustomInstructions) {
  const Program p = ok(R"(
    frep.o t0, 4
    frep.i t1, 1
    scfgw a0, 9
    scfgr a1, 1
  )");
  ASSERT_EQ(p.num_instrs(), 4u);
  EXPECT_EQ(p.instrs[0].mn, isa::Mnemonic::kFrepO);
  EXPECT_EQ(p.instrs[0].imm, 4);
  EXPECT_EQ(p.instrs[2].mn, isa::Mnemonic::kScfgw);
}

TEST(Assembler, FpPseudo) {
  const Program p = ok(R"(
    fmv.d ft4, ft5
    fabs.d ft6, ft7
    fneg.d fa0, fa1
  )");
  ASSERT_EQ(p.num_instrs(), 3u);
  EXPECT_EQ(p.instrs[0].mn, isa::Mnemonic::kFsgnjD);
  EXPECT_EQ(p.instrs[1].mn, isa::Mnemonic::kFsgnjxD);
  EXPECT_EQ(p.instrs[2].mn, isa::Mnemonic::kFsgnjnD);
}

TEST(Assembler, DataDirectives) {
  const Program p = ok(R"(
    .data
coeffs:
    .double 1.0, 2.5, -0.5
values:
    .word 42, 0x10
idx:
    .half 1, 2, 3
    .text
    la a0, coeffs
    lw a1, 0(a0)
  )");
  EXPECT_EQ(p.symbol("coeffs"), memmap::kTcdmBase);
  EXPECT_EQ(p.symbol("values"), memmap::kTcdmBase + 24);
  EXPECT_EQ(p.symbol("idx"), memmap::kTcdmBase + 32);
  ASSERT_GE(p.data.size(), 38u);
  double d0;
  std::memcpy(&d0, p.data.data(), 8);
  EXPECT_EQ(d0, 1.0);
  double d2;
  std::memcpy(&d2, p.data.data() + 16, 8);
  EXPECT_EQ(d2, -0.5);
}

TEST(Assembler, AlignDirective) {
  const Program p = ok(R"(
    .data
    .byte 1
    .align 3
eight:
    .dword 7
  )");
  EXPECT_EQ(p.symbol("eight") % 8, 0u);
}

TEST(Assembler, Errors) {
  EXPECT_NE(err("bogus a0, a1\n"), "");
  EXPECT_NE(err("addi a0, a1\n"), "");            // missing imm
  EXPECT_NE(err("addi a0, a1, 5000\n"), "");      // imm out of range
  EXPECT_NE(err("jalr ra, a0, 5000\n"), "");      // jalr imm out of range
  EXPECT_NE(err("beq a0, a1, nowhere\n"), "");    // undefined label
  EXPECT_NE(err("x: nop\nx: nop\n"), "");         // duplicate label
  EXPECT_NE(err(".data\n.word 1\n.text\n.word 1\n"), ""); // data dir in text
  EXPECT_NE(err("lw a0, 99999(a1)\n"), "");       // offset out of range
  const std::string e = err("nop\naddi a0, a1, bad_sym\n");
  EXPECT_NE(e.find("line 2"), std::string::npos) << e;
}

TEST(Builder, MatchesAssembler) {
  ProgramBuilder b;
  b.label("loop");
  b.fadd_d(isa::kFt3, isa::kFt0, isa::kFt1);
  b.fmul_d(isa::kFt2, isa::kFt3, isa::kFa0);
  b.addi(isa::kA1, isa::kA1, 1);
  b.bne(isa::kA1, isa::kA2, "loop");
  const Program bp = b.build();

  const Program ap = ok(R"(
loop:
    fadd.d ft3, ft0, ft1
    fmul.d ft2, ft3, fa0
    addi a1, a1, 1
    bne a1, a2, loop
  )");
  ASSERT_EQ(bp.words.size(), ap.words.size());
  for (usize i = 0; i < bp.words.size(); ++i) {
    EXPECT_EQ(bp.words[i], ap.words[i]) << "word " << i;
  }
}

TEST(Builder, DataSegmentHelpers) {
  ProgramBuilder b;
  const Addr d = b.data_f64({1.0, 2.0});
  const Addr i16 = b.data_u16({3, 4, 5});
  const Addr z = b.data_zero(16);
  b.data_label("end");
  b.nop();
  const Program p = b.build();
  EXPECT_EQ(d, memmap::kTcdmBase);
  EXPECT_EQ(i16, memmap::kTcdmBase + 16);
  EXPECT_EQ(z, memmap::kTcdmBase + 22);
  EXPECT_EQ(p.symbol("end"), memmap::kTcdmBase + 38);
}

TEST(Builder, ForwardLabelBackpatch) {
  ProgramBuilder b;
  b.beq(isa::kA0, isa::kA1, "skip");
  b.nop();
  b.nop();
  b.label("skip");
  b.ret();
  const Program p = b.build();
  EXPECT_EQ(p.instrs[0].imm, 12);
}

TEST(Builder, UndefinedLabelThrows) {
  ProgramBuilder b;
  b.j("nowhere");
  EXPECT_THROW(b.build(), std::invalid_argument);
}

} // namespace
} // namespace sch
