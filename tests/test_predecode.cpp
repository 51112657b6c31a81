// The predecoded FP source plan: the distinct FP registers an instruction's
// rs1/rs2/rs3 slots name, in that order, and each slot's index into them.
// Both engines and the verifier read FP sources only through this plan, so
// it alone decides which stream and chain registers an instruction pops
// and how often (once per distinct register). Also the integer-operand and
// FP-barrier flags the cycle engine's integer issue path reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "isa/csr.hpp"
#include "isa/encode.hpp"
#include "isa/predecode.hpp"

namespace sch::isa {
namespace {

struct Pattern {
  const char* name;
  u8 rs1, rs2, rs3;
};

constexpr Pattern kPatterns[] = {
    {"all distinct", 3, 4, 5}, {"rs1==rs2", 3, 3, 5}, {"rs1==rs3", 3, 4, 3},
    {"rs2==rs3", 3, 4, 4},     {"all equal", 3, 3, 3},
};

TEST(Predecode, FpSourcePlan) {
  u32 fp_rows = 0;
  for (u16 m = 1; m < static_cast<u16>(Mnemonic::kCount); ++m) {
    const MnemonicInfo& mi = info(static_cast<Mnemonic>(m));
    if (!mi.fp_domain) continue;
    ++fp_rows;
    const RegClass classes[3] = {mi.rs1, mi.rs2, mi.rs3};
    for (const Pattern& pat : kPatterns) {
      Instr in;
      in.mn = static_cast<Mnemonic>(m);
      in.rd = 6;
      in.rs1 = pat.rs1;
      in.rs2 = pat.rs2;
      in.rs3 = pat.rs3;
      const u8 regs[3] = {pat.rs1, pat.rs2, pat.rs3};
      // The rule: FP slots in rs1/rs2/rs3 order, keeping each register's
      // first occurrence.
      std::vector<u8> want;
      for (u32 s = 0; s < 3; ++s) {
        if (classes[s] == RegClass::kFp &&
            std::find(want.begin(), want.end(), regs[s]) == want.end()) {
          want.push_back(regs[s]);
        }
      }
      const PredecodedInstr p = predecode(in);
      SCOPED_TRACE(std::string(mi.name) + ", " + pat.name);
      ASSERT_EQ(p.n_fp_srcs, want.size());
      for (u32 i = 0; i < want.size(); ++i) EXPECT_EQ(p.fp_srcs[i], want[i]);
      for (u32 s = 0; s < 3; ++s) {
        if (classes[s] != RegClass::kFp) {
          EXPECT_EQ(p.fp_slot[s], kNoFpSlot) << "slot " << s;
        } else {
          ASSERT_LT(p.fp_slot[s], p.n_fp_srcs) << "slot " << s;
          EXPECT_EQ(p.fp_srcs[p.fp_slot[s]], regs[s]) << "slot " << s;
        }
      }
    }
  }
  EXPECT_GT(fp_rows, 40u);  // the F/D extension rows are all in
}

TEST(Predecode, FpSourcePlanExamples) {
  // fmadd.d f6, f3, f4, f3: f3 is popped once and feeds rs1 and rs3.
  PredecodedInstr p = predecode(make_r4(Mnemonic::kFmaddD, 6, 3, 4, 3));
  EXPECT_EQ(p.n_fp_srcs, 2);
  EXPECT_EQ(p.fp_srcs[0], 3);
  EXPECT_EQ(p.fp_srcs[1], 4);
  EXPECT_EQ(p.fp_slot[0], 0);
  EXPECT_EQ(p.fp_slot[1], 1);
  EXPECT_EQ(p.fp_slot[2], 0);

  // fmv.d ft3, ft0 (fsgnj.d ft3, ft0, ft0): one pop of the stream.
  p = predecode(make_r(Mnemonic::kFsgnjD, 3, 0, 0));
  EXPECT_EQ(p.n_fp_srcs, 1);
  EXPECT_EQ(p.fp_slot[0], 0);
  EXPECT_EQ(p.fp_slot[1], 0);
  EXPECT_EQ(p.fp_slot[2], kNoFpSlot);

  // fsd f2, 8(a0): the only FP source sits in rs2.
  p = predecode(make_s(Mnemonic::kFsd, 10, 2, 8));
  EXPECT_EQ(p.n_fp_srcs, 1);
  EXPECT_EQ(p.fp_srcs[0], 2);
  EXPECT_EQ(p.fp_slot[0], kNoFpSlot);
  EXPECT_EQ(p.fp_slot[1], 0);

  // fcvt.d.w reads an integer register; fld reads none from the FP file.
  EXPECT_EQ(predecode(make_r(Mnemonic::kFcvtDW, 3, 5, 0)).n_fp_srcs, 0);
  EXPECT_EQ(predecode(make_i(Mnemonic::kFld, 3, 10, 0)).n_fp_srcs, 0);
}

TEST(Predecode, NonFpRowsHaveNoPlan) {
  for (u16 m = 1; m < static_cast<u16>(Mnemonic::kCount); ++m) {
    const MnemonicInfo& mi = info(static_cast<Mnemonic>(m));
    if (mi.rs1 == RegClass::kFp || mi.rs2 == RegClass::kFp ||
        mi.rs3 == RegClass::kFp) {
      continue;
    }
    Instr in;
    in.mn = static_cast<Mnemonic>(m);
    in.rs1 = 1;
    in.rs2 = 2;
    in.rs3 = 3;
    EXPECT_EQ(predecode(in).n_fp_srcs, 0) << mi.name;
  }
}

TEST(Predecode, FrepBodyErrorNamesTheFirstDefect) {
  const auto pre_of = [](const std::vector<Instr>& text) {
    std::vector<PredecodedInstr> pre;
    for (const Instr& in : text) pre.push_back(predecode(in));
    link_superblocks(pre);
    return pre;
  };
  const Instr fadd = make_r(Mnemonic::kFaddD, 3, 1, 2);
  const Instr addi = make_i(Mnemonic::kAddi, 5, 5, 1);
  const auto frep = [](i32 body) { return make_i(Mnemonic::kFrepO, 0, 5, body); };

  std::vector<PredecodedInstr> pre = pre_of({frep(2), fadd, fadd});
  EXPECT_EQ(frep_body_error(pre, 0), "");
  EXPECT_NE(pre[0].flags & preflag::kFrepBodyOk, 0);

  pre = pre_of({frep(0), fadd});
  EXPECT_EQ(frep_body_error(pre, 0), "frep with empty body");
  EXPECT_EQ(pre[0].flags & preflag::kFrepBodyOk, 0);

  pre = pre_of({frep(2), fadd, addi});
  EXPECT_EQ(frep_body_error(pre, 0),
            "frep body contains a non-FP instruction at offset 1");

  pre = pre_of({frep(3), fadd});  // runs past the end of the text
  EXPECT_EQ(frep_body_error(pre, 0),
            "frep body contains a non-FP instruction at offset 1");

  pre = pre_of({frep(2), frep(1), fadd});
  EXPECT_EQ(frep_body_error(pre, 0), "nested frep");
  EXPECT_EQ(pre[0].flags & preflag::kFrepBodyOk, 0);
}

TEST(Predecode, IntOperandFlags) {
  const auto has = [](const PredecodedInstr& p, u8 bit) {
    return (p.flags & bit) != 0;
  };
  u32 csr_rows = 0;
  for (u16 m = 1; m < static_cast<u16>(Mnemonic::kCount); ++m) {
    const auto mn = static_cast<Mnemonic>(m);
    const MnemonicInfo& mi = info(mn);
    SCOPED_TRACE(mi.name);
    Instr in;
    in.mn = mn;
    in.rd = 5;
    in.rs1 = 6;
    in.rs2 = 7;
    const PredecodedInstr p = predecode(in);
    EXPECT_EQ(has(p, preflag::kRdInt), mi.rd == RegClass::kInt);
    EXPECT_EQ(has(p, preflag::kRs1Int), mi.rs1 == RegClass::kInt);
    EXPECT_EQ(has(p, preflag::kRs2Int), mi.rs2 == RegClass::kInt);
    if (mi.exec != ExecClass::kCsr) {
      EXPECT_EQ(has(p, preflag::kFpBarrier), mn == Mnemonic::kFence);
      continue;
    }
    // A CSR access waits for the FP subsystem exactly when it names one of
    // the stream/chaining CSRs.
    ++csr_rows;
    for (u32 addr = 0; addr < 0x1000; ++addr) {
      in.imm = static_cast<i32>(addr);
      EXPECT_EQ(has(predecode(in), preflag::kFpBarrier),
                csr::is_stream_csr(addr))
          << "csr 0x" << std::hex << addr;
    }
  }
  EXPECT_EQ(csr_rows, 6u);
  EXPECT_TRUE(csr::is_stream_csr(csr::kSsrEnable));
  EXPECT_TRUE(csr::is_stream_csr(csr::kChainMask));
  EXPECT_FALSE(csr::is_stream_csr(csr::kMhartid));
  EXPECT_FALSE(csr::is_stream_csr(csr::kFcsr));
}

TEST(Predecode, IllegalEncodingMessagePrintsTheWordInHex) {
  EXPECT_EQ(illegal_encoding_message(0xFFFFFFFFu),
            "illegal instruction encoding 0xffffffff");
  EXPECT_EQ(illegal_encoding_message(0x7Fu), "illegal instruction encoding 0x0000007f");
}

} // namespace
} // namespace sch::isa
