// FREP sequencer unit tests: capture/replay for outer and inner modes,
// buffer-limit rejection, marker consumption. (Empty and nested bodies never
// reach the sequencer: the integer core fails them first, pinned by the
// frep_* failure records and Predecode.FrepBodyErrorNamesTheFirstDefect.)
#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "isa/encode.hpp"
#include "isa/predecode.hpp"
#include "sim/sequencer.hpp"

namespace sch::sim {
namespace {

using isa::Mnemonic;

/// An FpOp points at its instruction and predecoded record, as ops from a
/// core point into its Program; this store keeps them alive.
FpOp fp_op(isa::Instr in, u32 int_operand = 0) {
  static std::deque<std::pair<isa::Instr, isa::PredecodedInstr>> program;
  const auto& [instr, pre] = program.emplace_back(in, isa::predecode(in));
  FpOp op;
  op.in = &instr;
  op.pre = &pre;
  op.int_operand = int_operand;
  return op;
}

FpOp fadd(u8 rd) { return fp_op(isa::make_r(Mnemonic::kFaddD, rd, 0, 1)); }
FpOp fmul(u8 rd) { return fp_op(isa::make_r(Mnemonic::kFmulD, rd, 3, 10)); }
FpOp frep_o(u32 reps_minus_1, i32 body) {
  return fp_op(isa::make_i(Mnemonic::kFrepO, 0, 5, body), reps_minus_1);
}
FpOp frep_i(u32 reps_minus_1, i32 body) {
  return fp_op(isa::make_i(Mnemonic::kFrepI, 0, 5, body), reps_minus_1);
}

std::vector<Mnemonic> drain(Sequencer& s, usize limit = 100) {
  std::vector<Mnemonic> out;
  while (out.size() < limit) {
    auto op = s.front();
    if (!op) break;
    out.push_back(op->in->mn);
    s.pop_front();
  }
  return out;
}

TEST(Sequencer, PassThroughWithoutFrep) {
  Sequencer s(8, 16);
  s.push(fadd(3));
  s.push(fmul(2));
  const auto ops = drain(s);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0], Mnemonic::kFaddD);
  EXPECT_EQ(ops[1], Mnemonic::kFmulD);
  EXPECT_TRUE(s.idle());
}

TEST(Sequencer, FrepOuterReplays) {
  Sequencer s(8, 16);
  s.push(frep_o(2, 2)); // body of 2, 3 passes
  s.push(fadd(3));
  s.push(fmul(2));
  const auto ops = drain(s);
  ASSERT_EQ(ops.size(), 6u);
  const std::vector<Mnemonic> expect = {Mnemonic::kFaddD, Mnemonic::kFmulD,
                                        Mnemonic::kFaddD, Mnemonic::kFmulD,
                                        Mnemonic::kFaddD, Mnemonic::kFmulD};
  EXPECT_EQ(ops, expect);
  EXPECT_EQ(s.stats().replayed_ops, 4u);
  EXPECT_EQ(s.stats().freps_executed, 1u);
  EXPECT_TRUE(s.idle());
}

TEST(Sequencer, FrepInnerRepeatsEachInstr) {
  Sequencer s(8, 16);
  s.push(frep_i(2, 2));
  s.push(fadd(3));
  s.push(fmul(2));
  const auto ops = drain(s);
  const std::vector<Mnemonic> expect = {Mnemonic::kFaddD, Mnemonic::kFaddD,
                                        Mnemonic::kFaddD, Mnemonic::kFmulD,
                                        Mnemonic::kFmulD, Mnemonic::kFmulD};
  EXPECT_EQ(ops, expect);
  EXPECT_TRUE(s.idle());
}

TEST(Sequencer, SinglePassFrepIsPassThrough) {
  Sequencer s(8, 16);
  s.push(frep_o(0, 2)); // rs1 = 0 -> one pass
  s.push(fadd(3));
  s.push(fmul(2));
  const auto ops = drain(s);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(s.idle());
  EXPECT_EQ(s.stats().replayed_ops, 0u);
}

TEST(Sequencer, ReplayWhileQueueFills) {
  Sequencer s(8, 16);
  s.push(frep_o(3, 1)); // 4 passes of one fadd
  s.push(fadd(3));
  // Post-loop op arrives while replay is pending.
  s.push(fmul(2));
  const auto ops = drain(s);
  ASSERT_EQ(ops.size(), 5u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ops[i], Mnemonic::kFaddD);
  EXPECT_EQ(ops[4], Mnemonic::kFmulD);
}

TEST(Sequencer, BodyLargerThanBufferIsError) {
  Sequencer s(8, 4);
  s.push(frep_o(1, 5));
  s.push(fadd(3));
  EXPECT_EQ(s.front(), std::nullopt);
  EXPECT_TRUE(s.has_error());
  EXPECT_NE(s.error().find("sequencer buffer"), std::string::npos);
}

} // namespace
} // namespace sch::sim
