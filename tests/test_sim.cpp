// Cycle-level simulator tests: timing invariants (FPU latency, chaining
// throughput, backpressure), pseudo-dual-issue behaviour, FREP overlap,
// SSR timing integration, deadlock detection, and architectural
// cross-validation against the functional ISS.
#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "asm/builder.hpp"
#include "isa/csr.hpp"
#include "isa/encode.hpp"
#include "iss/exec_semantics.hpp"
#include "iss/iss.hpp"
#include "mem/memory.hpp"
#include "sim/simulator.hpp"

namespace sch {
namespace {

constexpr Addr kD = memmap::kTcdmBase;

Program prog(std::string_view src) {
  auto r = assembler::assemble(src);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

struct SimRun {
  HaltReason halt;
  Cycle cycles;
  sim::PerfCounters perf;
  ArchState state;
  std::string error;
};

SimRun run_sim(const Program& p, Memory& mem, sim::SimConfig cfg = {}) {
  sim::Simulator s(p, mem, cfg);
  const HaltReason h = s.run();
  return {h, s.cycles(), s.perf(), s.arch_state(), s.error()};
}

SimRun run_sim_src(std::string_view src, Memory& mem, sim::SimConfig cfg = {}) {
  return run_sim(prog(src), mem, cfg);
}

/// Run on both engines; compare x-regs, FP regs, and a memory window.
void cross_validate(std::string_view src, Addr mem_base = kD, u32 mem_bytes = 256) {
  const Program p = prog(src);
  Memory mem_iss;
  Iss iss(p, mem_iss);
  const HaltReason hi = iss.run();
  ASSERT_EQ(hi, HaltReason::kEcall) << "ISS: " << iss.error();

  Memory mem_sim;
  sim::Simulator simulator(p, mem_sim);
  const HaltReason hs = simulator.run();
  ASSERT_EQ(hs, HaltReason::kEcall) << "sim: " << simulator.error();

  const ArchState& a = iss.state();
  const ArchState b = simulator.arch_state();
  for (u8 r = 0; r < isa::kNumIntRegs; ++r) {
    EXPECT_EQ(a.x[r], b.x[r]) << "x" << static_cast<int>(r);
  }
  for (u8 r = 0; r < isa::kNumFpRegs; ++r) {
    EXPECT_EQ(a.f[r], b.f[r]) << "f" << static_cast<int>(r);
  }
  EXPECT_EQ(mem_iss.read_block(mem_base, mem_bytes),
            mem_sim.read_block(mem_base, mem_bytes));
}

TEST(SimBasic, IntProgramHalts) {
  Memory mem;
  const auto r = run_sim_src(R"(
    li a0, 20
    li a1, 22
    add a2, a0, a1
    ecall
  )", mem);
  EXPECT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(r.state.x[isa::kA2], 42u);
  EXPECT_GE(r.cycles, 4u);
  EXPECT_LE(r.cycles, 8u);
}

TEST(SimBasic, BranchPenaltyAccounting) {
  Memory mem;
  // 10-iteration countdown: 10 taken branches (9 back + final not-taken...).
  const auto r = run_sim_src(R"(
    li a0, 10
loop:
    addi a0, a0, -1
    bnez a0, loop
    ecall
  )", mem);
  EXPECT_EQ(r.halt, HaltReason::kEcall);
  EXPECT_EQ(r.perf.branches, 10u);
  EXPECT_EQ(r.perf.branch_bubbles, 9u); // 9 taken, 1 fall-through
}

TEST(SimBasic, LoadUseLatency) {
  Memory mem;
  // Dependent use right after a load: expect a stall.
  const auto r = run_sim_src(R"(
    .data
v: .word 5
    .text
    la a0, v
    lw a1, 0(a0)
    addi a2, a1, 1
    ecall
  )", mem);
  EXPECT_EQ(r.halt, HaltReason::kEcall);
  EXPECT_EQ(r.state.x[isa::kA2], 6u);
  EXPECT_GE(r.perf.stall_int_raw, 1u); // load-use bubble
}

// Differential RAW-latency measurement: identical programs except the fmul's
// dependence on the fadd; the stall-count delta isolates the FPU RAW window
// from the fld->fadd load-use stall.
namespace {
const char* kDependentSrc = R"(
    .data
v: .double 1.0, 2.0
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    fadd.d ft3, ft0, ft1
    fmul.d ft4, ft3, ft1
    ecall
)";
const char* kIndependentSrc = R"(
    .data
v: .double 1.0, 2.0
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    fadd.d ft3, ft0, ft1
    fmul.d ft4, ft0, ft1
    ecall
)";
} // namespace

TEST(SimTiming, RawStallEqualsFpuDepth) {
  // The dependent fmul waits depth+1 cycles after the fadd issues; with the
  // 3-stage FPU the paper counts exactly 3 wasted cycles (Fig. 1a).
  Memory m1, m2;
  const auto dep = run_sim_src(kDependentSrc, m1);
  const auto ind = run_sim_src(kIndependentSrc, m2);
  ASSERT_EQ(dep.halt, HaltReason::kEcall) << dep.error;
  ASSERT_EQ(ind.halt, HaltReason::kEcall) << ind.error;
  EXPECT_EQ(dep.perf.stall_fp_raw - ind.perf.stall_fp_raw, 3u);
}

TEST(SimTiming, DeeperPipelineMeansMoreStall) {
  for (u32 depth : {1u, 2u, 4u, 6u}) {
    Memory m1, m2;
    sim::SimConfig cfg;
    cfg.fpu_depth = depth;
    const auto dep = run_sim_src(kDependentSrc, m1, cfg);
    const auto ind = run_sim_src(kIndependentSrc, m2, cfg);
    ASSERT_EQ(dep.halt, HaltReason::kEcall) << dep.error;
    ASSERT_EQ(ind.halt, HaltReason::kEcall) << ind.error;
    EXPECT_EQ(dep.perf.stall_fp_raw - ind.perf.stall_fp_raw, depth)
        << "depth " << depth;
  }
}

TEST(SimTiming, IndependentFpOpsFullThroughput) {
  Memory mem;
  const auto r = run_sim_src(R"(
    .data
v: .double 1.0, 2.0
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    fadd.d ft2, ft0, ft1
    fadd.d ft3, ft0, ft1
    fadd.d ft4, ft0, ft1
    fadd.d ft5, ft0, ft1
    fadd.d ft6, ft0, ft1
    fadd.d ft7, ft0, ft1
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  // The only RAW is the fld->first-fadd load-use window; the six independent
  // fadds themselves issue back-to-back.
  EXPECT_LE(r.perf.stall_fp_raw, 2u);
  EXPECT_EQ(r.perf.fpu_ops, 6u);
}

TEST(SimChain, ChainedFifoRemovesRawStall) {
  // The Fig. 1c pattern: 4 independent fadds into the chained ft3, then
  // 4 fmuls popping it. No architectural-register RAW stalls; the fmuls
  // wait only for the first fadd to emerge (chain-empty).
  Memory mem;
  const auto r = run_sim_src(R"(
    .data
v: .double 1.0, 2.0
    .text
    la a0, v
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    li t0, 8
    csrs chain_mask, t0
    fadd.d ft3, fa0, fa1
    fadd.d ft3, fa0, fa1
    fadd.d ft3, fa0, fa1
    fadd.d ft3, fa0, fa1
    fmul.d ft4, ft3, fa0
    fmul.d ft5, ft3, fa0
    fmul.d ft6, ft3, fa0
    fmul.d ft7, ft3, fa0
    csrw chain_mask, x0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(r.perf.stall_fp_raw, 0u);
  EXPECT_EQ(r.perf.stall_fp_waw, 0u);
  // First fmul waits for fadd#1's writeback only; with 4 fadds ahead the
  // FIFO hides the rest: zero or tiny chain-empty stall.
  EXPECT_LE(r.perf.stall_chain_empty, 1u);
  EXPECT_EQ(r.perf.fpu_ops, 8u);
  // Check values: ft4..ft7 = (1+2)*1 = 3.
  for (u8 reg : {isa::kFt4, isa::kFt5, isa::kFt6, isa::kFt7}) {
    EXPECT_EQ(exec::f64_of_bits(r.state.f[reg]), 3.0);
  }
}

TEST(SimChain, UnrolledEquivalentAlsoNoStall) {
  // Fig. 1b: the software alternative uses 3 extra registers.
  Memory mem;
  const auto r = run_sim_src(R"(
    .data
v: .double 1.0, 2.0
    .text
    la a0, v
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fadd.d ft3, fa0, fa1
    fadd.d ft4, fa0, fa1
    fadd.d ft5, fa0, fa1
    fadd.d ft6, fa0, fa1
    fmul.d ft7, ft3, fa0
    fmul.d ft8, ft4, fa0
    fmul.d ft9, ft5, fa0
    fmul.d ft10, ft6, fa0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  // Only the fld->fadd load-use window stalls; the unrolled fadd/fmul
  // schedule itself is stall-free (the point of Fig. 1b).
  EXPECT_LE(r.perf.stall_fp_raw, 2u);
  EXPECT_EQ(r.perf.fpu_ops, 8u);
}

TEST(SimChain, BackpressureStallsProducerNotDrops) {
  // 4 pushes fill the FIFO (1 arch reg + 3 pipeline regs); an independent
  // long-latency fdiv then delays the first consumer, so producer
  // writebacks hit an occupied register -- the paper's orange-slot case.
  // Backpressure must hold them without dropping or reordering values.
  Memory mem;
  const auto r = run_sim_src(R"(
    .data
w: .double 6.0, 3.0
    .text
    la a0, w
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    li t1, 1
    li t2, 2
    li t3, 3
    li t4, 4
    li t0, 8
    csrs chain_mask, t0
    fcvt.d.w ft3, t1
    fcvt.d.w ft3, t2
    fcvt.d.w ft3, t3
    fcvt.d.w ft3, t4
    fdiv.d fa2, fa0, fa1
    fcvt.w.d a0, ft3
    fcvt.w.d a1, ft3
    fcvt.w.d a2, ft3
    fcvt.w.d a3, ft3
    csrw chain_mask, x0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_GE(r.perf.stall_chain_full, 1u);
  EXPECT_EQ(r.state.x[isa::kA0], 1u);
  EXPECT_EQ(r.state.x[isa::kA1], 2u);
  EXPECT_EQ(r.state.x[isa::kA2], 3u);
  EXPECT_EQ(r.state.x[isa::kA3], 4u);
  EXPECT_EQ(exec::f64_of_bits(r.state.f[isa::kFa2]), 2.0);
}

TEST(SimChain, OverflowBeyondCapacityDeadlocks) {
  // Producing more than (pipeline depth + 1) elements before any consumer
  // issues is an ill-formed program on this hardware: the paper requires
  // "properly balancing the production and consumption rate". The in-order
  // core cannot reach the consumers past the stalled producers, and the
  // watchdog must report it rather than dropping values.
  Memory mem;
  sim::SimConfig cfg;
  cfg.deadlock_cycles = 300;
  const auto r = run_sim_src(R"(
    li t1, 1
    li t0, 8
    csrs chain_mask, t0
    fcvt.d.w ft3, t1
    fcvt.d.w ft3, t1
    fcvt.d.w ft3, t1
    fcvt.d.w ft3, t1
    fcvt.d.w ft3, t1
    fcvt.d.w ft3, t1
    fcvt.w.d a0, ft3
    ecall
  )", mem, cfg);
  EXPECT_EQ(r.halt, HaltReason::kError);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos) << r.error;
  EXPECT_GE(r.perf.stall_chain_full, 1u);
}

TEST(SimChain, StrictHandoffCostsCycles) {
  const char* src = R"(
    .data
v: .double 1.0, 2.0
    .text
    la a0, v
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    li t0, 8
    csrs chain_mask, t0
    fadd.d ft3, fa0, fa1
    fadd.d ft3, fa0, fa1
    fadd.d ft3, fa0, fa1
    fadd.d ft3, fa0, fa1
    fmul.d ft4, ft3, fa0
    fmul.d ft5, ft3, fa0
    fmul.d ft6, ft3, fa0
    fmul.d ft7, ft3, fa0
    csrw chain_mask, x0
    ecall
  )";
  Memory m1, m2;
  sim::SimConfig fast, strict;
  strict.strict_chain_handoff = true;
  const auto rf = run_sim_src(src, m1, fast);
  const auto rs = run_sim_src(src, m2, strict);
  ASSERT_EQ(rf.halt, HaltReason::kEcall) << rf.error;
  ASSERT_EQ(rs.halt, HaltReason::kEcall) << rs.error;
  EXPECT_GT(rs.cycles, rf.cycles); // conservative RTL pays bubbles
  // Architectural results identical.
  for (u8 reg : {isa::kFt4, isa::kFt5, isa::kFt6, isa::kFt7}) {
    EXPECT_EQ(rf.state.f[reg], rs.state.f[reg]);
  }
}

TEST(SimChain, UnderflowDeadlockDetected) {
  Memory mem;
  sim::SimConfig cfg;
  cfg.deadlock_cycles = 200;
  const auto r = run_sim_src(R"(
    li t0, 8
    csrs chain_mask, t0
    fmv.d ft4, ft3
    ecall
  )", mem, cfg);
  EXPECT_EQ(r.halt, HaltReason::kError);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos) << r.error;
}

TEST(SimSsr, StreamedVectorAddMatchesAndIsFast) {
  Memory mem;
  const auto r = run_sim_src(R"(
    .data
b: .double 1, 2, 3, 4, 5, 6, 7, 8
c: .double 10, 20, 30, 40, 50, 60, 70, 80
a: .zero 64
    .text
    li t0, 7
    scfgw t0, 8
    li t0, 8
    scfgw t0, 24
    li t0, 7
    scfgw t0, 9
    li t0, 8
    scfgw t0, 25
    li t0, 7
    scfgw t0, 10
    li t0, 8
    scfgw t0, 26
    la t1, b
    scfgw t1, 48
    la t1, c
    scfgw t1, 49
    la t1, a
    scfgw t1, 66
    csrwi ssr_enable, 1
    li t2, 7
    frep.o t2, 1
    fadd.d ft2, ft0, ft1
    csrwi ssr_enable, 0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(mem.load_f64(kD + 128 + 8 * i), (i + 1) * 11.0) << i;
  }
  // 8 streamed fadds, no register traffic stalls: near-1/cycle issue.
  EXPECT_EQ(r.perf.fpu_ops, 8u);
  EXPECT_GE(r.perf.stall_fp_raw, 0u);
}

TEST(SimFrep, ReplayFreesIntegerCore) {
  // Same FP work with and without frep: the frep version lets addi/bnez run
  // during replay, and skips refetching the body.
  const char* with_frep = R"(
    .data
b: .double 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1
c: .double 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2
a: .zero 128
    .text
    li t0, 15
    scfgw t0, 8
    li t0, 8
    scfgw t0, 24
    li t0, 15
    scfgw t0, 9
    li t0, 8
    scfgw t0, 25
    li t0, 15
    scfgw t0, 10
    li t0, 8
    scfgw t0, 26
    la t1, b
    scfgw t1, 48
    la t1, c
    scfgw t1, 49
    la t1, a
    scfgw t1, 66
    csrwi ssr_enable, 1
    li t2, 15
    frep.o t2, 1
    fadd.d ft2, ft0, ft1
    csrwi ssr_enable, 0
    ecall
  )";
  Memory m1;
  const auto r = run_sim_src(with_frep, m1);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(r.perf.fpu_ops, 16u);
  for (u32 i = 0; i < 16; ++i) EXPECT_EQ(m1.load_f64(kD + 256 + 8 * i), 3.0);
}

TEST(SimSsr, RepeatStreamSavesBandwidth) {
  Memory mem;
  // One coefficient element repeated 4x: single TCDM fetch, four pops.
  const auto r = run_sim_src(R"(
    .data
k: .double 2.5
    .text
    li t0, 3
    scfgw t0, 4         # ssr0 repeat = 3
    li t0, 0
    scfgw t0, 8         # ssr0 bound0 = 0
    li t0, 8
    scfgw t0, 24
    la t1, k
    scfgw t1, 48
    csrwi ssr_enable, 1
    fmv.d ft4, ft0
    fmv.d ft5, ft0
    fmv.d ft6, ft0
    fmv.d ft7, ft0
    csrwi ssr_enable, 0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  for (u8 reg : {isa::kFt4, isa::kFt5, isa::kFt6, isa::kFt7}) {
    EXPECT_EQ(exec::f64_of_bits(r.state.f[reg]), 2.5);
  }
}

TEST(SimCsr, CycleCounterAdvances) {
  Memory mem;
  const auto r = run_sim_src(R"(
    csrr a0, mcycle
    nop
    nop
    nop
    csrr a1, mcycle
    sub a2, a1, a0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_GE(r.state.x[isa::kA2], 4u);
  EXPECT_LE(r.state.x[isa::kA2], 6u);
}

TEST(SimCsr, StreamCsrWaitsForQuiescence) {
  // Disabling chaining immediately after the last chained op must not lose
  // in-flight values (the CSR write stalls until the FP subsystem drains).
  Memory mem;
  const auto r = run_sim_src(R"(
    li t1, 7
    li t0, 8
    csrs chain_mask, t0
    fcvt.d.w ft3, t1
    csrw chain_mask, x0
    fcvt.w.d a0, ft3
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(r.state.x[isa::kA0], 7u);
  EXPECT_GE(r.perf.stall_csr_barrier, 1u);
}

// --- ISS cross-validation over a set of mixed programs ---------------------

TEST(CrossValidate, IntMix) {
  cross_validate(R"(
    .data
buf: .zero 64
    .text
    la a0, buf
    li a1, 0
    li a2, 10
loop:
    mul a3, a1, a1
    sw a3, 0(a0)
    addi a0, a0, 4
    addi a1, a1, 1
    bne a1, a2, loop
    ecall
  )");
}

TEST(CrossValidate, FpMix) {
  cross_validate(R"(
    .data
v: .double 1.5, -2.25, 3.75, 0.5
out: .zero 64
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    fld ft2, 16(a0)
    fld ft3, 24(a0)
    fmadd.d ft4, ft0, ft1, ft2
    fmsub.d ft5, ft1, ft2, ft3
    fdiv.d ft6, ft0, ft2
    fsqrt.d ft7, ft2
    fmin.d fa0, ft0, ft1
    fmax.d fa1, ft0, ft1
    fsgnjx.d fa2, ft0, ft1
    fsd ft4, 32(a0)
    fsd ft5, 40(a0)
    fsd ft6, 48(a0)
    fsd ft7, 56(a0)
    feq.d a1, ft0, ft0
    flt.d a2, ft1, ft0
    fclass.d a3, ft1
    ecall
  )");
}

TEST(CrossValidate, SsrStreams) {
  cross_validate(R"(
    .data
b: .double 1, 2, 3, 4, 5, 6
a: .zero 48
    .text
    li t0, 5
    scfgw t0, 8
    li t0, 8
    scfgw t0, 24
    li t0, 5
    scfgw t0, 10
    li t0, 8
    scfgw t0, 26
    la t1, b
    scfgw t1, 48
    la t1, a
    scfgw t1, 66
    csrwi ssr_enable, 1
    li t2, 5
    frep.o t2, 1
    fadd.d ft2, ft0, ft0
    csrwi ssr_enable, 0
    ecall
  )");
}

TEST(CrossValidate, ChainedLoop) {
  cross_validate(R"(
    .data
c: .double 1, 2, 3, 4, 5, 6, 7, 8
d: .double 10, 20, 30, 40, 50, 60, 70, 80
a: .zero 64
k: .double 2.0
    .text
    la t0, k
    fld fa0, 0(t0)
    li t0, 7
    scfgw t0, 8
    li t0, 8
    scfgw t0, 24
    li t0, 7
    scfgw t0, 9
    li t0, 8
    scfgw t0, 25
    li t0, 7
    scfgw t0, 10
    li t0, 8
    scfgw t0, 26
    la t1, c
    scfgw t1, 48
    la t1, d
    scfgw t1, 49
    la t1, a
    scfgw t1, 66
    csrwi ssr_enable, 1
    li t2, 8
    csrs chain_mask, t2
    li a1, 0
    li a2, 2
loop:
    fadd.d ft3, ft0, ft1
    fadd.d ft3, ft0, ft1
    fadd.d ft3, ft0, ft1
    fadd.d ft3, ft0, ft1
    fmul.d ft2, ft3, fa0
    fmul.d ft2, ft3, fa0
    fmul.d ft2, ft3, fa0
    fmul.d ft2, ft3, fa0
    addi a1, a1, 1
    bne a1, a2, loop
    csrw chain_mask, x0
    csrwi ssr_enable, 0
    ecall
  )");
}

TEST(CrossValidate, IndirectGather) {
  cross_validate(R"(
    .data
data: .double 100, 101, 102, 103, 104, 105, 106, 107
idx: .half 7, 0, 3, 3, 5, 1
out: .zero 48
    .text
    li t0, 5
    scfgw t0, 8          # bound0 = 5 (6 indices)
    li t0, 2
    scfgw t0, 24         # stride0 = 2 bytes
    li t0, 0x10031       # indirect, shift=3, idx size=2B
    scfgw t0, 40         # ssr0 idx cfg
    la t1, data
    scfgw t1, 44         # ssr0 idx base
    la t1, idx
    scfgw t1, 48         # arm 1-dim read
    li t0, 5
    scfgw t0, 10
    li t0, 8
    scfgw t0, 26
    la t1, out
    scfgw t1, 66
    csrwi ssr_enable, 1
    li t2, 5
    frep.o t2, 1
    fadd.d ft2, ft0, ft0
    csrwi ssr_enable, 0
    ecall
  )");
}

// --- The integer core's issue rule -------------------------------------------
// An instruction issues once its ISA row's integer fields (rd, rs1, rs2) are
// all free of pending writes, and its register-file reads are charged in the
// cycle it issues.

constexpr u8 kBusy = isa::kT6;

/// One `mn` with every operand field its row lays out. Integer fields name
/// a2/a3/a4 (rd/rs1/rs2) except field `busy_field` (0 rd, 1 rs1, 2 rs2; -1
/// for none), which names kBusy; FP fields name fs0..fs3. The immediate
/// encodes: a branch or jal lands on the next instruction, a frep body is
/// one instruction, a CSR access names mhartid, everything else is 0.
isa::Instr operand_instr(isa::Mnemonic mn, int busy_field) {
  const isa::MnemonicInfo& mi = isa::info(mn);
  const isa::RegClass classes[4] = {mi.rd, mi.rs1, mi.rs2, mi.rs3};
  u8 regs[4] = {};
  for (int f = 0; f < 4; ++f) {
    if (classes[f] == isa::RegClass::kInt) {
      regs[f] = f == busy_field ? kBusy : static_cast<u8>(isa::kA2 + f);
    } else if (classes[f] == isa::RegClass::kFp) {
      regs[f] = static_cast<u8>(8 + f);
    }
  }
  isa::Instr in;
  in.mn = mn;
  in.rd = regs[0];
  in.rs1 = regs[1];
  in.rs2 = regs[2];
  in.rs3 = regs[3];
  if (mi.imm == isa::ImmKind::kB || mi.imm == isa::ImmKind::kJ) {
    in.imm = 4;
  } else if (mi.imm == isa::ImmKind::kCsr) {
    in.imm = static_cast<i32>(isa::csr::kMhartid);
  } else if (mi.exec == isa::ExecClass::kFrep) {
    in.imm = 1;
  }
  in.raw = isa::encode(in);
  return in;
}

/// Counters of `lw kBusy, 0(a1)` followed by `in`: kBusy is still pending
/// when `in` reaches issue. Every other register reads 0, so `in` may fault
/// once it issues (a load from address 0, a zero-size copy, a jump to 0);
/// the issue decision before it is what the counters pin.
sim::PerfCounters run_after_busy_load(const isa::Instr& in) {
  ProgramBuilder b;
  b.li(isa::kA1, static_cast<i64>(kD));
  b.lw(kBusy, isa::kA1, 0);
  b.emit(in);
  if (in.meta().exec == isa::ExecClass::kFrep) {
    b.emit(isa::make_r(isa::Mnemonic::kFaddD, 8, 9, 9));
  }
  b.ecall();
  Memory mem;
  sim::SimConfig cfg;
  cfg.max_cycles = 10'000;
  sim::Simulator s(b.build(), mem, cfg);
  s.run();
  return s.perf();
}

TEST(IntIssue, ScoreboardWaitsOnEveryIntegerField) {
  u32 fields = 0;
  for (u16 m = 1; m < static_cast<u16>(isa::Mnemonic::kCount); ++m) {
    const auto mn = static_cast<isa::Mnemonic>(m);
    const isa::MnemonicInfo& mi = isa::info(mn);
    const isa::RegClass classes[3] = {mi.rd, mi.rs1, mi.rs2};
    for (int f = -1; f < 3; ++f) {
      if (f >= 0 && classes[f] != isa::RegClass::kInt) continue;
      SCOPED_TRACE(std::string(mi.name) + (f < 0 ? ", busy register unnamed"
                                                 : ", busy field " +
                                                       std::to_string(f)));
      const sim::PerfCounters perf = run_after_busy_load(operand_instr(mn, f));
      if (f < 0) {
        EXPECT_EQ(perf.stall_int_raw, 0u);
      } else {
        EXPECT_GT(perf.stall_int_raw, 0u);
        ++fields;
      }
    }
  }
  EXPECT_GE(fields, 150u) << "every integer field of the ISA table";
}

/// Integer source fields (rs1, rs2) of the instructions of `p`.
u64 int_source_fields(const Program& p) {
  u64 n = 0;
  for (const isa::Instr& in : p.instrs) {
    n += (in.meta().rs1 == isa::RegClass::kInt ? 1 : 0) +
         (in.meta().rs2 == isa::RegClass::kInt ? 1 : 0);
  }
  return n;
}

TEST(IntIssue, RegisterFileReadsChargedAtIssue) {
  // Straight-line programs issue each instruction once, so their reads are
  // their instructions' integer source fields however long each waits.
  {
    const Program p = prog(R"(
      li a1, 0x10000000
      li a2, 5
      lw a0, 0(a1)
      addi a0, a2, 1
      ecall
    )");
    Memory mem;
    const SimRun r = run_sim(p, mem);
    ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
    EXPECT_GT(r.perf.stall_int_raw, 0u) << "addi waits on the load's a0";
    EXPECT_EQ(r.perf.rf_int_reads, int_source_fields(p));
  }
  {
    const Program p = prog(R"(
      li t0, 0x10000000
      li t1, 0x10001000
      dmsrc t0
      dmdst t1
      li t2, 512
      dmcpy a0, t2
      dmcpy a1, t2
      ecall
    )");
    sim::SimConfig cfg;
    cfg.dma_queue_depth = 1;
    Memory mem;
    const SimRun r = run_sim(p, mem, cfg);
    ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
    EXPECT_GT(r.perf.stall_dma_full, 0u) << "the second dmcpy waits";
    EXPECT_EQ(r.perf.rf_int_reads, int_source_fields(p));
  }
}

} // namespace
} // namespace sch
