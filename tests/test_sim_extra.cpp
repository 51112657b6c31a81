// Extended timing-model coverage: iterative FP units, integer mul/div
// latencies, f32 NaN boxing through memory, bulk-memory latency, frep.i
// timing, multi-dimensional and repeating SSR streams, TCDM port contention,
// offload-queue saturation, and trace recording.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "api/engine.hpp"
#include "asm/assembler.hpp"
#include "iss/exec_semantics.hpp"
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

struct R {
  HaltReason halt;
  Cycle cycles;
  sim::PerfCounters perf;
  ArchState state;
  std::string error;
};

R run(std::string_view src, Memory& mem, sim::SimConfig cfg = {}) {
  sim::Simulator s(prog(src), mem, cfg);
  const HaltReason h = s.run();
  return {h, s.cycles(), s.perf(), s.arch_state(), s.error()};
}

TEST(SimFpDiv, IterativeUnitOccupancy) {
  // Two back-to-back divides: the second waits for the unit.
  Memory mem;
  const auto r = run(R"(
    .data
v: .double 12.0, 4.0
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    fdiv.d ft2, ft0, ft1
    fdiv.d ft3, ft1, ft0
    fsd ft2, 16(a0)
    fsd ft3, 24(a0)
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(mem.load_f64(kD + 16), 3.0);
  EXPECT_EQ(mem.load_f64(kD + 24), 4.0 / 12.0);
  EXPECT_GE(r.perf.stall_fpu_busy, 8u); // second div blocked on the unit
  EXPECT_EQ(r.perf.fp_div_ops, 2u);
}

TEST(SimFpDiv, PipelinedOpsOverlapWithDivide) {
  // Independent fadds flow through the pipeline while the divider grinds.
  Memory mem;
  const auto r = run(R"(
    .data
v: .double 12.0, 4.0
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    fdiv.d ft2, ft0, ft1
    fadd.d ft3, ft0, ft1
    fadd.d ft4, ft0, ft1
    fadd.d ft5, ft0, ft1
    fadd.d ft6, ft0, ft1
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  // The adds issue while the div is busy; total must be far below
  // div_latency + 4 * add_latency.
  EXPECT_LT(r.cycles, 40u);
  EXPECT_EQ(exec::f64_of_bits(r.state.f[isa::kFt6]), 16.0);
}

TEST(SimFpSqrt, LongerThanDiv) {
  const char* divsrc = R"(
    .data
v: .double 9.0, 2.0
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    fdiv.d ft2, ft0, ft1
    fsd ft2, 16(a0)
    ecall
  )";
  const char* sqrtsrc = R"(
    .data
v: .double 9.0, 2.0
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
    fsqrt.d ft2, ft0
    fsd ft2, 16(a0)
    ecall
  )";
  Memory m1, m2;
  const auto rd = run(divsrc, m1);
  const auto rs = run(sqrtsrc, m2);
  ASSERT_EQ(rd.halt, HaltReason::kEcall) << rd.error;
  ASSERT_EQ(rs.halt, HaltReason::kEcall) << rs.error;
  EXPECT_GT(rs.cycles, rd.cycles);
  EXPECT_EQ(m2.load_f64(kD + 16), 3.0);
}

TEST(SimIntMulDiv, LatencyAndBlocking) {
  Memory mem;
  const auto r = run(R"(
    li a0, 7
    li a1, 6
    mul a2, a0, a1      # pipelined: consumer stalls ~mul_latency
    add a3, a2, a2      # dependent
    div a4, a2, a1      # blocking divider
    addi a5, a4, 0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(r.state.x[isa::kA2], 42u);
  EXPECT_EQ(r.state.x[isa::kA3], 84u);
  EXPECT_EQ(r.state.x[isa::kA4], 7u);
  EXPECT_GE(r.perf.int_div_busy, 10u);
  EXPECT_GE(r.perf.stall_int_raw, 1u); // mul consumer waited
}

TEST(SimF32, NanBoxingThroughMemory) {
  Memory mem;
  const auto r = run(R"(
    .data
v: .float 1.5, 2.5
out: .zero 8
    .text
    la a0, v
    flw ft0, 0(a0)
    flw ft1, 4(a0)
    fadd.s ft2, ft0, ft1
    fsw ft2, 8(a0)
    # Reading an f32 register as f64 must see the NaN box.
    fsd ft2, 16(a0)
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(mem.load_f32(kD + 8), 4.0f);
  EXPECT_EQ(mem.load(kD + 16, 8) >> 32, 0xFFFF'FFFFull); // boxed high bits
}

TEST(SimMainMemory, HigherLatencyRegion) {
  const char* tcdm_src = R"(
    .data
v: .word 7
    .text
    la a0, v
    lw a1, 0(a0)
    addi a2, a1, 1
    ecall
  )";
  // Same access pattern against the bulk-memory region.
  const char* main_src = R"(
    li a0, 0x20000000
    li t0, 7
    sw t0, 0(a0)
    lw a1, 0(a0)
    addi a2, a1, 1
    ecall
  )";
  Memory m1, m2;
  const auto rt = run(tcdm_src, m1);
  const auto rm = run(main_src, m2);
  ASSERT_EQ(rt.halt, HaltReason::kEcall) << rt.error;
  ASSERT_EQ(rm.halt, HaltReason::kEcall) << rm.error;
  EXPECT_EQ(rm.state.x[isa::kA2], 8u);
  EXPECT_GT(rm.cycles, rt.cycles); // bulk memory pays main_mem_latency
}

TEST(SimFrep, InnerModeTiming) {
  // frep.i repeats each instruction in place; with a dependent body this is
  // slower than frep.o (no interleaving), which is why kernels use .o.
  const char* outer = R"(
    li t0, 7
    fcvt.d.w ft1, x0
    li t1, 1
    fcvt.d.w ft2, t1
    frep.o t0, 2
    fadd.d ft1, ft1, ft2
    fadd.d ft2, ft2, ft2
    ecall
  )";
  const char* inner = R"(
    li t0, 7
    fcvt.d.w ft1, x0
    li t1, 1
    fcvt.d.w ft2, t1
    frep.i t0, 2
    fadd.d ft1, ft1, ft2
    fadd.d ft2, ft2, ft2
    ecall
  )";
  Memory m1, m2;
  const auto ro = run(outer, m1);
  const auto ri = run(inner, m2);
  ASSERT_EQ(ro.halt, HaltReason::kEcall) << ro.error;
  ASSERT_EQ(ri.halt, HaltReason::kEcall) << ri.error;
  EXPECT_EQ(ro.perf.fpu_ops, ri.perf.fpu_ops);
  EXPECT_GT(ri.perf.stall_fp_raw, ro.perf.stall_fp_raw);
}

TEST(SimSsr, TwoDimensionalStridedStream) {
  Memory mem;
  // Read a 3x4 submatrix out of a 3x8 row-major matrix, write compacted.
  const auto r = run(R"(
    .data
m: .double 0, 1, 2, 3, 4, 5, 6, 7
   .double 10, 11, 12, 13, 14, 15, 16, 17
   .double 20, 21, 22, 23, 24, 25, 26, 27
out: .zero 96
    .text
    li t0, 3
    scfgw t0, 8          # ssr0 bound0 = 3 (4 elems per row)
    li t0, 8
    scfgw t0, 24         # stride0 = 8
    li t0, 2
    scfgw t0, 12         # bound1 = 2 (3 rows)
    li t0, 40
    scfgw t0, 28         # stride1: from m[r][3] to m[r+1][0] = (8-3)*8
    la t1, m
    scfgw t1, 52         # rptr1: arm 2-D read
    li t0, 11
    scfgw t0, 10         # ssr2 bound0 = 11
    li t0, 8
    scfgw t0, 26
    la t1, out
    scfgw t1, 66
    csrwi ssr_enable, 1
    li t2, 11
    frep.o t2, 1
    fmv.d ft2, ft0
    csrwi ssr_enable, 0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  const double expect[12] = {0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23};
  for (u32 i = 0; i < 12; ++i) {
    EXPECT_EQ(mem.load_f64(kD + 192 + 8 * i), expect[i]) << i;
  }
}

TEST(SimSsr, RepeatWithTwoDims) {
  Memory mem;
  // Two elements, each repeated twice, looped twice: 0 0 8 8 0 0 8 8.
  const auto r = run(R"(
    .data
v: .double 5.0, 6.0
out: .zero 64
    .text
    li t0, 1
    scfgw t0, 4          # repeat = 1 -> 2 pops per element
    li t0, 1
    scfgw t0, 8          # bound0 = 1
    li t0, 8
    scfgw t0, 24
    li t0, 1
    scfgw t0, 12         # bound1 = 1 (loop twice)
    li t0, -8
    scfgw t0, 28         # wrap back
    la t1, v
    scfgw t1, 52         # 2-D read
    li t0, 7
    scfgw t0, 10
    li t0, 8
    scfgw t0, 26
    la t1, out
    scfgw t1, 66
    csrwi ssr_enable, 1
    li t2, 7
    frep.o t2, 1
    fmv.d ft2, ft0
    csrwi ssr_enable, 0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  const double expect[8] = {5, 5, 6, 6, 5, 5, 6, 6};
  for (u32 i = 0; i < 8; ++i) {
    EXPECT_EQ(mem.load_f64(kD + 16 + 8 * i), expect[i]) << i;
  }
}

TEST(SimSsr, IndirectScatterTiming) {
  Memory mem;
  const auto r = run(R"(
    .data
vals: .double 1.5, 2.5, 3.5
idx: .half 4, 0, 2
    .balign 8
win: .zero 64
    .text
    # SSR0 reads vals; SSR2 scatters via idx into win.
    li t0, 2
    scfgw t0, 8
    li t0, 8
    scfgw t0, 24
    la t1, vals
    scfgw t1, 48
    li t0, 2
    scfgw t0, 10
    li t0, 2
    scfgw t0, 26         # stride over idx array
    li t0, 0x10031
    scfgw t0, 42         # ssr2 idx cfg: indirect, shift 3, u16
    la t1, win
    scfgw t1, 46         # ssr2 idx base
    la t1, idx
    scfgw t1, 66         # ssr2 wptr0: scatter armed
    csrwi ssr_enable, 1
    li t2, 2
    frep.o t2, 1
    fmv.d ft2, ft0
    csrwi ssr_enable, 0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  const Addr win = kD + 32;
  EXPECT_EQ(mem.load_f64(win + 8 * 4), 1.5);
  EXPECT_EQ(mem.load_f64(win + 8 * 0), 2.5);
  EXPECT_EQ(mem.load_f64(win + 8 * 2), 3.5);
}

TEST(SimTcdm, PortContentionCountsConflicts) {
  // Four streams + core stores hammering one bank (every address maps to
  // bank 0 with stride 256 = 32 banks * 8B).
  Memory mem;
  const auto r = run(R"(
    .data
a: .zero 8192
    .text
    li t0, 31
    scfgw t0, 8
    li t0, 256
    scfgw t0, 24
    la t1, a
    scfgw t1, 48
    li t0, 31
    scfgw t0, 9
    li t0, 256
    scfgw t0, 25
    la t1, a
    scfgw t1, 49
    csrwi ssr_enable, 1
    li t2, 31
    frep.o t2, 1
    fadd.d ft3, ft0, ft1
    csrwi ssr_enable, 0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  // Both streams always target bank 0 -> heavy conflicts, but completion.
  EXPECT_GE(r.perf.fpu_ops, 32u);
}

TEST(SimQueue, OffloadBackpressureCounted) {
  // A long burst of dependent FP ops fills the 8-deep queue and stalls the
  // integer core.
  Memory mem;
  std::string src = R"(
    .data
v: .double 1.0, 2.0
    .text
    la a0, v
    fld ft0, 0(a0)
    fld ft1, 8(a0)
)";
  for (int i = 0; i < 24; ++i) src += "    fadd.d ft2, ft2, ft1\n";
  src += "    ecall\n";
  const auto r = run(src, mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_GT(r.perf.stall_offload_full, 10u);
}

TEST(SimTrace, TraceObserverRecordsIssueAndPipeline) {
  // Trace recording is an Observer client of the unified engine: one entry
  // per simulated cycle, rebuilt from the public simulator surface.
  api::RunRequest request = api::RunRequest::for_program(prog(R"(
    li a0, 1
    li a1, 2
    add a2, a0, a1
    ecall
  )"));
  api::TraceObserver tracer;
  request.observers.push_back(&tracer);
  const api::RunReport report = api::run(request);
  ASSERT_TRUE(report.ok) << report.error;
  ASSERT_FALSE(tracer.trace().entries().empty());
  EXPECT_EQ(tracer.trace().entries().size(), report.cycles);
  // The issue table must mention the add.
  EXPECT_NE(tracer.trace().format_issue_table().find("add a2, a0, a1"),
            std::string::npos);
}

#ifdef SCH_GOLDEN_DIR
std::string read_golden(const char* name) {
  std::ifstream in(std::string(SCH_GOLDEN_DIR) + "/" + name, std::ios::binary);
  EXPECT_TRUE(in) << "missing tests/golden/" << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(SimTrace, FrepProgramMatchesGoldenText) {
  // Pins the rendered trace byte for byte. tests/golden/trace_frep.s has
  // offloads, an frep.o body, raw stalls and an lsu-busy stall;
  // trace_frep.txt is its issue table, a blank line, then its dataflow.
  api::RunRequest request =
      api::RunRequest::for_program(prog(read_golden("trace_frep.s")));
  api::TraceObserver tracer;
  request.observers.push_back(&tracer);
  const api::RunReport report = api::run(request);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(tracer.trace().format_issue_table() + "\n" +
                tracer.trace().format_dataflow(),
            read_golden("trace_frep.txt"));
}
#endif // SCH_GOLDEN_DIR

TEST(SimCsr, InstretCountsRetired) {
  Memory mem;
  const auto r = run(R"(
    csrr a0, instret
    nop
    nop
    csrr a1, instret
    sub a2, a1, a0
    ecall
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(r.state.x[isa::kA2], 3u); // nop, nop, csrr
}

TEST(SimJumps, CallReturnLinkage) {
  Memory mem;
  const auto r = run(R"(
    li a0, 5
    call double_it
    call double_it
    ecall
double_it:
    add a0, a0, a0
    ret
  )", mem);
  ASSERT_EQ(r.halt, HaltReason::kEcall) << r.error;
  EXPECT_EQ(r.state.x[isa::kA0], 20u);
  EXPECT_GE(r.perf.branch_bubbles, 4u); // two calls + two returns
}

} // namespace
} // namespace sch
