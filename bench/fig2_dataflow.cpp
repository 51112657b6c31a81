// Reproduces Fig. 2: the dataflow through the chain FIFO. Runs the paper's
// exact Fig. 1c instruction sequence with the per-cycle trace enabled and
// prints (a) the issue trace (Fig. 1c's issue slots) and (b) the FPU
// pipeline-register occupancy with issue sequence numbers -- the paper's
// "numbered tokens" -- together with the chained register's valid bit.
#include <cstdio>

#include "asm/assembler.hpp"
#include "bench_common.hpp"
#include "mem/memory.hpp"
#include "sim/simulator.hpp"

using namespace sch;

int main() {
  // The Fig. 1c listing, with SSR setup ahead of it (c = stream, d = stream,
  // a = write stream), two loop iterations so the steady state is visible.
  const char* src = R"(
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
    li a1, 0
    li a2, 2
    li t2, 8
    csrs 0x7C3, t2        # enable chaining on ft3 (the paper's mask)
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
    bneq a1, a2, loop
    csrs 0x7C3, x0
    csrwi ssr_enable, 0
    ecall
  )";

  auto asm_result = assembler::assemble(src);
  if (!asm_result.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", asm_result.status().message().c_str());
    return 1;
  }
  Program prog = std::move(asm_result).value();

  // An Observer probe that checks the output region and snapshots the chain
  // unit's statistics while the final machine state is alive -- the kind of
  // instrumentation the unified engine supports without core changes.
  struct ChainProbe : api::Observer {
    u64 pushes = 0, pops = 0, backpressure = 0;
    int bad = 0;
    void on_halt(const api::RunReport&, const sim::Simulator* sim,
                 const Memory* mem) override {
      if (sim == nullptr || mem == nullptr) return;
      pushes = sim->fp().chain().stats().pushes;
      pops = sim->fp().chain().stats().pops;
      backpressure = sim->fp().chain().stats().backpressure_cycles;
      const double c[] = {1, 2, 3, 4, 5, 6, 7, 8};
      const double d[] = {10, 20, 30, 40, 50, 60, 70, 80};
      for (u32 i = 0; i < 8; ++i) {
        const double got = mem->load_f64(memmap::kTcdmBase + 128 + 8 * i);
        if (got != 2.0 * (c[i] + d[i])) ++bad;
      }
    }
  };

  api::RunRequest request =
      api::RunRequest::for_program(std::move(prog), "fig2_dataflow");
  api::TraceObserver tracer;
  ChainProbe probe;
  request.observers.push_back(&tracer);
  request.observers.push_back(&probe);

  const api::RunReport report = api::run(request);
  if (!report.ok) {
    std::fprintf(stderr, "FATAL: abnormal halt: %s\n", report.error.c_str());
    return 1;
  }

  std::printf("Fig. 2 reproduction: chained a = b*(c+d), two loop iterations\n");
  std::printf("\n--- issue trace (Fig. 1c style) ---\n%s",
              tracer.trace().format_issue_table().c_str());
  std::printf("\n--- FPU pipeline / chain register occupancy (Fig. 2 tokens) ---\n%s",
              tracer.trace().format_dataflow(96).c_str());

  std::printf("\nresult check: %s\n",
              probe.bad == 0 ? "all 8 elements correct" : "MISMATCH");
  std::printf("cycles: %llu, fpu ops: %llu, chain pushes: %llu, pops: %llu, "
              "backpressure cycles: %llu\n",
              static_cast<unsigned long long>(report.cycles),
              static_cast<unsigned long long>(report.perf.fpu_ops),
              static_cast<unsigned long long>(probe.pushes),
              static_cast<unsigned long long>(probe.pops),
              static_cast<unsigned long long>(probe.backpressure));
  return probe.bad == 0 ? 0 : 1;
}
