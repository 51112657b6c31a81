// Observability demo: per-cycle issue trace and FPU-pipeline/chain-FIFO
// occupancy (the views behind the paper's Fig. 1c and Fig. 2), on a
// minimal chained sequence.
//
//   ./build/examples/pipeline_trace
#include <cstdio>

#include "scalarchain.hpp"

int main() {
  using namespace sch;

  const char* source = R"(
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

  auto assembled = assembler::assemble(source);
  if (!assembled.ok()) {
    std::fprintf(stderr, "assembly failed: %s\n",
                 assembled.status().message().c_str());
    return 1;
  }
  Program program = std::move(assembled).value();

  // The trace is an Observer client of the unified engine: attach a
  // TraceObserver to the request and the per-cycle snapshots arrive without
  // touching the simulator core.
  api::RunRequest request =
      api::RunRequest::for_program(std::move(program), "pipeline_trace");
  api::TraceObserver tracer;
  request.observers.push_back(&tracer);

  const api::RunReport report = api::run(request);
  if (!report.ok) {
    std::fprintf(stderr, "abnormal halt: %s\n", report.error.c_str());
    return 1;
  }

  std::printf("--- issue trace ---\n%s\n",
              tracer.trace().format_issue_table().c_str());
  std::printf("--- pipeline / chain occupancy ---\n%s\n",
              tracer.trace().format_dataflow().c_str());
  std::printf("total cycles: %llu\n",
              static_cast<unsigned long long>(report.cycles));
  return 0;
}
