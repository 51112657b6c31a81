#include "api/observer.hpp"

#include <ostream>

#include "isa/disasm.hpp"
#include "ssr/ssr_file.hpp"

namespace sch::api {

void TraceObserver::on_cycle(const sim::Simulator& simulator) {
  sim::TraceEntry e;
  e.cycle = simulator.cycles();
  if (const isa::Instr* in = simulator.core().last_issue()) {
    e.int_issue = (simulator.core().last_offloaded() ? "offload " : "") +
                  isa::disassemble(*in);
  }
  if (const isa::Instr* in = simulator.fp().last_issue()) {
    e.fp_issue = isa::disassemble(*in);
  }
  e.fp_stall = simulator.fp().last_stall();
  const sim::FpuPipeline& pipe = simulator.fp().pipeline();
  e.fpu_depth = pipe.depth();
  for (u32 s = 0; s < pipe.depth() && s < 8; ++s) {
    e.fpu_stage_seq[s] = pipe.stage(s).busy ? pipe.stage(s).seq : 0;
  }
  const u32 mask = simulator.fp().chain_mask();
  if (mask != 0) {
    u8 reg = 0;
    while (((mask >> reg) & 1u) == 0) ++reg;
    e.chain_tracked = true;
    e.chain_reg = reg;
    e.chain_valid = simulator.fp().chain().valid(reg);
    e.chain_value = simulator.fp().chain().value(reg);
  }
  for (u32 i = 0; i < ssr::kNumSsrs; ++i) {
    e.ssr_read_fifo[i] = simulator.fp().streamer(i).read_fifo_level();
    e.ssr_write_fifo[i] = simulator.fp().streamer(i).write_fifo_level();
  }
  trace_.record(std::move(e));
}

void ProgressObserver::on_run_start(const RunRequest& request,
                                    const std::string& name) {
  (void)request;
  const std::lock_guard<std::mutex> lock(mutex_);
  out_ << "run  " << name << "\n";
}

void ProgressObserver::on_halt(const RunReport& report,
                               const sim::Simulator* simulator,
                               const Memory* memory) {
  (void)simulator;
  (void)memory;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (report.ok) {
    out_ << "halt " << report.name << ": " << report.cycles << " cycles, util "
         << static_cast<int>(report.fpu_utilization * 1000) / 1000.0 << "\n";
  } else {
    out_ << "halt " << report.name << ": FAIL: " << report.error << "\n";
  }
}

} // namespace sch::api
