// One chaining core of the cluster: the integer core, the FP subsystem
// (offload queue, FREP sequencer, FPU, chain unit) and the three SSR
// streamers, wired to the cluster-shared Memory and banked Tcdm. The
// Cluster invokes tick() once per cycle in a rotating core order; within the
// tick the core runs the same phase sequence the single-core Simulator
// always ran (commit pending writes, FP tick, integer tick, SSR fetches with
// the rotating streamer priority).
#pragma once

#include <string>

#include "asm/program.hpp"
#include "dma/dma.hpp"
#include "iss/arch_state.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/fp_subsystem.hpp"
#include "sim/int_core.hpp"
#include "sim/perf.hpp"
#include "sim/sim_config.hpp"

namespace sch::sim {

class Core {
 public:
  /// The core keeps its own copy of the program; `memory`, `tcdm`, `config`
  /// and `dma` are cluster-owned and must outlive the core. `hartid` is the
  /// mhartid CSR value and selects the core's TCDM requester block.
  Core(Program program, Memory& memory, Tcdm& tcdm, const SimConfig& config,
       u32 hartid, dma::Engine& dma);
  /// The units hold references into the core (program, counters, each
  /// other), so a core never moves.
  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  /// Load this core's program data image into the shared memory. The
  /// cluster calls this once, in hartid order, before the first cycle.
  void load_image();

  /// Run one cycle of every unit. A fully-halted core is a no-op (its
  /// perf().cycles stops counting, so per-core cycle counts report the
  /// core's active span under load imbalance).
  void tick(Cycle now);

  /// Integer core halted, FP subsystem drained, no pending writebacks, as
  /// of the core's last tick: nothing outside that tick moves its units.
  [[nodiscard]] bool halted() const { return halted_at_ != 0; }

  [[nodiscard]] u32 hartid() const { return hartid_; }
  [[nodiscard]] const Program& program() const { return prog_; }
  [[nodiscard]] const PerfCounters& perf() const { return perf_; }
  [[nodiscard]] const IntCore& int_core() const { return core_; }
  [[nodiscard]] const FpSubsystem& fp() const { return fp_; }
  /// Mutable FP-subsystem access for fault injection (sim::FaultPlan).
  [[nodiscard]] FpSubsystem& fp_mut() { return fp_; }
  [[nodiscard]] HaltReason halt_reason() const { return core_.halt_reason(); }

  [[nodiscard]] bool has_error() const {
    return fp_.has_error() || core_.has_error();
  }
  /// FP-subsystem errors win (mirrors the original Simulator check order).
  [[nodiscard]] const std::string& error() const {
    return fp_.has_error() ? fp_.error() : core_.error();
  }
  /// Kind of the failure behind error().
  [[nodiscard]] FailureKind failure_kind() const {
    return fp_.has_error() ? fp_.failure_kind() : core_.failure_kind();
  }
  /// pc of the instruction behind error(): the faulting FP op's (or frep
  /// marker's), else the integer core's.
  [[nodiscard]] Addr error_pc() const {
    return fp_.has_error() ? fp_.error_pc() : core_.pc();
  }

  /// Architectural state snapshot (for ISS cross-validation).
  [[nodiscard]] ArchState arch_state() const;

 private:
  Program prog_;
  Memory& mem_;
  Tcdm& tcdm_;
  const SimConfig& cfg_;
  const u32 hartid_;
  PerfCounters perf_;
  FpSubsystem fp_;
  IntCore core_;
  u32 ssr_rr_ = 0; // round-robin rotation of this core's SSR port order
  Cycle halted_at_ = 0; // cycle the core fully halted at (0 while running)

  [[nodiscard]] bool fully_halted() const {
    return core_.halting() && fp_.quiescent() && core_.pending_empty();
  }
};

} // namespace sch::sim
