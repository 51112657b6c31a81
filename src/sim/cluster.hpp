// Top-level cycle-level model: a cluster of N chaining cores sharing one
// banked TCDM and one functional Memory. Each cycle the cluster rotates the
// core service order (fair cross-core round-robin into the bank arbiter) and
// runs every core's phase sequence; within a core the LSU keeps its bank
// priority and the SSR ports keep their private rotation, exactly as in the
// original single-core model. With num_cores == 1 the cluster is
// cycle-for-cycle identical to the pre-cluster Simulator, which is why
// `sim::Simulator` is now an alias of this class (see sim/simulator.hpp).
//
// Cores communicate only through the shared memory (e.g. the sense-reversing
// barrier in kernels/barrier.hpp); the cluster is fully deterministic for a
// fixed configuration and program set.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "dma/dma.hpp"
#include "iss/arch_state.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "sim/core.hpp"
#include "sim/perf.hpp"
#include "sim/sim_config.hpp"

namespace sch::sim {

class Cluster {
 public:
  /// One program, replicated to every core (cores partition work by the
  /// mhartid/mnumharts CSRs). `memory` must outlive the cluster. Throws
  /// std::invalid_argument when `config.validate()` fails.
  Cluster(Program program, Memory& memory, const SimConfig& config = {});

  /// One program per core (`programs.size()` must equal config.num_cores;
  /// a single entry replicates). All programs share one address space; data
  /// images are loaded in hartid order before the first cycle.
  Cluster(std::vector<Program> programs, Memory& memory,
          const SimConfig& config = {});

  /// Run to halt. Loads the program data image(s) first.
  HaltReason run();

  /// Single-step one cycle (tests/traces). Returns false once halted.
  bool step();

  [[nodiscard]] Cycle cycles() const { return cycle_; }
  [[nodiscard]] u32 num_cores() const { return static_cast<u32>(cores_.size()); }
  [[nodiscard]] const Tcdm& tcdm() const { return tcdm_; }
  [[nodiscard]] const dma::Engine& dma() const { return dma_; }
  [[nodiscard]] HaltReason halt_reason() const { return halt_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  // --- structured halt information (a report's failure section) ---
  /// Kind of an abnormal halt: kDeadlock when the progress watchdog fired,
  /// the faulting core's kind on a core error (kValidation when a hart ran
  /// off its text), kBudgetExceeded for the cycle and wall-clock budgets;
  /// kNone otherwise.
  [[nodiscard]] FailureKind failure_kind() const { return failure_kind_; }
  /// Faulting hart of an abnormal halt: the failing core's, or for a
  /// deadlock or an exhausted budget the first hart still running (-1 while
  /// there is none).
  [[nodiscard]] i32 halt_hart() const { return halt_hart_; }
  /// That hart's pc (-1 while there is none).
  [[nodiscard]] i64 halt_pc() const { return halt_pc_; }

  /// Aggregate counters snapshot: every field summed across cores except
  /// `cycles`, which is the cluster cycle count. With one core this is
  /// exactly that core's counter block (see core_at(h).perf() for live
  /// per-core references).
  [[nodiscard]] PerfCounters perf() const;

  [[nodiscard]] const Core& core_at(u32 hartid) const { return *cores_[hartid]; }

  // --- single-core-compatible accessors (hart 0) ---
  [[nodiscard]] const IntCore& core() const { return cores_[0]->int_core(); }
  [[nodiscard]] const FpSubsystem& fp() const { return cores_[0]->fp(); }

  /// Architectural state snapshot of one hart (for ISS cross-validation).
  [[nodiscard]] ArchState arch_state(u32 hartid = 0) const {
    return cores_[hartid]->arch_state();
  }

 private:
  void tick();
  /// Apply every fault of cfg_.faults due this cycle (see sim/fault_plan.hpp).
  void apply_faults();
  /// Every core has fully halted (read from each core's halt cycle).
  [[nodiscard]] bool fully_halted() const;
  /// Report the first hart still running (the wedged or spinning one,
  /// usually; hart 0 when all have halted) as halt_hart/halt_pc.
  void blame_first_running_hart();
  /// Halt with kBudgetExceeded and `message`, blaming the first running hart.
  void halt_over_budget(std::string message);

  SimConfig cfg_;
  Memory& mem_;
  Tcdm tcdm_;
  dma::Engine dma_;
  std::vector<std::unique_ptr<Core>> cores_;

  Cycle cycle_ = 0;
  /// First slot of this cycle's service order: cycle_ % (num_cores + 1),
  /// kept by wrap-around so the tick never divides.
  u32 rotation_ = 0;
  u64 last_progress_retired_ = 0;
  Cycle last_progress_cycle_ = 0;
  HaltReason halt_ = HaltReason::kNone;
  std::string error_;
  bool started_ = false;
  FailureKind failure_kind_ = FailureKind::kNone;
  i32 halt_hart_ = -1;
  i64 halt_pc_ = -1;
  /// Host time of the first step (wall-clock budget reference; only read
  /// when cfg_.max_wall_ms != 0, so budget-free runs stay deterministic).
  std::chrono::steady_clock::time_point wall_start_;
};

} // namespace sch::sim
