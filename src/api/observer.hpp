// Pluggable run probes. An Observer attaches to a RunRequest and receives
// callbacks as the engine executes it, so instrumentation (per-cycle traces,
// progress reporting, memory inspection, custom counters) lives outside the
// core and needs no recompilation of the simulator. The built-in clients:
//
//   TraceObserver     records the Fig. 1c issue trace / Fig. 2 dataflow
//                     snapshot of hart 0 per cycle.
//   ProgressObserver  prints one line per run start/halt to a stream
//                     (thread-safe; usable with Engine::submit).
//
// Callback contract: on_run_start fires once before execution; on_cycle
// after every simulated cycle of the cycle-level engine; on_halt once with
// the finished report and the final machine state -- `memory` is the view of
// whichever engine ran (the cycle-level engine's for kCycle/kBoth, the ISS's
// for kIss), while `simulator` is null unless the cycle-level engine ran.
// Observers attached to a submitted request are called from the worker
// thread executing it.
#pragma once

#include <iosfwd>
#include <mutex>

#include "api/run_report.hpp"
#include "mem/memory.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sch::api {

struct RunRequest;

class Observer {
 public:
  virtual ~Observer() = default;

  /// Before execution. `name` is the resolved workload label.
  virtual void on_run_start(const RunRequest& request, const std::string& name) {
    (void)request;
    (void)name;
  }

  /// After every cycle-level simulator cycle (never for kIss).
  virtual void on_cycle(const sim::Simulator& simulator) { (void)simulator; }

  /// Once, with the finished report. `memory` is the final memory of
  /// whichever engine ran (cycle-level preferred for kBoth); `simulator` is
  /// null when the cycle-level engine did not run.
  virtual void on_halt(const RunReport& report, const sim::Simulator* simulator,
                       const Memory* memory) {
    (void)report;
    (void)simulator;
    (void)memory;
  }
};

/// Records hart 0's per-cycle issue trace and pipeline/chain/SSR occupancy
/// snapshot from the public simulator surface, disassembling the issued
/// instructions as it goes.
class TraceObserver : public Observer {
 public:
  void on_cycle(const sim::Simulator& simulator) override;

  [[nodiscard]] const sim::Trace& trace() const { return trace_; }

 private:
  sim::Trace trace_;
};

/// Prints "run <name>" / "halt <name>: ..." lines. Thread-safe, so one
/// instance can watch a whole submitted batch.
class ProgressObserver : public Observer {
 public:
  explicit ProgressObserver(std::ostream& out) : out_(out) {}

  void on_run_start(const RunRequest& request, const std::string& name) override;
  void on_halt(const RunReport& report, const sim::Simulator* simulator,
               const Memory* memory) override;

 private:
  std::ostream& out_;
  std::mutex mutex_;
};

} // namespace sch::api
