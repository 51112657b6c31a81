// The closed loop shared by paper_sweep and fuzz_lockstep: one client, a
// fixed list of operations that each return a RunReport, repeated for a
// fixed number of passes. Pass 0 runs in list order, so the resident set
// it leaves does not depend on the seed; later passes run in a seeded
// shuffled order. A traced run interleaves traced passes with untraced ones
// so both see the same host phases.
#pragma once

#include <functional>

#include "trace.hpp"

namespace perfbench {

/// What the untraced passes measured.
struct LoopResult {
  std::vector<sch::api::RunReport> first;    // pass-0 report per operation
  std::vector<std::string> fingerprints;     // pass-0 deterministic fields
  std::vector<std::vector<double>> latency;  // [pass][op] seconds
  std::vector<std::vector<double>> wall_s;   // [pass][op] the engine's own clock
  double rss_mib = 0;                        // peak resident set after pass 0
  u64 attempted = 0;
  u64 failed = 0;
  usize passes = 0;
};

std::vector<usize> pass_order(u64 seed, usize pass, usize n);

/// Operation `i` through the program's public entry point.
using RunOp = std::function<sch::api::RunReport(usize i)>;
/// Operation `i` replayed layer by layer under `op`'s spans.
using ReplayOp = std::function<sch::api::RunReport(usize i, Tracer& tracer, u32 op)>;

/// `passes` untraced passes over `n` operations. Every report must be ok
/// and every pass must reproduce pass 0. With `traced`, one traced pass
/// runs after each untraced pass.
LoopResult run_loop(usize n, u64 seed, usize passes, const RunOp& run,
                    Outcome& out, const ReplayOp* replay = nullptr,
                    TracedRun* traced = nullptr);

/// The end-to-end metrics of a loop run (paper_util_err excepted). Host
/// times use each operation's `op_percentile`-th percentile over the passes
/// (0: its best).
void add_loop_metrics(const LoopResult& u, const Metric& setup, double op_percentile,
                      Outcome& out);

/// Derived self times and the per-layer report. Time in `outside` (a layer
/// that runs inside the operation but outside Engine::run, or kCount for
/// none) is not subtracted from the engine's own time.
void finish_loop_trace(const LoopResult& u, Layer outside, const Options& opt,
                       TracedRun& t, Outcome& out);

} // namespace perfbench
