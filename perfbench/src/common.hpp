// Shared plumbing of the repository benchmark: options, the benchmark's own
// input generator, digests, estimators, metric output and host metadata.
// The workloads themselves live in serve_mixed.cpp, paper_sweep.cpp and
// fuzz_lockstep.cpp; perfbench/README.md defines every metric.
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "api/run_report.hpp"
#include "scenario/json.hpp"
#include "sim/perf.hpp"
#include "common/types.hpp"

namespace perfbench {

using sch::i64;
using sch::u32;
using sch::u64;
using sch::usize;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build";  // trace files go here
  std::string self_exe;                  // this binary (setup probes re-run it)
};

/// Untraced passes a run makes: `per_second` x --seconds, at least two. The
/// count is fixed before the run starts, so the per-operation estimators
/// see as many samples on a fast build or host phase as on a slow one. A
/// traced run makes half as many untraced passes, each followed by a traced
/// one. `per_second` is the workload's pass rate at the benchmark's baseline
/// (perfbench/README.md), so a run lasts about --seconds there.
usize pass_count(const Options& opt, double per_second);

/// splitmix64. The benchmark draws its traffic with its own generator so
/// that a change to the program's RNGs never changes the benchmark inputs.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed ^ 0x5DEECE66DULL) {}
  u64 next() {
    u64 z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  usize below(usize n) { return static_cast<usize>(next() % n); }
  bool chance(u32 percent) { return below(100) < percent; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (usize i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  u64 state_;
};

/// FNV-1a over the generated inputs: two runs that print the same digest
/// sent identical traffic.
class Digest {
 public:
  void add(std::string_view s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001B3ULL;
    h_ = (h_ ^ 0xFF) * 0x100000001B3ULL;  // separator
  }
  [[nodiscard]] std::string hex() const;

 private:
  u64 h_ = 0xCBF29CE484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  u64 samples = 0;     // how many measurements the value summarizes
  std::string detail;  // estimator / percentile actually used
};

/// Everything one run reports. `errors` lists failed output checks; any
/// entry makes the run incorrect.
struct Outcome {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  // printed before the result line

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void add(std::string name, double value, std::string unit, u64 samples,
           std::string detail = "") {
    metrics.push_back({std::move(name), value, std::move(unit), samples,
                       std::move(detail)});
  }
};

// --- estimators -------------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// The tail percentile the benchmark may report from `n` samples: the
/// requested one when at least ten samples lie beyond it, otherwise the
/// highest percentile that still has ten beyond it (0 when n < 11).
double usable_tail_percentile(usize n, double wanted = 99.0);

/// Each operation's latency over the passes (seconds; `per_op` names the
/// statistic, e.g. "best") -> latency_p50_ms and latency_p99_ms (p99, or
/// the highest percentile with ten operations beyond it), with the
/// percentile actually used in the detail. The spread across operations is
/// the traffic's own.
void add_latency_metrics(Outcome& out, const std::vector<double>& op_s,
                         const std::string& per_op);

/// Per-operation nearest-rank percentile over passes: `times[pass][op]` ->
/// one value per op.
std::vector<double> percentile_per_op(const std::vector<std::vector<double>>& times,
                                      double p);
/// Per-operation minimum over passes.
inline std::vector<double> best_per_op(const std::vector<std::vector<double>>& times) {
  return percentile_per_op(times, 0);
}

// --- deterministic report aggregates ------------------------------------------

/// Simulated-work totals over a set of cycle-engine reports; the
/// deterministic end-to-end metrics are ratios of these sums.
struct SimTotals {
  u64 reports = 0;      // reports that carry cycle-engine results
  u64 cycles = 0;
  u64 core_cycles = 0;  // Σ cycles x cores
  u64 fpu_ops = 0;
  double energy_pj = 0; // Σ energy_per_cycle_pj * cycles

  void add(u64 report_cycles, u64 cores, u64 report_fpu_ops,
           double energy_per_cycle_pj);
  void add(const sch::api::RunReport& r) {
    add(r.cycles, r.num_cores, r.perf.fpu_ops, r.energy.energy_per_cycle_pj);
  }
  /// FPU utilization of the whole pass: FPU ops per core-cycle.
  [[nodiscard]] double utilization() const {
    return core_cycles == 0 ? 0 : static_cast<double>(fpu_ops) / static_cast<double>(core_cycles);
  }
  /// Σ FPU ops / Σ modelled energy, in GOPS/W (= ops per nJ).
  [[nodiscard]] double gops_per_w() const {
    return energy_pj == 0 ? 0 : static_cast<double>(fpu_ops) / energy_pj * 1e3;
  }
};

/// sim_cycles, fpu_util and fpu_gops_per_w of one pass.
void add_sim_metrics(Outcome& out, const SimTotals& t);

/// The Fig. 3 configurations the paper reports utilization for: box3d1r
/// and j3d27pt x the five stencil variants, 12^3 grid, one core.
struct PaperConfig {
  std::string kernel;
  std::string variant;
  double paper_util;  // bench::PaperRef
};
std::vector<PaperConfig> paper_configs();

/// Mean |modelled - paper| utilization; `modelled[i]` belongs to
/// paper_configs()[i].
double paper_util_error(const std::vector<double>& modelled);

/// Run the paper configurations through api::Engine::run (untimed, checked
/// like any other report) and return paper_util_error of the results.
double measure_paper_util_error(Outcome& out);

/// A report row with the host-time field (wall_s) removed: everything
/// left is deterministic for the job, so equal fingerprints mean equal
/// cycles, counters, TCDM, DMA, energy and ISS results.
std::string fingerprint(const sch::scenario::Json& report_row);

/// First key of `expected` (wall_s, the pass/fail verdict and the serve
/// echo keys excepted) whose value differs in `actual`; "" when all agree.
std::string first_difference(const sch::scenario::Json& actual,
                             const sch::scenario::Json& expected);

/// Stall, traffic and energy sums over a pass's cycle-engine reports: the
/// deterministic per-layer shares.
struct StallTotals {
  sch::sim::PerfCounters perf;  // summed over reports
  u64 cycles = 0;               // Σ cluster cycles
  u64 core_cycles = 0;          // Σ cluster cycles x cores
  u64 tcdm_accesses = 0;
  u64 tcdm_conflicts = 0;
  u64 dma_busy = 0;
  u64 dma_bytes = 0;
  double energy_pj = 0;

  void add(const sch::api::RunReport& r);
};

/// Inputs of the per-layer metrics that a workload derives itself. Times
/// are per pass, in seconds, from best-of-passes estimates.
struct LayerExtras {
  u64 executed_jobs = 0;      // replayed engine runs per pass
  double op_time_s = 0;       // Σ best client-visible latency per operation
  double serve_self_s = 0;    // Σ request latency minus replayed child spans
  double queue_wait_s = 0;    // Σ time operations spent outside Engine::run
  u64 queue_wait_ops = 0;     // operations the wait is averaged over
  double engine_self_s = 0;   // Σ engine wall_s minus replayed layer spans
  double report_hit_ratio = 0;
  double build_hit_ratio = 0;
  double overhead_ratio = 0;  // traced / untraced reports per second
  u64 iss_instructions = 0;   // per pass, replayed
  u64 sim_cycles = 0;         // per pass, replayed
  StallTotals stalls;
};

// --- host -------------------------------------------------------------------

double peak_rss_mib();

/// Median of 41 cold set-ups, each in a fresh child process running this
/// binary with --setup-probe (the registry and other first-use state are
/// per process, so only a new process repeats them).
Metric measure_setup(const Options& opt);

/// Set-up of one workload inside a probe process; returns its seconds.
double setup_probe(const Options& opt);

class LayerProfile;
/// Every per-layer metric, in BENCHMARK.json order.
void add_layer_metrics(Outcome& out, const LayerProfile& profile,
                       const LayerExtras& extras);

// --- workloads ----------------------------------------------------------------

Outcome run_serve_mixed(const Options& opt);
Outcome run_paper_sweep(const Options& opt);
Outcome run_fuzz_lockstep(const Options& opt);

double serve_mixed_setup(const Options& opt);
double paper_sweep_setup(const Options& opt);
double fuzz_lockstep_setup(const Options& opt);

} // namespace perfbench
