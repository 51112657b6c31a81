// Batch execution of an expanded scenario through the unified execution
// engine: every job becomes one api::RunRequest, the batch goes through
// api::Engine::submit on the shared worker pool, and reports come back in
// deterministic per-job order (report order never depends on scheduling).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "api/build_cache.hpp"
#include "api/engine.hpp"
#include "kernels/registry.hpp"
#include "scenario/scenario.hpp"

namespace sch::scenario {

/// One fully-resolved simulation job.
struct Job {
  const kernels::KernelEntry* kernel = nullptr;
  std::string variant;
  kernels::SizeMap sizes;  // registry defaults + scenario overrides
  sim::SimConfig config;
  Json sim_echo;           // the override object, echoed into the report
  u32 repeat_index = 0;
  /// Scenario-wide static-verification policy (see Scenario::verify).
  api::VerifyPolicy verify = api::VerifyPolicy::kOff;
};

/// Expand kernel x variants x sizes x repeat, in file order. Unknown
/// kernels, variants and size-parameter names are errors.
Result<std::vector<Job>> expand(const Scenario& scenario);

/// Translate one job into the engine vocabulary. `cache` (borrowed,
/// nullable, must outlive the run) lets repeated shapes share one build.
api::RunRequest to_request(const Job& job,
                           api::EngineSel engine = api::EngineSel::kCycle,
                           api::BuildCache* cache = nullptr);

/// Submit all jobs to `engine`; reports[i] corresponds to jobs[i]. A job
/// whose build throws or whose output mismatches the golden reports
/// ok=false with the error message -- it never aborts the batch.
std::vector<api::RunReport> run_jobs(const std::vector<Job>& jobs,
                                     api::Engine& engine,
                                     api::EngineSel engine_sel = api::EngineSel::kCycle,
                                     api::BuildCache* cache = nullptr);

/// The sizes echo object used in report rows ({"n": 256, ...}); exposed for
/// the serve layer's streamed report lines.
Json sizes_to_json(const kernels::SizeMap& sizes);

/// Same, on the process-wide api::default_engine().
std::vector<api::RunReport> run_jobs(const std::vector<Job>& jobs);

/// Assemble the machine-readable report: per-job RunReport::to_json() rows
/// (the versioned schema) plus the job echo (sizes/sim/repeat).
Json make_report(const Scenario& scenario, const std::vector<Job>& jobs,
                 const std::vector<api::RunReport>& reports, u32 workers);

struct ScenarioOutcome {
  u32 jobs = 0;
  u32 failures = 0;
  std::string report_path;
};

/// Front-end knobs forwarded by `schsim run`.
struct ScenarioRunOptions {
  std::string output;  // non-empty wins over the scenario's "output"
  u32 threads = 0;     // 0 => SCH_SWEEP_THREADS / hw concurrency
  api::EngineSel engine = api::EngineSel::kCycle;
  /// `--set key=value` pairs, merged over every run's "sim" object by
  /// load_scenario_file: they win over the scenario's own keys.
  Json sim = Json::object();
};

/// Load + expand + run + report in one call (the `schsim run` entry point).
/// When `options.output` and the scenario's "output" are both empty,
/// derives "BENCH_scenario_<name>.json". Progress lines go to `log`.
/// Registry builds go through the process-wide api::default_build_cache(),
/// so repeated shapes within a sweep -- and across sweeps in one process --
/// skip kernel build + predecode (reports are bit-identical either way).
Result<ScenarioOutcome> run_scenario_file(const std::string& path,
                                          const ScenarioRunOptions& options,
                                          std::ostream& log);

} // namespace sch::scenario
