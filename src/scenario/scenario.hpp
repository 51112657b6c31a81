// Declarative scenario files: one JSON document describes a batch of
// simulations (kernel x variants x sizes x sim-config overrides x repeat)
// that the runner expands into a deterministic job list. Schema:
//
//   {
//     "name": "smoke",                 // report label (required)
//     "output": "report.json",         // default report path (optional)
//     "sim": { "fpu_depth": 3 },       // base overrides for every run (opt)
//     "repeat": 1,                     // default repeat count (optional)
//     "runs": [                        // at least one run
//       {
//         "kernel": "axpy",            // registry name (required)
//         "variants": ["baseline", "chained"],  // default: all registered
//         "sizes": [{"n": 256}, {"n": 1024}],   // default: registry defaults
//         "sim": { "fpu_depth": 5 },   // merged over the base overrides
//         "repeat": 3                  // timing repeats of each job
//       }
//     ]
//   }
//
// `//` line comments are allowed (see scenario/json.hpp). Sim-config
// override keys, types and ranges are the rows of sim::kSimFields; unknown
// keys, kernels, variants and size parameters and out-of-range values are
// hard errors, not silent no-ops.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "kernels/registry.hpp"
#include "scenario/json.hpp"
#include "sim/sim_config.hpp"

namespace sch::scenario {

/// One `runs[]` entry, unexpanded.
struct RunSpec {
  std::string kernel;
  std::vector<std::string> variants;    // empty => all registered variants
  std::vector<kernels::SizeMap> sizes;  // empty => registered defaults
  u32 repeat = 1;
  Json sim;  // merged base+run override object (possibly empty object)
};

struct Scenario {
  std::string name;
  std::string output;  // "" => caller derives a path
  /// Static-verification policy applied to every job: "" or "off" (skip),
  /// "warn" (analyze, report findings, still run), "strict" (error findings
  /// fail the job before execution). Top-level `"verify"` key.
  std::string verify;
  std::vector<RunSpec> runs;
};

/// Parse and structurally validate a scenario document.
Result<Scenario> parse_scenario(const std::string& json_text);

/// Parse and validate one `runs[]`-shaped object (strict unknown-key
/// rejection, sim-override probe). `index` only labels error messages;
/// `base_sim` is merged under the entry's own "sim". Exposed for the serve
/// layer, whose NDJSON run requests carry the same shape inline.
Result<RunSpec> parse_run_spec(const Json& run, usize index,
                               const Json& base_sim, u32 default_repeat);

/// Read `path`, parse it, and merge `sim_overrides` (e.g. the `schsim --set`
/// pairs) over every run's "sim" object, these keys winning -- so the jobs,
/// their report `sim` echo and the cache key all see the same values.
Result<Scenario> load_scenario_file(const std::string& path,
                                    const Json& sim_overrides = Json::object());

/// Apply a `"sim"` override object onto `config`. The accepted keys, their
/// types and ranges are the rows of sim::kSimFields; unknown keys, wrong
/// types and out-of-range values are errors naming the key.
Status apply_sim_overrides(const Json& overrides, sim::SimConfig& config);

} // namespace sch::scenario
