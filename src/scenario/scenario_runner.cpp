#include "scenario/scenario_runner.hpp"

#include <fstream>
#include <optional>
#include <ostream>
#include <stdexcept>

namespace sch::scenario {

Json sizes_to_json(const kernels::SizeMap& sizes) {
  Json o = Json::object();
  for (const auto& [k, v] : sizes) o.set(k, v);
  return o;
}

Result<std::vector<Job>> expand(const Scenario& scenario) {
  std::vector<Job> jobs;
  api::VerifyPolicy verify = api::VerifyPolicy::kOff;
  if (scenario.verify == "warn") verify = api::VerifyPolicy::kWarn;
  if (scenario.verify == "strict") verify = api::VerifyPolicy::kStrict;
  const kernels::Registry& registry = kernels::Registry::instance();
  for (usize i = 0; i < scenario.runs.size(); ++i) {
    const RunSpec& spec = scenario.runs[i];
    const std::string where = "runs[" + std::to_string(i) + "]";
    const kernels::KernelEntry* entry = registry.find(spec.kernel);
    if (entry == nullptr) {
      return Status::error("scenario: " + where + ": unknown kernel \"" +
                           spec.kernel + "\" (see `schsim list-kernels`)");
    }
    const std::vector<std::string>& variants =
        spec.variants.empty() ? entry->variants : spec.variants;
    for (const std::string& variant : variants) {
      if (!entry->has_variant(variant)) {
        return Status::error("scenario: " + where + ": kernel \"" +
                             spec.kernel + "\" has no variant \"" + variant +
                             "\"");
      }
    }

    std::vector<kernels::SizeMap> sizes;
    if (spec.sizes.empty()) {
      sizes.push_back(entry->resolve_sizes({}));
    } else {
      for (const kernels::SizeMap& s : spec.sizes) {
        try {
          sizes.push_back(entry->resolve_sizes(s));
        } catch (const std::invalid_argument& e) {
          return Status::error("scenario: " + where + ": " + e.what());
        }
      }
    }

    sim::SimConfig config;
    Status st = apply_sim_overrides(spec.sim, config);
    if (!st.is_ok()) return st; // already validated at parse; belt-and-braces

    for (const kernels::SizeMap& size : sizes) {
      for (const std::string& variant : variants) {
        for (u32 rep = 0; rep < spec.repeat; ++rep) {
          jobs.push_back(
              Job{entry, variant, size, config, spec.sim, rep, verify});
        }
      }
    }
  }
  return jobs;
}

api::RunRequest to_request(const Job& job, api::EngineSel engine,
                           api::BuildCache* cache) {
  api::RunRequest request =
      api::RunRequest::for_kernel(job.kernel->name, job.variant, job.sizes, engine);
  request.config = job.config;
  request.verify = job.verify;
  request.cache = cache;
  return request;
}

std::vector<api::RunReport> run_jobs(const std::vector<Job>& jobs,
                                     api::Engine& engine,
                                     api::EngineSel engine_sel,
                                     api::BuildCache* cache) {
  std::vector<api::RunRequest> requests;
  requests.reserve(jobs.size());
  for (const Job& job : jobs) {
    requests.push_back(to_request(job, engine_sel, cache));
  }
  return engine.run_batch(std::move(requests));
}

std::vector<api::RunReport> run_jobs(const std::vector<Job>& jobs) {
  return run_jobs(jobs, api::default_engine(), api::EngineSel::kCycle);
}

Json make_report(const Scenario& scenario, const std::vector<Job>& jobs,
                 const std::vector<api::RunReport>& reports, u32 workers) {
  Json report = Json::object();
  report.set("bench", "scenario");
  report.set("schema", api::RunReport::kSchemaVersion);
  report.set("scenario", scenario.name);
  report.set("jobs", static_cast<i64>(jobs.size()));
  i64 failures = 0;
  for (const api::RunReport& r : reports) {
    if (!r.ok) ++failures;
  }
  report.set("failures", failures);
  report.set("workers", static_cast<i64>(workers));

  Json rows = Json::array();
  for (usize i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    Json row = reports[i].to_json();
    row.set("sizes", sizes_to_json(job.sizes));
    row.set("sim", job.sim_echo.is_object() ? job.sim_echo : Json::object());
    row.set("repeat", static_cast<i64>(job.repeat_index));
    rows.push_back(std::move(row));
  }
  report.set("results", std::move(rows));
  return report;
}

Result<ScenarioOutcome> run_scenario_file(const std::string& path,
                                          const ScenarioRunOptions& options,
                                          std::ostream& log) {
  Result<Scenario> sc = load_scenario_file(path, options.sim);
  if (!sc.ok()) return sc.status();
  const Scenario scenario = std::move(sc).value();

  Result<std::vector<Job>> expanded = expand(scenario);
  if (!expanded.ok()) return expanded.status();
  const std::vector<Job> jobs = std::move(expanded).value();

  // --threads builds a dedicated engine; otherwise the process-wide shared
  // pool (SCH_SWEEP_THREADS / hardware concurrency) serves the batch.
  std::optional<api::Engine> own_engine;
  if (options.threads != 0) {
    own_engine.emplace(api::EngineConfig{.threads = options.threads});
  }
  api::Engine& engine = own_engine ? *own_engine : api::default_engine();
  // The pool grows one worker per submission, so a small batch never uses
  // more workers than it has jobs; report the effective width.
  const u32 workers = engine.worker_count() < jobs.size()
                          ? engine.worker_count()
                          : static_cast<u32>(jobs.size());

  log << "scenario '" << scenario.name << "': " << jobs.size() << " jobs on "
      << workers << " workers (engine: " << api::engine_name(options.engine);
  if (!options.sim.members().empty()) log << ", sim: " << options.sim.dump();
  log << ")\n";
  const std::vector<api::RunReport> reports =
      run_jobs(jobs, engine, options.engine, &api::default_build_cache());

  ScenarioOutcome outcome;
  outcome.jobs = static_cast<u32>(jobs.size());
  for (usize i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const api::RunReport& r = reports[i];
    log << (r.ok ? "  ok   " : "  FAIL ") << job.kernel->name << "/"
        << job.variant;
    for (const auto& [k, v] : job.sizes) log << " " << k << "=" << v;
    if (job.repeat_index != 0) log << " rep=" << job.repeat_index;
    if (r.ok) {
      if (options.engine == api::EngineSel::kIss) {
        log << ": " << r.iss_instructions << " instructions";
      } else {
        log << ": " << r.cycles << " cycles, util "
            << static_cast<int>(r.fpu_utilization * 1000) / 1000.0;
      }
    } else {
      log << ": [" << api::failure_kind_name(r.failure.kind) << "] "
          << r.error;
      ++outcome.failures;
    }
    log << "\n";
  }

  outcome.report_path = !options.output.empty()    ? options.output
                        : !scenario.output.empty() ? scenario.output
                        : "BENCH_scenario_" + scenario.name + ".json";
  std::ofstream os(outcome.report_path);
  if (!os) {
    return Status::error("scenario: cannot write " + outcome.report_path);
  }
  os << make_report(scenario, jobs, reports, workers).dump(2) << "\n";
  log << "wrote " << outcome.report_path << "\n";
  return outcome;
}

} // namespace sch::scenario
