// schsim: command-line front-end for the scalar-chaining core model.
//
//   schsim list-kernels [--json]
//       Show every kernel family in the registry: variants, size
//       parameters and defaults. --json emits a machine-readable dump for
//       tooling.
//
//   schsim run scenario.json [--out report.json] [--threads N]
//              [--engine iss|cycle|both] [--set KEY=VALUE]...
//       Expand a declarative scenario file (kernel x variants x sizes x
//       sim overrides x repeat) into a job batch, execute it on the unified
//       engine's worker pool and write one JSON report (see docs/API.md).
//         --threads N           worker threads (overrides SCH_SWEEP_THREADS
//                               and hardware concurrency)
//         --engine iss|cycle|both
//                               execution engine; `both` cross-checks the
//                               ISS against the cycle-level model
//         --set KEY=VALUE       merged into every run's "sim" object,
//                               winning over the scenario's own keys
//
//   schsim lint <scenario.json|program.s> [--json] [--strict]
//               [--set KEY=VALUE]...
//       Static verification without running a cycle: abstract-interpret
//       every program (all jobs of a scenario file, or one assembled .s
//       file) for chain-FIFO deadlocks, out-of-bounds/overlapping SSR
//       stream windows, FREP body legality, cross-hart races and DMA/stream
//       hazards (see docs/VERIFY.md). Exits nonzero iff any error-severity
//       finding (with --strict: iff any finding at all).
//         --json                emit the machine-readable lint report
//                               (schema pinned by tools/check_lint_schema.py)
//         --strict              treat warnings as failures
//         --set KEY=VALUE       configuration to analyze, e.g. cores=4 or
//                               fpu_depth=5 (chain FIFO capacity is depth+1)
//
//   schsim fuzz [--seed S] [--runs N] [--minimize|--no-minimize]
//               [--engine iss|cycle|both] [--max-harts N]
//               [--repro-dir DIR] [--replay spec.json]
//       Differential fuzzing: generate N seeded random programs over the
//       full ISA surface and run each one on the ISS and the cycle model in
//       lockstep (see docs/FUZZING.md). Any divergence, crash or hang comes
//       back as a failed report; failures are delta-debugged to a minimal
//       reproducer and written as .json + .s files under --repro-dir.
//       Exits nonzero iff any run failed.
//         --seed S              campaign seed (default 1)
//         --runs N              number of random programs (default 100)
//         --no-minimize         keep failing specs unminimized
//         --engine iss|cycle|both
//                               execution engines (default both = lockstep)
//         --max-harts N         largest cluster drawn by the generator
//         --repro-dir DIR       where reproducers are written (default .)
//         --replay spec.json    re-run one written reproducer instead of
//                               generating new programs
//
//   schsim [sim] [options] program.s
//       Assemble a RISC-V source file (with the Xssr/Xfrep/Xchain
//       extensions) and run it on the cycle-level simulator (default) or
//       the functional ISS:
//         --iss                 run on the functional ISS instead
//         --trace               print the per-cycle issue trace
//         --dataflow            print the FPU-pipeline/chain-FIFO occupancy
//         --energy              print the energy/power report
//         --set KEY=VALUE       one SimConfig field, e.g. cores=2 (the
//                               program is replicated, split by mhartid)
//         --dump ADDR COUNT     print COUNT f64 words at ADDR after the run
//
//   --set takes every key of the SimConfig field table (sim::kSimFields;
//   `schsim --help` lists them with their ranges). VALUE is a JSON scalar
//   and passes the same type and range checks as a scenario "sim" entry.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "scalarchain.hpp"

namespace {

using namespace sch;

void usage() {
  std::fprintf(stderr,
               "usage: schsim list-kernels [--json]\n"
               "       schsim run scenario.json [--out report.json] [--threads N]\n"
               "              [--engine iss|cycle|both] [--set KEY=VALUE]...\n"
               "              [--stream]\n"
               "       schsim serve [--threads N] [--port P]\n"
               "              [--build-cache N] [--report-cache N]\n"
               "              [--max-line-bytes N] [--max-jobs N]\n"
               "       schsim lint <scenario.json|program.s> [--json] [--strict]\n"
               "              [--set KEY=VALUE]...\n"
               "       schsim fuzz [--seed S] [--runs N] [--no-minimize]\n"
               "              [--engine iss|cycle|both] [--max-harts N]\n"
               "              [--repro-dir DIR] [--replay spec.json]\n"
               "       schsim [sim] [--iss] [--trace] [--dataflow] [--energy]\n"
               "              [--set KEY=VALUE]... [--dump ADDR COUNT] program.s\n"
               "\n"
               "--set KEY=VALUE sets one SimConfig field to a JSON scalar; on run\n"
               "and lint it wins over the scenario's \"sim\" keys. KEY is one of:\n");
  const sim::SimConfig defaults;
  for (const sim::SimField& f : sim::kSimFields) {
    const u64 d = f.get(defaults);
    const std::string dflt = f.kind == sim::SimField::kBool
                                 ? (d != 0 ? "true" : "false")
                                 : std::to_string(d);
    std::fprintf(stderr, "  %-26s %s (default %s)\n", f.key,
                 f.expected().c_str(), dflt.c_str());
  }
}

/// Checked unsigned parse (decimal or 0x hex). Exits with a usage error on
/// malformed/out-of-range input instead of silently reading atoi garbage.
u64 parse_u64_arg(const char* text, const char* what, u64 min, u64 max) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0' || errno == ERANGE || v < min || v > max ||
      std::strchr(text, '-') != nullptr) {
    std::fprintf(stderr, "schsim: %s: bad value '%s' (expected %llu..%llu)\n",
                 what, text, static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return static_cast<u64>(v);
}

u32 parse_u32_arg(const char* text, const char* what, u32 min, u32 max) {
  return static_cast<u32>(parse_u64_arg(text, what, min, max));
}

/// Add one `--set KEY=VALUE` pair to `sets` (a "sim" object). VALUE parses
/// as a JSON scalar and passes the same key, type and range checks as a
/// scenario "sim" entry; a malformed, invalid or repeated pair exits with a
/// usage error.
void add_set_arg(const char* text, scenario::Json& sets) {
  const auto fail = [text](const std::string& why) {
    std::fprintf(stderr, "schsim: --set %s: %s\n", text, why.c_str());
    std::exit(2);
  };
  const std::string arg = text;
  const usize eq = arg.find('=');
  if (eq == std::string::npos) fail("expected KEY=VALUE");
  const std::string key = arg.substr(0, eq);
  if (sets.get(key) != nullptr) fail("\"" + key + "\" is set twice");
  Result<scenario::Json> value = scenario::Json::parse(arg.substr(eq + 1));
  if (!value.ok()) fail(value.status().message());
  scenario::Json pair = scenario::Json::object();
  pair.set(key, value.value());
  sim::SimConfig probe;
  const Status st = scenario::apply_sim_overrides(pair, probe);
  if (!st.is_ok()) fail(st.message());
  sets.set(key, std::move(value).value());
}

void print_perf(const sim::PerfCounters& p) {
  std::printf("cycles:            %llu\n", static_cast<unsigned long long>(p.cycles));
  std::printf("instructions:      %llu int, %llu fp (%llu offloaded)\n",
              static_cast<unsigned long long>(p.int_instrs),
              static_cast<unsigned long long>(p.fp_instrs),
              static_cast<unsigned long long>(p.offloads));
  std::printf("fpu ops:           %llu (utilization %.3f)\n",
              static_cast<unsigned long long>(p.fpu_ops), p.fpu_utilization());
  // The report's "stalls" keys, in report order.
  std::printf("stalls:           ");
  for (const sim::PerfField& f : sim::kPerfFields) {
    if (f.stalls_key == nullptr) continue;
    std::printf(" %s=%llu", f.stalls_key,
                static_cast<unsigned long long>(p.*f.member));
  }
  std::printf("\n");
}

int cmd_list_kernels(int argc, char** argv) {
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "schsim list-kernels: unknown option: %s\n",
                   arg.c_str());
      return 2;
    }
  }
  const auto entries = kernels::Registry::instance().entries();
  if (json) {
    // Machine-readable registry dump for tooling (stable key order).
    scenario::Json doc = scenario::Json::object();
    scenario::Json list = scenario::Json::array();
    for (const kernels::KernelEntry* e : entries) {
      scenario::Json k = scenario::Json::object();
      k.set("name", e->name);
      k.set("description", e->description);
      scenario::Json variants = scenario::Json::array();
      for (const std::string& v : e->variants) variants.push_back(scenario::Json(v));
      k.set("variants", std::move(variants));
      k.set("baseline_variant", e->baseline_variant);
      k.set("chained_variant", e->chained_variant);
      scenario::Json params = scenario::Json::array();
      for (const kernels::ParamSpec& p : e->params) {
        scenario::Json ps = scenario::Json::object();
        ps.set("name", p.name);
        ps.set("default", p.default_value);
        ps.set("help", p.help);
        params.push_back(std::move(ps));
      }
      k.set("params", std::move(params));
      list.push_back(std::move(k));
    }
    doc.set("kernels", std::move(list));
    std::printf("%s\n", doc.dump(2).c_str());
    return 0;
  }
  std::printf("%zu registered kernels:\n\n", entries.size());
  for (const kernels::KernelEntry* e : entries) {
    std::printf("%-10s %s\n", e->name.c_str(), e->description.c_str());
    std::printf("%-10s variants:", "");
    for (const std::string& v : e->variants) std::printf(" %s", v.c_str());
    std::printf("\n%-10s sizes:   ", "");
    for (const kernels::ParamSpec& p : e->params) {
      std::printf(" %s=%lld", p.name.c_str(),
                  static_cast<long long>(p.default_value));
    }
    std::printf("\n\n");
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  std::string scenario_path;
  scenario::ScenarioRunOptions options;
  bool stream = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "schsim run: missing argument for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      options.output = next("--out");
    } else if (arg == "--threads") {
      options.threads = parse_u32_arg(next("--threads"), "--threads", 1, 4096);
    } else if (arg == "--set") {
      add_set_arg(next("--set"), options.sim);
    } else if (arg == "--engine") {
      const char* name = next("--engine");
      if (!api::parse_engine(name, options.engine)) {
        std::fprintf(stderr,
                     "schsim run: --engine: '%s' is not iss, cycle or both\n",
                     name);
        return 2;
      }
    } else if (arg == "--stream") {
      stream = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "schsim run: unknown option: %s\n", arg.c_str());
      return 2;
    } else if (scenario_path.empty()) {
      scenario_path = arg;
    } else {
      std::fprintf(stderr, "schsim run: more than one scenario file\n");
      return 2;
    }
  }
  if (scenario_path.empty()) {
    std::fprintf(stderr,
                 "usage: schsim run scenario.json [--out report.json] "
                 "[--threads N] [--engine iss|cycle|both]\n");
    return 2;
  }
  if (stream) {
    // Streamed batch: the serve-protocol NDJSON lines go to --out (or
    // stdout for `--out -`), one report line per job as it completes,
    // instead of one buffered report document at the end.
    Result<scenario::Scenario> sc =
        scenario::load_scenario_file(scenario_path, options.sim);
    if (!sc.ok()) {
      std::fprintf(stderr, "%s\n", sc.status().message().c_str());
      return 1;
    }
    serve::ScenarioStreamOptions stream_options;
    stream_options.engine = options.engine;
    stream_options.threads = options.threads;
    const scenario::Scenario& scenario = sc.value();
    const bool to_stdout =
        options.output.empty() || options.output == "-";
    std::ofstream file;
    if (!to_stdout) {
      file.open(options.output);
      if (!file) {
        std::fprintf(stderr, "schsim run: cannot write %s\n",
                     options.output.c_str());
        return 1;
      }
    }
    // NDJSON on stdout relegates the progress log to stderr.
    std::ostream& out = to_stdout ? std::cout : static_cast<std::ostream&>(file);
    std::ostream& log = to_stdout ? std::cerr : std::cout;
    const Result<serve::StreamOutcome> outcome =
        serve::run_scenario_streaming(scenario, stream_options, out, log);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().message().c_str());
      return 1;
    }
    return outcome.value().failures == 0 ? 0 : 1;
  }
  const Result<scenario::ScenarioOutcome> outcome =
      scenario::run_scenario_file(scenario_path, options, std::cout);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().message().c_str());
    return 1;
  }
  return outcome.value().failures == 0 ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  serve::ServerOptions options;
  u32 port = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "schsim serve: missing argument for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      options.threads = parse_u32_arg(next("--threads"), "--threads", 1, 4096);
    } else if (arg == "--port") {
      port = parse_u32_arg(next("--port"), "--port", 1, 65535);
    } else if (arg == "--build-cache") {
      options.build_cache_capacity =
          parse_u64_arg(next("--build-cache"), "--build-cache", 0, 1u << 20);
    } else if (arg == "--report-cache") {
      options.report_cache_capacity =
          parse_u64_arg(next("--report-cache"), "--report-cache", 0, 1u << 24);
    } else if (arg == "--max-line-bytes") {
      options.max_line_bytes = parse_u64_arg(next("--max-line-bytes"),
                                             "--max-line-bytes", 64, 1u << 30);
    } else if (arg == "--max-jobs") {
      options.max_jobs_per_request =
          parse_u64_arg(next("--max-jobs"), "--max-jobs", 1, 1u << 20);
    } else {
      std::fprintf(stderr, "schsim serve: unknown option: %s\n", arg.c_str());
      return 2;
    }
  }
  if (port != 0) {
    serve::Server server(options);
    const Status st = serve::serve_listen(server, static_cast<u16>(port),
                                          nullptr, std::cerr);
    if (!st.is_ok()) {
      std::fprintf(stderr, "%s\n", st.message().c_str());
      return 1;
    }
    return 0;
  }
  serve::Server server(options);
  std::cerr << "schsim serve: reading NDJSON requests from stdin "
               "(see docs/SERVE.md)\n";
  server.serve(std::cin, std::cout);
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  fuzz::CampaignOptions options;
  std::string replay_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "schsim fuzz: missing argument for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      options.seed = parse_u64_arg(next("--seed"), "--seed", 0, ~0ull);
    } else if (arg == "--runs") {
      options.runs = parse_u32_arg(next("--runs"), "--runs", 1, 1u << 24);
    } else if (arg == "--minimize") {
      options.minimize = true;
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--max-harts") {
      options.gen.max_harts = parse_u32_arg(next("--max-harts"), "--max-harts",
                                            1, sim::SimConfig::kMaxCores);
    } else if (arg == "--repro-dir") {
      options.repro_dir = next("--repro-dir");
    } else if (arg == "--replay") {
      replay_path = next("--replay");
    } else if (arg == "--engine") {
      const char* name = next("--engine");
      if (!api::parse_engine(name, options.exec.engine)) {
        std::fprintf(stderr,
                     "schsim fuzz: --engine: '%s' is not iss, cycle or both\n",
                     name);
        return 2;
      }
    } else {
      std::fprintf(stderr, "schsim fuzz: unknown option: %s\n", arg.c_str());
      return 2;
    }
  }

  if (!replay_path.empty()) {
    std::ifstream file(replay_path);
    if (!file) {
      std::fprintf(stderr, "schsim fuzz: cannot open %s\n",
                   replay_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << file.rdbuf();
    const Result<scenario::Json> doc = scenario::Json::parse(ss.str());
    if (!doc.ok()) {
      std::fprintf(stderr, "schsim fuzz: %s: %s\n", replay_path.c_str(),
                   doc.status().message().c_str());
      return 2;
    }
    fuzz::ProgramSpec spec;
    const Status st = fuzz::spec_from_json(doc.value(), spec);
    if (!st.is_ok()) {
      std::fprintf(stderr, "schsim fuzz: %s: %s\n", replay_path.c_str(),
                   st.message().c_str());
      return 2;
    }
    const api::RunReport report = fuzz::run_spec(spec, options.exec);
    if (!report.ok) {
      std::printf("FAIL [%s]: %s\n",
                  api::failure_kind_name(report.failure.kind),
                  report.error.c_str());
      return 1;
    }
    std::printf("OK: %s (%llu cycles, %llu iss instructions)\n",
                report.name.c_str(),
                static_cast<unsigned long long>(report.cycles),
                static_cast<unsigned long long>(report.iss_instructions));
    return 0;
  }

  const fuzz::CampaignResult result = fuzz::run_campaign(options, std::cout);
  std::printf("fuzz: %u/%u runs ok (seed 0x%llx, engine %s)\n",
              result.runs - result.failures, result.runs,
              static_cast<unsigned long long>(options.seed),
              api::engine_name(options.exec.engine));
  return result.failures == 0 ? 0 : 1;
}

/// `schsim lint`: run the static verifier over a scenario's jobs or one
/// assembled .s program, without executing anything.
int cmd_lint(int argc, char** argv) {
  bool want_json = false;
  bool strict = false;
  scenario::Json sets = scenario::Json::object();
  std::string path;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing argument for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") want_json = true;
    else if (arg == "--strict") strict = true;
    else if (arg == "--set") add_set_arg(next("--set"), sets);
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "more than one lint target\n");
      usage();
      return 2;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }

  // One analyzed unit: a scenario job or the single .s program.
  struct LintRow {
    std::string name;
    verify::Report report;
  };
  std::vector<LintRow> rows;

  const bool is_scenario =
      path.size() > 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (is_scenario) {
    const Result<scenario::Scenario> sc =
        scenario::load_scenario_file(path, sets);
    if (!sc.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   sc.status().message().c_str());
      return 2;
    }
    const Result<std::vector<scenario::Job>> jobs =
        scenario::expand(sc.value());
    if (!jobs.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   jobs.status().message().c_str());
      return 2;
    }
    for (const scenario::Job& job : jobs.value()) {
      if (job.repeat_index != 0) continue;  // repeats analyze identically
      LintRow row;
      row.name = job.kernel->name + "/" + job.variant;
      try {
        const kernels::BuiltKernel built =
            job.kernel->build(job.variant, job.sizes);
        row.report = verify::analyze(built.program, job.config, &built.regions);
      } catch (const std::exception& e) {
        verify::Finding f;
        f.kind = verify::FindingKind::kAnalysisLimit;
        f.severity = verify::Severity::kError;
        f.message = std::string("kernel build failed: ") + e.what();
        row.report.findings.push_back(std::move(f));
        row.report.complete = false;
      }
      rows.push_back(std::move(row));
    }
  } else {
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << file.rdbuf();
    auto assembled = assembler::assemble(ss.str());
    if (!assembled.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   assembled.status().message().c_str());
      return 2;
    }
    sim::SimConfig cfg;
    (void)scenario::apply_sim_overrides(sets, cfg);  // checked by add_set_arg
    LintRow row;
    row.name = path;
    row.report = verify::analyze(assembled.value(), cfg);
    rows.push_back(std::move(row));
  }

  u32 errors = 0, warnings = 0;
  for (const LintRow& row : rows) {
    errors += row.report.errors();
    warnings += row.report.warnings();
  }

  if (want_json) {
    scenario::Json doc = scenario::Json::object();
    doc.set("schema", verify::Report::kLintSchemaVersion);
    doc.set("target", path);
    doc.set("errors", static_cast<i64>(errors));
    doc.set("warnings", static_cast<i64>(warnings));
    scenario::Json arr = scenario::Json::array();
    for (const LintRow& row : rows) {
      scenario::Json j = row.report.to_json();
      j.set("name", row.name);
      arr.push_back(std::move(j));
    }
    doc.set("runs", std::move(arr));
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    for (const LintRow& row : rows) {
      for (const verify::Finding& f : row.report.findings) {
        std::printf("%s: %s: [%s] ", row.name.c_str(),
                    verify::severity_name(f.severity),
                    verify::finding_kind_name(f.kind));
        if (f.hart >= 0) std::printf("hart %d ", f.hart);
        if (f.pc >= 0) std::printf("pc 0x%llx ",
                                   static_cast<unsigned long long>(f.pc));
        std::printf("%s\n", f.message.c_str());
      }
    }
    std::printf("%zu unit%s analyzed: %u error%s, %u warning%s\n", rows.size(),
                rows.size() == 1 ? "" : "s", errors, errors == 1 ? "" : "s",
                warnings, warnings == 1 ? "" : "s");
  }
  if (errors > 0) return 1;
  if (strict && warnings > 0) return 1;
  return 0;
}

int cmd_sim(int argc, char** argv) {
  bool use_iss = false, want_trace = false, want_dataflow = false,
       want_energy = false;
  sim::SimConfig cfg;
  scenario::Json sets = scenario::Json::object();
  std::string path;
  Addr dump_addr = 0;
  u32 dump_count = 0;

  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing argument for %s\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--iss") use_iss = true;
    else if (arg == "--trace") want_trace = true;
    else if (arg == "--dataflow") want_dataflow = true;
    else if (arg == "--energy") want_energy = true;
    else if (arg == "--set") add_set_arg(next("--set"), sets);
    else if (arg == "--dump") {
      dump_addr = static_cast<Addr>(
          parse_u64_arg(next("--dump"), "--dump ADDR", 0, 0xFFFFFFFFull));
      dump_count = parse_u32_arg(next("--dump COUNT"), "--dump COUNT", 1,
                                 1u << 20);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "more than one program file\n");
      usage();
      return 2;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }

  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << file.rdbuf();

  auto assembled = assembler::assemble(ss.str());
  if (!assembled.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 assembled.status().message().c_str());
    return 1;
  }
  Program program = std::move(assembled).value();
  std::printf("%s: %zu instructions, %zu data bytes\n", path.c_str(),
              program.num_instrs(), program.data.size());

  // An Observer probe that snapshots the requested memory window while the
  // final machine state is still alive (the engine owns the run's memory).
  struct DumpObserver : api::Observer {
    Addr addr = 0;
    u32 count = 0;
    std::vector<double> values;
    void on_halt(const api::RunReport&, const sim::Simulator*,
                 const Memory* memory) override {
      if (memory == nullptr) return;
      for (u32 i = 0; i < count; ++i) {
        values.push_back(memory->load_f64(addr + 8 * i));
      }
    }
  };

  api::RunRequest request = api::RunRequest::for_program(
      std::move(program), path, use_iss ? api::EngineSel::kIss : api::EngineSel::kCycle);
  (void)scenario::apply_sim_overrides(sets, cfg);  // checked by add_set_arg
  request.config = cfg;
  api::ProgressObserver progress(std::cout);
  api::TraceObserver tracer;
  DumpObserver dumper;
  dumper.addr = dump_addr;
  dumper.count = dump_count;
  request.observers.push_back(&progress);
  if (want_trace || want_dataflow) request.observers.push_back(&tracer);
  if (dump_count > 0) request.observers.push_back(&dumper);

  const api::RunReport report = api::run(request);
  int status = 0;
  if (!report.ok) {
    std::fprintf(stderr, "abnormal halt [%s]: %s\n",
                 api::failure_kind_name(report.failure.kind),
                 report.error.c_str());
    status = 1;
  }
  if (use_iss) {
    std::printf("ISS: %llu instructions retired\n",
                static_cast<unsigned long long>(report.iss_instructions));
  } else {
    print_perf(report.perf);
    if (want_energy) {
      std::printf("%s", energy::format_report(report.energy).c_str());
    }
    if (want_trace) {
      std::printf("\n%s", tracer.trace().format_issue_table().c_str());
    }
    if (want_dataflow) {
      std::printf("\n%s", tracer.trace().format_dataflow(128).c_str());
    }
  }

  if (dump_count > 0) {
    std::printf("\nmemory dump @ 0x%x:\n", dump_addr);
    for (u32 i = 0; i < dumper.values.size(); ++i) {
      std::printf("  [%3u] %g\n", i, dumper.values[i]);
    }
  }
  return status;
}

} // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string cmd = argv[1];
    if (cmd == "list-kernels") return cmd_list_kernels(argc - 2, argv + 2);
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (cmd == "lint") return cmd_lint(argc - 2, argv + 2);
    if (cmd == "fuzz") return cmd_fuzz(argc - 2, argv + 2);
    if (cmd == "sim") return cmd_sim(argc - 2, argv + 2);
    if (cmd == "--help" || cmd == "-h") {
      usage();
      return 0;
    }
  }
  // Legacy spelling: `schsim [options] program.s`.
  return cmd_sim(argc - 1, argv + 1);
}
