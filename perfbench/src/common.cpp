#include "common.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "api/engine.hpp"
#include "bench_common.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {

using sch::scenario::Json;

std::string Digest::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

usize pass_count(const Options& opt, double per_second) {
  const double passes = opt.seconds * per_second / (opt.trace ? 2.0 : 1.0);
  return std::max<usize>(2, static_cast<usize>(std::lround(passes)));
}

// --- estimators -------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const usize idx = rank < 1 ? 0 : static_cast<usize>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double usable_tail_percentile(usize n, double wanted) {
  if (n <= 10) return 50;
  const double limit = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  if (wanted <= limit) return wanted;
  return std::max(50.0, std::floor(limit * 10.0) / 10.0);
}

void add_latency_metrics(Outcome& out, const std::vector<double>& op_s,
                         const std::string& per_op) {
  const usize n = op_s.size();
  const double tail = usable_tail_percentile(n);
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "nearest-rank p50 over %zu operations' %s latency", n, per_op.c_str());
  out.add("latency_p50_ms", percentile(op_s, 50) * 1e3, "ms", n, detail);
  std::snprintf(detail, sizeof(detail), "nearest-rank p%.1f over %zu operations' %s latency",
                tail, n, per_op.c_str());
  out.add("latency_p99_ms", percentile(op_s, tail) * 1e3, "ms", n, detail);
}

std::vector<double> percentile_per_op(const std::vector<std::vector<double>>& times,
                                      double p) {
  if (times.empty()) return {};
  std::vector<double> out(times.front().size());
  std::vector<double> samples(times.size());
  for (usize op = 0; op < out.size(); ++op) {
    for (usize pass = 0; pass < times.size(); ++pass) samples[pass] = times[pass][op];
    out[op] = percentile(samples, p);
  }
  return out;
}

// --- deterministic aggregates -------------------------------------------------

void SimTotals::add(u64 report_cycles, u64 cores, u64 report_fpu_ops,
                    double energy_per_cycle_pj) {
  if (report_cycles == 0) return;
  ++reports;
  cycles += report_cycles;
  core_cycles += report_cycles * cores;
  fpu_ops += report_fpu_ops;
  energy_pj += energy_per_cycle_pj * static_cast<double>(report_cycles);
}

void add_sim_metrics(Outcome& out, const SimTotals& t) {
  out.add("sim_cycles", static_cast<double>(t.cycles), "cycles", t.reports,
          "simulated cycles of the pass's distinct jobs (deterministic)");
  out.add("fpu_util", t.utilization(), "ratio", t.reports,
          "FPU ops per core-cycle over the pass's cycle-engine reports");
  out.add("fpu_gops_per_w", t.gops_per_w(), "GOPS/W", t.reports,
          "sum FPU ops / sum modelled energy");
}

std::vector<PaperConfig> paper_configs() {
  static const char* const kVariants[] = {"Base--", "Base-", "Base", "Chaining",
                                          "Chaining+"};
  const sch::bench::PaperRef ref;
  std::vector<PaperConfig> configs;
  for (u32 v = 0; v < 5; ++v) configs.push_back({"box3d1r", kVariants[v], ref.util_box[v]});
  for (u32 v = 0; v < 5; ++v) configs.push_back({"j3d27pt", kVariants[v], ref.util_j3d[v]});
  return configs;
}

double paper_util_error(const std::vector<double>& modelled) {
  const std::vector<PaperConfig> configs = paper_configs();
  double sum = 0;
  for (usize i = 0; i < configs.size(); ++i) {
    sum += std::fabs(modelled[i] - configs[i].paper_util);
  }
  return sum / static_cast<double>(configs.size());
}

double measure_paper_util_error(Outcome& out) {
  sch::api::Engine engine(sch::api::EngineConfig{.threads = 1});
  std::vector<double> modelled;
  for (const PaperConfig& c : paper_configs()) {
    const sch::api::RunReport r =
        engine.run(sch::api::RunRequest::for_kernel(c.kernel, c.variant));
    out.check(r.ok, "paper configuration " + c.kernel + "/" + c.variant +
                        " failed: " + r.error);
    modelled.push_back(r.fpu_utilization);
  }
  return paper_util_error(modelled);
}

std::string fingerprint(const Json& report_row) {
  Json copy = Json::object();
  for (const auto& [key, value] : report_row.members()) {
    if (key != "wall_s") copy.set(key, value);
  }
  return copy.dump();
}

std::string first_difference(const Json& actual, const Json& expected) {
  static const std::set<std::string> kSkipped = {
      "wall_s", "ok", "error", "failure", "mismatches", "lockstep_mismatches",
      "name", "kernel", "variant", "sizes", "sim", "repeat"};
  for (const auto& [key, value] : expected.members()) {
    if (kSkipped.count(key) != 0) continue;
    const Json* got = actual.get(key);
    if (got == nullptr || got->dump() != value.dump()) return key;
  }
  return "";
}

void StallTotals::add(const sch::api::RunReport& r) {
  if (r.cycles == 0) return;
  perf += r.perf;
  cycles += r.cycles;
  core_cycles += r.cycles * r.num_cores;
  tcdm_accesses += r.tcdm_reads + r.tcdm_writes;
  tcdm_conflicts += r.tcdm_conflicts;
  dma_busy += r.dma.busy_cycles;
  dma_bytes += r.dma.bytes;
  energy_pj += r.energy.energy_per_cycle_pj * static_cast<double>(r.cycles);
}

namespace {

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

} // namespace

void add_layer_metrics(Outcome& out, const LayerProfile& p, const LayerExtras& x) {
  const std::string best_of = "best of " + std::to_string(p.passes()) + " passes";
  const auto sum_best = [&](Layer layer) {
    double s = 0;
    for (usize op = 0; op < p.ops(); ++op) s += p.best(op, layer);
    return s;
  };
  const auto us_per = [&](const char* name, double seconds, double calls) {
    out.add(name, ratio(seconds, calls) * 1e6, "us", static_cast<u64>(calls),
            "self time per call, " + best_of);
  };
  const auto share = [&](const char* name, double seconds) {
    out.add(name, ratio(seconds, x.op_time_s), "ratio", p.passes(),
            "share of the pass's client-visible host time, " + best_of);
  };
  const double jobs = static_cast<double>(x.executed_jobs);

  // Host time per call of the layers every workload runs.
  us_per("api.queue_wait_us", x.queue_wait_s, static_cast<double>(x.queue_wait_ops));
  us_per("api.engine_self_us", x.engine_self_s, jobs);
  // Two Memory objects per run; their destruction is most of the teardown.
  us_per("mem.setup_us", sum_best(Layer::kMem) + sum_best(Layer::kTeardown), 2 * jobs);
  us_per("sim.setup_us", sum_best(Layer::kSimSetup),
         static_cast<double>(p.calls(Layer::kSimSetup)));
  us_per("sim.run_us", sum_best(Layer::kSimRun), static_cast<double>(p.calls(Layer::kSimRun)));
  us_per("energy.evaluate_us", sum_best(Layer::kEnergy),
         static_cast<double>(p.calls(Layer::kEnergy)));
  // Layers only some workloads run, as shares of host time: 0 where the
  // layer is not on the workload's path (their us per call is in the table).
  share("scenario.parse_share", sum_best(Layer::kParse));
  share("serve.self_share", x.serve_self_s);
  share("api.to_json_share", sum_best(Layer::kToJson));
  share("kernels.build_share", sum_best(Layer::kBuild));
  share("asm.predecode_share", sum_best(Layer::kPredecode));
  share("verify.analyze_share", sum_best(Layer::kVerify));
  share("iss.run_share", sum_best(Layer::kIss));
  share("fuzz.generate_share", sum_best(Layer::kGenerate));
  // Work counts per pass and rates.
  out.add("kernels.builds", static_cast<double>(p.calls(Layer::kBuild)), "count", 1);
  out.add("verify.calls", static_cast<double>(p.calls(Layer::kVerify)), "count", 1);
  out.add("mem.setups", 2 * jobs, "count", 1);
  out.add("iss.mips", ratio(static_cast<double>(x.iss_instructions), sum_best(Layer::kIss)) / 1e6,
          "MIPS", p.calls(Layer::kIss), best_of);
  out.add("sim.run_cycles_per_s", ratio(static_cast<double>(x.sim_cycles), sum_best(Layer::kSimRun)),
          "cycles/s", p.calls(Layer::kSimRun), best_of);
  out.add("serve.report_hit_ratio", x.report_hit_ratio, "ratio", 1, "from the stats line");
  out.add("serve.build_hit_ratio", x.build_hit_ratio, "ratio", 1, "from the stats line");

  // Deterministic model counters of the pass's simulated reports.
  const StallTotals& s = x.stalls;
  const auto stall = [&](const char* name, u64 count) {
    out.add(name, ratio(static_cast<double>(count), static_cast<double>(s.core_cycles)),
            "ratio", 1, "share of core-cycles (deterministic)");
  };
  stall("sim.fp_raw_share", s.perf.stall_fp_raw);
  stall("sim.fpu_busy_share", s.perf.stall_fpu_busy);
  stall("sim.fp_lsu_share", s.perf.stall_fp_lsu);
  stall("sim.fp_idle_share", s.perf.fp_queue_empty);
  stall("sim.offload_full_share", s.perf.stall_offload_full);
  stall("core.chain_full_share", s.perf.stall_chain_full);
  stall("core.chain_empty_share", s.perf.stall_chain_empty);
  stall("ssr.empty_share", s.perf.stall_ssr_empty);
  stall("ssr.wfull_share", s.perf.stall_ssr_wfull);
  out.add("dma.busy_share", ratio(static_cast<double>(s.dma_busy), static_cast<double>(s.cycles)),
          "ratio", 1, "DMA busy cycles / cluster cycles (deterministic)");
  out.add("tcdm.conflict_ratio",
          ratio(static_cast<double>(s.tcdm_conflicts), static_cast<double>(s.tcdm_accesses)),
          "ratio", 1, "conflicts / accesses (deterministic)");
  out.add("dma.bytes_per_cycle", ratio(static_cast<double>(s.dma_bytes), static_cast<double>(s.cycles)),
          "B/cycle", 1, "deterministic");
  out.add("energy.pj_per_fpu_op", ratio(s.energy_pj, static_cast<double>(s.perf.fpu_ops)), "pJ", 1,
          "modelled energy / FPU ops (deterministic)");
  out.add("trace.overhead_ratio", x.overhead_ratio, "ratio", 1,
          "traced reports_per_s / untraced reports_per_s");
}

// --- host -------------------------------------------------------------------

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Metric measure_setup(const Options& opt) {
  // One probe takes 0.04-3 ms and single probes spread 2x on a shared host;
  // medians of 9 moved by 15% within a run, medians of 30 by 3%.
  constexpr u32 kSetupProbes = 41;
  std::vector<double> samples;
  const std::string seed = std::to_string(opt.seed);
  for (u32 i = 0; i < kSetupProbes; ++i) {
    int fds[2];
    if (pipe(fds) != 0) break;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<std::string> args = {opt.self_exe, "--setup-probe", "--workload",
                                     opt.workload, "--seed", seed};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, opt.self_exe.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    char buf[256];
    ssize_t n = 0;
    while (rc == 0 && (n = read(fds[0], buf, sizeof(buf))) > 0) {
      text.append(buf, static_cast<usize>(n));
    }
    close(fds[0]);
    int status = 0;
    if (rc == 0) waitpid(pid, &status, 0);
    if (rc != 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) continue;
    samples.push_back(std::strtod(text.c_str(), nullptr));
  }
  char detail[96];
  std::snprintf(detail, sizeof(detail),
                "median of %zu cold set-ups, each in a fresh process", samples.size());
  return Metric{"setup_s", median(samples), "s", samples.size(), std::string(detail)};
}

double setup_probe(const Options& opt) {
  if (opt.workload == "serve_mixed") return serve_mixed_setup(opt);
  if (opt.workload == "paper_sweep") return paper_sweep_setup(opt);
  return fuzz_lockstep_setup(opt);
}

} // namespace perfbench
