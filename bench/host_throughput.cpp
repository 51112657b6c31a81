// Host-side throughput harness: how fast does the simulator itself run?
// Executes every kernel family on both engines and reports simulated
// cycles/sec (cycle-level model) and simulated instrs/sec (MIPS, both
// engines), plus the wall-clock of the full Fig. 3 stencil sweep. Emits
// machine-readable JSON (BENCH_host_throughput.json by default) so the
// numbers form a trajectory across commits.
//
// Usage: host_throughput [--json PATH] [--repeat N]
//   --repeat N   best-of-N timing for the per-kernel runs (default 3)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernels/registry.hpp"

// Sanitizer spec the tree was built with (SCH_SANITIZE cache variable;
// CMake forwards it as a compile definition). Recorded in the JSON so
// tools/check_bench_regression.py can refuse to compare sanitizer-build
// throughput against release numbers.
#ifndef SCH_SANITIZE_SPEC
#define SCH_SANITIZE_SPEC ""
#endif

namespace {

using namespace sch;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct KernelResult {
  std::string name;
  u64 sim_cycles = 0;
  u64 sim_instrs = 0;     // retired on the cycle-level model
  u64 iss_instrs = 0;
  double sim_wall_s = 0;  // best-of-N
  double iss_wall_s = 0;

  [[nodiscard]] double sim_cps() const { return sim_cycles / sim_wall_s; }
  [[nodiscard]] double sim_mips() const { return sim_instrs / sim_wall_s / 1e6; }
  [[nodiscard]] double iss_mips() const { return iss_instrs / iss_wall_s / 1e6; }
};

KernelResult time_kernel(const std::string& name, kernels::BuiltKernel k,
                         int repeat) {
  KernelResult r;
  r.name = name;
  r.sim_wall_s = 1e100;
  r.iss_wall_s = 1e100;
  // One prebuilt request per engine, reused across the timing repeats (the
  // engine re-simulates from the same program image every run).
  const api::RunRequest sim_request =
      api::RunRequest::for_built(k, api::EngineSel::kCycle);
  const api::RunRequest iss_request =
      api::RunRequest::for_built(std::move(k), api::EngineSel::kIss);
  for (int i = 0; i < repeat; ++i) {
    const auto t0 = Clock::now();
    const api::RunReport run = api::run(sim_request);
    const double s = seconds_since(t0);
    if (!run.ok) {
      std::fprintf(stderr, "FATAL: %s failed validation: %s\n", name.c_str(),
                   run.error.c_str());
      std::exit(1);
    }
    r.sim_cycles = run.cycles;
    r.sim_instrs = run.perf.total_retired();
    if (s < r.sim_wall_s) r.sim_wall_s = s;

    const auto t1 = Clock::now();
    const api::RunReport iss = api::run(iss_request);
    const double si = seconds_since(t1);
    if (!iss.ok) {
      std::fprintf(stderr, "FATAL: %s ISS run failed: %s\n", name.c_str(),
                   iss.error.c_str());
      std::exit(1);
    }
    r.iss_instrs = iss.iss_instructions;
    if (si < r.iss_wall_s) r.iss_wall_s = si;
  }
  return r;
}

} // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_host_throughput.json";
  int repeat = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) repeat = 1;
    } else {
      std::fprintf(stderr, "usage: %s [--json PATH] [--repeat N]\n", argv[0]);
      return 2;
    }
  }

  // One representative per workload family (looked up through the kernel
  // registry), larger-than-paper sizes so each timing window is dominated
  // by steady-state simulation, plus one tiny run.
  const auto build = [](const char* kernel, const char* variant,
                        const kernels::SizeMap& overrides) {
    const kernels::KernelEntry* e = kernels::Registry::instance().find(kernel);
    if (e == nullptr) {
      std::fprintf(stderr, "FATAL: %s not in the kernel registry\n", kernel);
      std::exit(1);
    }
    return e->build(variant, e->resolve_sizes(overrides));
  };
  std::vector<KernelResult> results;
  results.push_back(time_kernel(
      "vecop_baseline", build("vecop", "baseline", {{"n", 4096}}), repeat));
  results.push_back(time_kernel(
      "vecop_chained_frep", build("vecop", "chained+frep", {{"n", 4096}}),
      repeat));
  results.push_back(time_kernel(
      "gemv_chained", build("gemv", "chained", {{"m", 64}, {"n", 48}}), repeat));
  results.push_back(time_kernel(
      "box3d1r_chaining_plus", build("box3d1r", "Chaining+", {}), repeat));
  results.push_back(time_kernel(
      "j3d27pt_chaining_plus", build("j3d27pt", "Chaining+", {}), repeat));
  results.push_back(time_kernel(
      "gemm_chained", build("gemm", "chained", {{"m", 32}, {"k", 32}, {"n", 32}}),
      repeat));
  results.push_back(time_kernel(
      "conv2d_chained", build("conv2d", "chained", {{"h", 34}, {"w", 34}}),
      repeat));
  results.push_back(time_kernel(
      "axpy_chained_dbuf",
      build("axpy", "chained_dbuf", {{"n", 1024}, {"tile", 64}}), repeat));
  results.push_back(time_kernel(
      "gemv_chained_dbuf",
      build("gemv", "chained_dbuf", {{"m", 64}, {"n", 48}, {"rtile", 8}}),
      repeat));
  // A tiny run (165 cycles): per-run fixed cost -- memory set-up, report
  // assembly -- dominates, so this row's gate covers it.
  results.push_back(time_kernel(
      "axpy_n64_chained", build("axpy", "chained", {{"n", 64}}), repeat));

  // Full Fig. 3 sweep wall-clock (build + simulate + validate, all 10
  // configurations), as shipped: parallel workers over self-contained runs.
  const auto t0 = Clock::now();
  const auto sweep = sch::bench::run_stencil_sweep();
  const double sweep_wall_s = seconds_since(t0);
  u64 sweep_cycles = 0;
  for (const auto& e : sweep) sweep_cycles += e.run.cycles;

  bench::print_header("host throughput (best of " + std::to_string(repeat) + ")",
                      {"kernel", "cycles", "cyc/sec", "sim MIPS", "iss MIPS"});
  for (const auto& r : results) {
    bench::print_row({r.name, std::to_string(r.sim_cycles),
                      bench::fmt(r.sim_cps(), 0), bench::fmt(r.sim_mips(), 3),
                      bench::fmt(r.iss_mips(), 3)});
  }
  std::printf("\nstencil sweep (%u configs, %u workers): %.1f ms, %.0f simulated cycles/sec\n",
              bench::kSweepJobs, bench::sweep_worker_count(bench::kSweepJobs),
              sweep_wall_s * 1e3, sweep_cycles / sweep_wall_s);

  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
  // Host metadata: enough context to judge whether two JSONs are
  // comparable (same compiler? sanitizers on? how parallel a machine?).
  // The regression gate skips sanitizer builds outright.
#if defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  os << "{\n  \"bench\": \"host_throughput\",\n  \"repeat\": " << repeat
     << ",\n  \"host\": {\"threads\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << __VERSION__ << "\""
     << ", \"optimized\": " << (optimized ? "true" : "false")
     << ", \"sanitize\": \"" << SCH_SANITIZE_SPEC << "\"}"
     << ",\n  \"kernels\": [\n";
  for (usize i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    os << "    {\"name\": \"" << r.name << "\", \"sim_cycles\": " << r.sim_cycles
       << ", \"sim_instrs\": " << r.sim_instrs
       << ", \"sim_wall_s\": " << r.sim_wall_s
       << ", \"sim_cycles_per_sec\": " << static_cast<u64>(r.sim_cps())
       << ", \"sim_mips\": " << r.sim_mips()
       << ", \"iss_instrs\": " << r.iss_instrs
       << ", \"iss_wall_s\": " << r.iss_wall_s
       << ", \"iss_mips\": " << r.iss_mips() << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"stencil_sweep\": {\"configs\": " << sweep.size()
     << ", \"workers\": " << bench::sweep_worker_count(bench::kSweepJobs)
     << ", \"wall_s\": " << sweep_wall_s
     << ", \"simulated_cycles\": " << sweep_cycles
     << ", \"simulated_cycles_per_sec\": "
     << static_cast<u64>(sweep_cycles / sweep_wall_s) << "}\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
