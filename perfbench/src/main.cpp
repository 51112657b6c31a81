// perfbench: the repository benchmark. One invocation runs one workload
// for a fixed time and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. See perfbench/README.md.
//
//   perfbench --workload serve_mixed --seed 1 --seconds 10 --trace 0
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;
using perfbench::usize;

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_mixed|paper_sweep|fuzz_lockstep --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               msg);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  Options opt;
  bool probe = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--setup-probe") {
      probe = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return usage(("missing value for " + a).c_str());
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0 && opt.seconds <= 600;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload != "serve_mixed" && opt.workload != "paper_sweep" &&
      opt.workload != "fuzz_lockstep") {
    return usage("unknown workload");
  }
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) return usage("cannot locate this executable");
  exe[len] = '\0';
  opt.self_exe = exe;

  if (probe) {
    if (!have_seed) return usage("--setup-probe needs --seed");
    const double s = perfbench::setup_probe(opt);
    if (s < 0) return 1;
    std::printf("%.9f\n", s);
    return 0;
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  // Host metadata. Host-time metrics from unoptimized or sanitizer builds
  // are meaningless against release baselines, so such builds refuse to run.
  const std::string build = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  std::printf("# host: nproc=%u compiler=\"%s\" build=%s NDEBUG=%d sanitize=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, build.c_str(),
              kNdebug ? 1 : 0, sanitize.empty() ? "none" : sanitize.c_str());
  if (!kNdebug || !sanitize.empty() || (build != "Release" && build != "RelWithDebInfo")) {
    std::fprintf(stderr, "perfbench: refusing to report host-time metrics from a "
                         "%s build (NDEBUG=%d, sanitize=%s)\n",
                 build.c_str(), kNdebug ? 1 : 0, sanitize.c_str());
    return 3;
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome out;
  if (opt.workload == "serve_mixed") {
    out = perfbench::run_serve_mixed(opt);
  } else if (opt.workload == "paper_sweep") {
    out = perfbench::run_paper_sweep(opt);
  } else {
    out = perfbench::run_fuzz_lockstep(opt);
  }

  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  std::printf("# %-26s %18s %-9s %8s  %s\n", "metric", "value", "unit", "n", "estimator");
  bool finite = true;
  for (const perfbench::Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("# %-26s %18.6g %-9s %8llu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.detail.c_str());
  }
  for (const std::string& e : out.errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
  const bool correct = out.errors.empty() && finite && out.attempted > 0;

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  char num[64];
  for (usize i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::snprintf(num, sizeof(num), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + json_escape(m.name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
