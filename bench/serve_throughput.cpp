// Load generator for the serve layer: replay thousands of mixed NDJSON
// requests against an in-process serve::Server and record sustained
// reports/sec (sustained, not peak: the timed region covers the full
// replay, request parsing and response serialization included). Three
// phases isolate where the serving-layer caches earn their keep on a
// repeated-shape workload:
//
//   cold        both caches disabled -- the per-request path pays kernel
//               build + predecode + simulation every time;
//   warm_build  build cache only, pre-warmed -- simulation still runs but
//               build/predecode are skipped (hit counters prove it);
//   warm_full   build + report caches, pre-warmed -- repeated requests are
//               memoized whole (every response line carries "cached":true).
//
// tools/check_bench_regression.py gates the result against the committed
// BENCH_serve_throughput.json trajectory: each phase's reports/sec within
// tolerance of the baseline, warm_full above cold (the report cache must
// pay), and hit counters proving what each warm phase skipped.
//
// Usage: serve_throughput [--json PATH] [--repeat N] [--requests N]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"

#ifndef SCH_SANITIZE_SPEC
#define SCH_SANITIZE_SPEC ""
#endif

namespace {

using namespace sch;
using Clock = std::chrono::steady_clock;
using scenario::Json;

/// The repeated-shape request mix: small-but-real kernels across families
/// and scheduling variants, the shapes a sweep fleet hammers repeatedly.
const char* const kShapes[] = {
    R"({"kernel":"axpy","variants":["baseline"],"sizes":[{"n":512}]})",
    R"({"kernel":"axpy","variants":["chained"],"sizes":[{"n":512}]})",
    R"({"kernel":"vecop","variants":["baseline"],"sizes":[{"n":512}]})",
    R"({"kernel":"vecop","variants":["chained+frep"],"sizes":[{"n":512}]})",
    R"({"kernel":"dot","variants":["baseline"],"sizes":[{"n":512}]})",
    R"({"kernel":"dot","variants":["chained"],"sizes":[{"n":512}]})",
    R"({"kernel":"gemv","variants":["chained"],"sizes":[{"m":32,"n":32}]})",
    R"({"kernel":"gemm","variants":["chained"],"sizes":[{"m":8,"k":8,"n":8}]})",
};
constexpr usize kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

struct CacheCounters {
  u64 hits = 0;
  u64 misses = 0;
};

struct StatsSnapshot {
  CacheCounters build;
  CacheCounters report;
};

struct PhaseResult {
  std::string name;
  double wall_s = 1e100;  // best-of-N replay wall clock
  usize reports = 0;
  usize ok = 0;
  usize cached = 0;  // responses served from the report cache
  CacheCounters build;   // per-replay deltas of the measured repeat
  CacheCounters report;

  [[nodiscard]] double rps() const { return reports / wall_s; }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

u64 cache_u64(const Json& stats, const char* which, const char* field) {
  const Json* c = stats.get("cache");
  if (c == nullptr) return 0;
  const Json* w = c->get(which);
  if (w == nullptr) return 0;
  const Json* f = w->get(field);
  return f != nullptr ? static_cast<u64>(f->as_i64()) : 0;
}

/// Parse one replay's response stream into report/ok/cached tallies.
void parse_responses(const std::string& text, PhaseResult& out) {
  std::istringstream is(text);
  std::string line;
  out.reports = out.ok = out.cached = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    Result<Json> parsed = Json::parse(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "FATAL: unparseable response line: %s\n",
                   line.c_str());
      std::exit(1);
    }
    const Json doc = std::move(parsed).value();
    const Json* type = doc.get("type");
    if (type == nullptr || !type->is_string()) continue;
    if (type->as_string() == "report") {
      ++out.reports;
      const Json* cached = doc.get("cached");
      if (cached != nullptr && cached->is_bool() && cached->as_bool()) {
        ++out.cached;
      }
      const Json* report = doc.get("report");
      const Json* ok = report != nullptr ? report->get("ok") : nullptr;
      if (ok != nullptr && ok->is_bool() && ok->as_bool()) ++out.ok;
    } else if (type->as_string() == "error") {
      std::fprintf(stderr, "FATAL: request rejected: %s\n", line.c_str());
      std::exit(1);
    }
  }
}

/// Query the server's cumulative cache counters in a dedicated session --
/// a session boundary fully drains in-flight jobs, so unlike a stats probe
/// pipelined inside the replay this snapshot is exact.
StatsSnapshot probe_stats(serve::Server& server) {
  std::istringstream in("{\"op\":\"stats\"}\n");
  std::ostringstream out;
  server.serve(in, out);
  Result<Json> parsed = Json::parse(out.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "FATAL: bad stats response: %s\n", out.str().c_str());
    std::exit(1);
  }
  const Json doc = std::move(parsed).value();
  StatsSnapshot snap;
  snap.build.hits = cache_u64(doc, "build", "hits");
  snap.build.misses = cache_u64(doc, "build", "misses");
  snap.report.hits = cache_u64(doc, "report", "hits");
  snap.report.misses = cache_u64(doc, "report", "misses");
  return snap;
}

PhaseResult run_phase(const std::string& name, const serve::ServerOptions& opts,
                      bool prewarm, usize requests, int repeat) {
  serve::Server server(opts);

  if (prewarm) {
    // One pass over every unique shape fills both caches before timing.
    std::string warm_input;
    for (const char* shape : kShapes) {
      warm_input += shape;
      warm_input += '\n';
    }
    std::istringstream in(warm_input);
    std::ostringstream out;
    server.serve(in, out);
  }

  // The replay: `requests` single-run requests round-robin over the shape
  // mix. Counter snapshots are taken in dedicated sessions bracketing the
  // timed session so per-replay cache deltas are exact.
  std::string input;
  for (usize i = 0; i < requests; ++i) {
    input += kShapes[i % kNumShapes];
    input += '\n';
  }

  PhaseResult best;
  best.name = name;
  for (int r = 0; r < repeat; ++r) {
    const StatsSnapshot before = probe_stats(server);
    std::istringstream in(input);
    std::ostringstream out;
    const auto t0 = Clock::now();
    server.serve(in, out);
    const double wall = seconds_since(t0);
    if (wall < best.wall_s) {
      best.wall_s = wall;
      parse_responses(out.str(), best);
      const StatsSnapshot after = probe_stats(server);
      best.build.hits = after.build.hits - before.build.hits;
      best.build.misses = after.build.misses - before.build.misses;
      best.report.hits = after.report.hits - before.report.hits;
      best.report.misses = after.report.misses - before.report.misses;
    }
  }
  if (best.reports != requests || best.ok != requests) {
    std::fprintf(stderr, "FATAL: phase %s: %zu requests, %zu reports, %zu ok\n",
                 name.c_str(), requests, best.reports, best.ok);
    std::exit(1);
  }
  return best;
}

void dump_phase(std::ostream& os, const PhaseResult& p, bool last) {
  os << "    \"" << p.name << "\": {\"wall_s\": " << p.wall_s
     << ", \"reports_per_sec\": " << p.rps()
     << ", \"reports\": " << p.reports << ", \"ok\": " << p.ok
     << ", \"cached\": " << p.cached
     << ", \"build\": {\"hits\": " << p.build.hits
     << ", \"misses\": " << p.build.misses << "}"
     << ", \"report\": {\"hits\": " << p.report.hits
     << ", \"misses\": " << p.report.misses << "}}" << (last ? "" : ",")
     << "\n";
}

} // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve_throughput.json";
  int repeat = 3;
  usize requests = 600;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<usize>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: serve_throughput [--json PATH] [--repeat N] "
                   "[--requests N]\n");
      return 2;
    }
  }
  if (repeat < 1) repeat = 1;
  if (requests < kNumShapes) requests = kNumShapes;

  serve::ServerOptions cold_opts;
  cold_opts.build_cache_capacity = 0;
  cold_opts.report_cache_capacity = 0;
  serve::ServerOptions warm_build_opts;
  warm_build_opts.report_cache_capacity = 0;
  serve::ServerOptions warm_full_opts;

  const PhaseResult cold =
      run_phase("cold", cold_opts, /*prewarm=*/false, requests, repeat);
  const PhaseResult warm_build =
      run_phase("warm_build", warm_build_opts, /*prewarm=*/true, requests, repeat);
  const PhaseResult warm_full =
      run_phase("warm_full", warm_full_opts, /*prewarm=*/true, requests, repeat);

  // The counters must prove the claim, not just suggest it: every replayed
  // request hits the build cache in warm_build (build + predecode skipped)
  // and is fully memoized in warm_full (simulation skipped too).
  if (warm_build.build.hits != requests || warm_build.build.misses != 0) {
    std::fprintf(stderr,
                 "FATAL: warm_build replay expected %zu build hits / 0 misses, "
                 "got %llu/%llu\n",
                 requests,
                 static_cast<unsigned long long>(warm_build.build.hits),
                 static_cast<unsigned long long>(warm_build.build.misses));
    return 1;
  }
  if (warm_full.cached != requests) {
    std::fprintf(stderr,
                 "FATAL: warm_full replay expected %zu cached responses, got "
                 "%zu\n",
                 requests, warm_full.cached);
    return 1;
  }

  const double speedup_build = warm_build.rps() / cold.rps();
  const double speedup_full = warm_full.rps() / cold.rps();

  std::printf("serve throughput (%zu requests over %zu shapes, best of %d)\n\n",
              requests, kNumShapes, repeat);
  std::printf("  %-12s %12s %10s %8s\n", "phase", "reports/sec", "wall ms",
              "cached");
  for (const PhaseResult* p : {&cold, &warm_build, &warm_full}) {
    std::printf("  %-12s %12.0f %10.1f %8zu\n", p->name.c_str(), p->rps(),
                p->wall_s * 1e3, p->cached);
  }
  std::printf("\n  warm_build vs cold: %.2fx (build+predecode skipped)\n",
              speedup_build);
  std::printf("  warm_full  vs cold: %.2fx (simulation memoized)\n",
              speedup_full);

  std::ofstream os(json_path);
  if (!os) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", json_path.c_str());
    return 1;
  }
#if defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  os << "{\n  \"bench\": \"serve_throughput\",\n  \"repeat\": " << repeat
     << ",\n  \"requests\": " << requests << ",\n  \"shapes\": " << kNumShapes
     << ",\n  \"host\": {\"threads\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << __VERSION__ << "\""
     << ", \"optimized\": " << (optimized ? "true" : "false")
     << ", \"sanitize\": \"" << SCH_SANITIZE_SPEC << "\"}"
     << ",\n  \"phases\": {\n";
  dump_phase(os, cold, false);
  dump_phase(os, warm_build, false);
  dump_phase(os, warm_full, true);
  os << "  },\n  \"speedup_warm_build_vs_cold\": " << speedup_build
     << ",\n  \"speedup_warm_vs_cold\": " << speedup_full << "\n}\n";
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
