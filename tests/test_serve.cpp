// Serving-layer coverage: the keyed build cache (exact hit/miss counters,
// full timing-field key coverage, LRU eviction, in-flight dedup under
// concurrency, error propagation), cached-vs-uncached report determinism,
// the ReportCache memoization contract, NDJSON session behavior (FIFO
// ordering, malformed-input hardening over the serve corpus, oversized
// lines, shutdown), rollup math, the streaming scenario writer and the TCP
// front-end.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/build_cache.hpp"
#include "api/engine.hpp"
#include "kernels/registry.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_runner.hpp"
#include "serve/fdstream.hpp"
#include "serve/rollup.hpp"
#include "serve/server.hpp"

#if defined(SCH_SERVE_HAVE_FDSTREAM)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#endif

namespace sch::serve {
namespace {

using api::BuildCache;
using scenario::Json;

const kernels::KernelEntry& entry(const std::string& name) {
  const kernels::KernelEntry* e = kernels::Registry::instance().find(name);
  EXPECT_NE(e, nullptr) << name;
  return *e;
}

/// Run one full NDJSON session against `server` and parse the responses.
std::vector<Json> serve_lines(Server& server, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  server.serve(in, out);
  std::vector<Json> lines;
  std::istringstream rs(out.str());
  std::string line;
  while (std::getline(rs, line)) {
    if (line.empty()) continue;
    Result<Json> parsed = Json::parse(line);
    EXPECT_TRUE(parsed.ok()) << "unparseable response: " << line;
    if (parsed.ok()) lines.push_back(std::move(parsed).value());
  }
  return lines;
}

std::string type_of(const Json& line) {
  const Json* t = line.get("type");
  return t != nullptr && t->is_string() ? t->as_string() : "";
}

/// Strip every "wall_s" key, recursively -- the one nondeterministic field
/// of a report row.
Json strip_wall_s(const Json& v) {
  if (v.is_object()) {
    Json o = Json::object();
    for (const auto& [k, child] : v.members()) {
      if (k == "wall_s") continue;
      o.set(k, strip_wall_s(child));
    }
    return o;
  }
  if (v.is_array()) {
    Json a = Json::array();
    for (const Json& child : v.items()) a.push_back(strip_wall_s(child));
    return a;
  }
  return v;
}

// --- BuildCache: counters, key coverage, eviction, concurrency --------------

TEST(BuildCache, ExactHitMissCountersAndSharing) {
  BuildCache cache(8);
  const kernels::KernelEntry& axpy = entry("axpy");
  const kernels::SizeMap sizes = axpy.resolve_sizes({{"n", 64}});
  const sim::SimConfig config;

  const BuildCache::Ptr a = cache.get_or_build(axpy, "baseline", sizes, config);
  const BuildCache::Ptr b = cache.get_or_build(axpy, "baseline", sizes, config);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get()) << "hit must share the built kernel, not copy";
  // A cached Program arrives predecoded: the engines' ensure_predecoded()
  // finds the pass already done.
  EXPECT_EQ(a->program.pre.size(), a->program.instrs.size());

  BuildCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 0u);

  // A different variant is a different key.
  (void)cache.get_or_build(axpy, "chained", sizes, config);
  s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(BuildCache, KeyCoversEveryTimingRelevantConfigField) {
  // Every SimConfig field that can change a build or a simulated report
  // must appear in the fingerprint: a stale-key bug here silently serves
  // wrong timing. Each mutator flips exactly one field.
  using Mut = void (*)(sim::SimConfig&);
  const std::pair<const char*, Mut> mutators[] = {
      {"fpu_depth", [](sim::SimConfig& c) { c.fpu_depth = 5; }},
      {"fdiv_latency", [](sim::SimConfig& c) { c.fdiv_latency = 13; }},
      {"fsqrt_latency", [](sim::SimConfig& c) { c.fsqrt_latency = 29; }},
      {"int_mul_latency", [](sim::SimConfig& c) { c.int_mul_latency = 4; }},
      {"int_div_latency", [](sim::SimConfig& c) { c.int_div_latency = 25; }},
      {"fp_queue_depth", [](sim::SimConfig& c) { c.fp_queue_depth = 3; }},
      {"seq_buffer_depth", [](sim::SimConfig& c) { c.seq_buffer_depth = 5; }},
      {"load_latency", [](sim::SimConfig& c) { c.load_latency = 2; }},
      {"main_mem_latency", [](sim::SimConfig& c) { c.main_mem_latency = 20; }},
      {"main_mem_bytes_per_cycle",
       [](sim::SimConfig& c) { c.main_mem_bytes_per_cycle = 16; }},
      {"dma_queue_depth", [](sim::SimConfig& c) { c.dma_queue_depth = 2; }},
      {"taken_branch_penalty",
       [](sim::SimConfig& c) { c.taken_branch_penalty = 3; }},
      {"strict_chain_handoff",
       [](sim::SimConfig& c) { c.strict_chain_handoff = true; }},
      {"num_cores", [](sim::SimConfig& c) { c.num_cores = 2; }},
      {"tcdm.num_banks", [](sim::SimConfig& c) { c.tcdm.num_banks = 16; }},
      {"ssr.data_fifo_depth",
       [](sim::SimConfig& c) { c.ssr.data_fifo_depth = 7; }},
      {"ssr.idx_queue_depth",
       [](sim::SimConfig& c) { c.ssr.idx_queue_depth = 5; }},
      {"ssr.write_fifo_depth",
       [](sim::SimConfig& c) { c.ssr.write_fifo_depth = 3; }},
      {"max_cycles", [](sim::SimConfig& c) { c.max_cycles = 12345; }},
      {"deadlock_cycles", [](sim::SimConfig& c) { c.deadlock_cycles = 777; }},
      {"fast_dispatch", [](sim::SimConfig& c) { c.fast_dispatch = false; }},
  };

  const kernels::SizeMap sizes{{"n", 64}};
  const sim::SimConfig base;
  const std::string base_key = BuildCache::make_key("axpy", "baseline", sizes, base);
  for (const auto& [name, mutate] : mutators) {
    sim::SimConfig c;
    mutate(c);
    EXPECT_NE(BuildCache::make_key("axpy", "baseline", sizes, c), base_key)
        << "fingerprint must cover SimConfig field: " << name;
  }

  // And the deliberate exclusions: pure observability knobs must NOT shred
  // the hit rate (docs/SERVE.md pins this contract).
  sim::SimConfig c = base;
  c.max_wall_ms = 5000;
  c.faults = std::make_shared<const sim::FaultPlan>();
  EXPECT_EQ(BuildCache::make_key("axpy", "baseline", sizes, c), base_key)
      << "max_wall_ms/faults are observability knobs, not key fields";

  // Kernel, variant and sizes all key.
  EXPECT_NE(BuildCache::make_key("dot", "baseline", sizes, base), base_key);
  EXPECT_NE(BuildCache::make_key("axpy", "chained", sizes, base), base_key);
  EXPECT_NE(BuildCache::make_key("axpy", "baseline", {{"n", 128}}, base), base_key);
}

TEST(BuildCache, LruEvictionKeepsRecentlyUsed) {
  BuildCache cache(2);
  const kernels::KernelEntry& axpy = entry("axpy");
  const sim::SimConfig config;
  const auto build_n = [&](i64 n) {
    return cache.get_or_build(axpy, "baseline", axpy.resolve_sizes({{"n", n}}),
                              config);
  };
  (void)build_n(16);
  (void)build_n(32);
  (void)build_n(16);  // touch 16: 32 becomes the LRU victim
  (void)build_n(64);  // evicts 32
  BuildCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);

  (void)build_n(16);  // still resident
  EXPECT_EQ(cache.stats().hits, 2u);
  (void)build_n(32);  // evicted above: a fresh miss
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(BuildCache, CapacityZeroDisablesCaching) {
  BuildCache cache(0);
  const kernels::KernelEntry& axpy = entry("axpy");
  const kernels::SizeMap sizes = axpy.resolve_sizes({{"n", 64}});
  const BuildCache::Ptr a = cache.get_or_build(axpy, "baseline", sizes, {});
  const BuildCache::Ptr b = cache.get_or_build(axpy, "baseline", sizes, {});
  ASSERT_NE(a, nullptr);
  EXPECT_NE(a.get(), b.get());
  const BuildCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses + s.entries, 0u);
}

TEST(BuildCache, BuilderErrorsPropagateAndAreNeverCached) {
  BuildCache cache(8);
  const kernels::KernelEntry& axpy = entry("axpy");
  const kernels::SizeMap sizes = axpy.resolve_sizes({});
  EXPECT_THROW((void)cache.get_or_build(axpy, "warp_variant", sizes, {}),
               std::invalid_argument);
  EXPECT_THROW((void)cache.get_or_build(axpy, "warp_variant", sizes, {}),
               std::invalid_argument);
  const BuildCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0u) << "failed builds must not be cached";
  EXPECT_EQ(s.misses, 2u) << "each failed attempt re-runs the builder";
}

TEST(BuildCache, ConcurrentLookupsBuildOnceWithExactCounters) {
  // N threads x M lookups over K keys. The in-flight dedup makes the
  // counters exact and scheduling-independent: exactly K misses (the
  // unique creators), everything else a hit. TSan CI runs this test.
  constexpr usize kThreads = 8;
  constexpr usize kLookups = 24;
  constexpr i64 kKeys = 4;
  BuildCache cache(16);
  const kernels::KernelEntry& axpy = entry("axpy");
  const sim::SimConfig config;

  std::vector<std::vector<std::pair<i64, BuildCache::Ptr>>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (usize t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (usize i = 0; i < kLookups; ++i) {
        const i64 n = 16 << ((static_cast<i64>(t + i)) % kKeys);
        seen[t].emplace_back(n, cache.get_or_build(
            axpy, "baseline", axpy.resolve_sizes({{"n", n}}), config));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const BuildCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, static_cast<u64>(kKeys));
  EXPECT_EQ(s.hits, static_cast<u64>(kThreads * kLookups - kKeys));
  EXPECT_EQ(s.entries, static_cast<u64>(kKeys));

  // Same key -> same shared kernel, across all threads.
  std::map<i64, const kernels::BuiltKernel*> by_n;
  for (const auto& thread_ptrs : seen) {
    for (const auto& [n, p] : thread_ptrs) {
      ASSERT_NE(p, nullptr);
      auto [it, inserted] = by_n.emplace(n, p.get());
      if (!inserted) {
        EXPECT_EQ(it->second, p.get()) << "n=" << n;
      }
    }
  }
  EXPECT_EQ(by_n.size(), static_cast<usize>(kKeys));
}

// --- determinism: cached and uncached runs are bit-identical ----------------

TEST(BuildCacheDeterminism, CachedDisabledEnabledPrewarmedAllBitIdentical) {
  // The acceptance contract: a report served through the cache differs
  // from an uncached one in nothing but wall_s. Cover both engines and a
  // multi-variant job set, three ways: no cache, cold cache, pre-warmed.
  scenario::Scenario sc;
  sc.name = "determinism";
  for (const char* line : {
           R"({"kernel":"axpy","variants":["baseline","chained"],"sizes":[{"n":64}]})",
           R"({"kernel":"vecop","variants":["chained+frep"],"sizes":[{"n":64}]})",
       }) {
    Result<scenario::RunSpec> spec =
        scenario::parse_run_spec(Json::parse(line).value(), 0, Json::object(), 1);
    ASSERT_TRUE(spec.ok()) << spec.status().message();
    sc.runs.push_back(std::move(spec).value());
  }
  Result<std::vector<scenario::Job>> jobs = scenario::expand(sc);
  ASSERT_TRUE(jobs.ok()) << jobs.status().message();

  const auto reports_json = [&](api::BuildCache* cache) {
    Json rows = Json::array();
    for (const scenario::Job& job : jobs.value()) {
      for (const api::EngineSel engine :
           {api::EngineSel::kCycle, api::EngineSel::kBoth}) {
        const api::RunReport r =
            api::run(scenario::to_request(job, engine, cache));
        EXPECT_TRUE(r.ok) << r.error;
        rows.push_back(strip_wall_s(r.to_json()));
      }
    }
    return rows.dump(2);
  };

  const std::string uncached = reports_json(nullptr);
  BuildCache cache(16);
  const std::string cold = reports_json(&cache);
  const u64 cold_misses = cache.stats().misses;
  const u64 cold_hits = cache.stats().hits;
  EXPECT_GT(cold_misses, 0u);
  const std::string prewarmed = reports_json(&cache);
  // Engine selection is not part of the build key, so even the cold pass
  // can hit (kBoth reuses the entry kCycle built); the prewarmed pass must
  // add zero misses and one hit per lookup.
  EXPECT_EQ(cache.stats().misses, cold_misses)
      << "prewarmed pass must not rebuild anything";
  EXPECT_EQ(cache.stats().hits, cold_hits + cold_misses + cold_hits)
      << "prewarmed pass must hit on every lookup";
  EXPECT_EQ(uncached, cold);
  EXPECT_EQ(cold, prewarmed);
}

// --- ReportCache ------------------------------------------------------------

TEST(ReportCache, KeyIncludesEngineAndVerifyButNotRepeatIndex) {
  scenario::Scenario sc;
  sc.name = "key";
  Result<scenario::RunSpec> spec = scenario::parse_run_spec(
      Json::parse(R"({"kernel":"axpy","variants":["baseline"],"sizes":[{"n":64}]})")
          .value(),
      0, Json::object(), 2);
  ASSERT_TRUE(spec.ok());
  sc.runs.push_back(std::move(spec).value());
  Result<std::vector<scenario::Job>> jobs = scenario::expand(sc);
  ASSERT_TRUE(jobs.ok());
  ASSERT_EQ(jobs.value().size(), 2u);  // repeat=2
  ASSERT_NE(jobs.value()[0].repeat_index, jobs.value()[1].repeat_index);

  const std::string k0 =
      ReportCache::make_key(jobs.value()[0], api::EngineSel::kCycle);
  EXPECT_EQ(k0, ReportCache::make_key(jobs.value()[1], api::EngineSel::kCycle))
      << "repeats of one shape must share a key (that IS the memoization)";
  EXPECT_NE(k0, ReportCache::make_key(jobs.value()[0], api::EngineSel::kBoth));

  scenario::Job strict = jobs.value()[0];
  strict.verify = api::VerifyPolicy::kStrict;
  EXPECT_NE(k0, ReportCache::make_key(strict, api::EngineSel::kCycle));
}

TEST(ReportCache, SecondSessionServesCachedBitIdenticalReport) {
  Server server;
  const std::string req =
      R"({"id":1,"kernel":"dot","variants":["chained"],"sizes":[{"n":64}]})" "\n";
  const std::vector<Json> first = serve_lines(server, req);
  const std::vector<Json> second = serve_lines(server, req);
  ASSERT_EQ(first.size(), 2u);   // report + done
  ASSERT_EQ(second.size(), 2u);
  EXPECT_FALSE(first[0].get("cached")->as_bool());
  EXPECT_TRUE(second[0].get("cached")->as_bool())
      << "second session must be served from the report cache";
  // The memoized row replays the original run verbatim -- wall_s included.
  EXPECT_EQ(first[0].get("report")->dump(), second[0].get("report")->dump());
  EXPECT_GE(server.report_cache().stats().hits, 1u);
}

TEST(ReportCache, DropCachesEmptiesBothCaches) {
  Server server;
  (void)serve_lines(server,
                    R"({"kernel":"axpy","variants":["baseline"],"sizes":[{"n":64}]})"
                    "\n");
  EXPECT_GT(server.build_cache().stats().entries, 0u);
  const std::vector<Json> lines =
      serve_lines(server, "{\"op\":\"drop-caches\",\"id\":9}\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(type_of(lines[0]), "dropped");
  EXPECT_EQ(server.build_cache().stats().entries, 0u);
  EXPECT_EQ(server.report_cache().stats().entries, 0u);
}

// --- NDJSON sessions --------------------------------------------------------

TEST(ServeSession, FifoOrderAcrossMixedRequests) {
  Server server;
  const std::vector<Json> lines = serve_lines(
      server,
      "{\"op\":\"ping\",\"id\":1}\n"
      R"({"id":2,"kernel":"axpy","variants":["baseline","chained"],"sizes":[{"n":64}]})"
      "\n"
      "{\"op\":\"stats\",\"id\":3}\n"
      R"({"id":4,"kernel":"warp_drive","variants":["x"]})" "\n"
      "{\"op\":\"ping\",\"id\":5}\n");
  // Response order is request order; the run request contributes its
  // report lines (job order) then its done line.
  std::vector<std::string> types;
  types.reserve(lines.size());
  for (const Json& l : lines) types.push_back(type_of(l));
  const std::vector<std::string> expect = {"pong",   "report", "report",
                                           "done",   "stats",  "error",
                                           "pong"};
  EXPECT_EQ(types, expect);
  EXPECT_EQ(lines[1].get("seq")->as_i64(), 0);
  EXPECT_EQ(lines[2].get("seq")->as_i64(), 1);
  EXPECT_EQ(lines[2].get("of")->as_i64(), 2);
  EXPECT_EQ(lines[3].get("id")->as_i64(), 2);
  EXPECT_EQ(lines[3].get("rollup")->get("ok")->as_i64(), 2);
  EXPECT_EQ(lines[5].get("failure")->get("kind")->as_string(), "validation");
}

TEST(ServeSession, UnknownKernelIsStructuredValidationError) {
  Server server;
  const std::vector<Json> lines = serve_lines(
      server, R"({"id":7,"kernel":"warp_drive","variants":["chained"]})" "\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(type_of(lines[0]), "error");
  EXPECT_EQ(lines[0].get("id")->as_i64(), 7);
  EXPECT_NE(lines[0].get("error")->as_string().find("warp_drive"),
            std::string::npos);
  EXPECT_EQ(lines[0].get("failure")->get("kind")->as_string(), "validation");
}

TEST(ServeSession, OversizedLineRejectedAndSessionSurvives) {
  ServerOptions opts;
  opts.max_line_bytes = 128;
  Server server(opts);
  std::string input(4096, 'x');
  input += "\n{\"op\":\"ping\",\"id\":\"alive\"}\n";
  const std::vector<Json> lines = serve_lines(server, input);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(type_of(lines[0]), "error");
  EXPECT_NE(lines[0].get("error")->as_string().find("128"), std::string::npos);
  EXPECT_EQ(type_of(lines[1]), "pong");
  EXPECT_EQ(lines[1].get("id")->as_string(), "alive");
}

TEST(ServeSession, ShutdownOpEndsSessionWithBye) {
  Server server;
  std::istringstream in(
      "{\"op\":\"shutdown\",\"id\":1}\n{\"op\":\"ping\",\"id\":2}\n");
  std::ostringstream out;
  EXPECT_TRUE(server.serve(in, out)) << "serve() must report the shutdown";
  std::vector<Json> lines;
  std::istringstream rs(out.str());
  std::string line;
  while (std::getline(rs, line)) {
    if (!line.empty()) lines.push_back(Json::parse(line).value());
  }
  ASSERT_EQ(lines.size(), 1u) << "lines after shutdown must not be processed";
  EXPECT_EQ(type_of(lines[0]), "bye");
}

#ifdef SCH_CORPUS_DIR
TEST(ServeSession, EveryCorpusInputGetsStructuredResponsesAndSurvives) {
  // tests/corpus/serve/ holds hostile NDJSON request streams: binary
  // garbage, truncations, wrong types, unknown ops/kernels/keys, huge
  // numbers, deep nesting. The contract: every line is answered with a
  // structured response (or skipped if blank), the daemon never crashes or
  // wedges, and the session still answers a trailing ping.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(SCH_CORPUS_DIR) / "serve";
  ASSERT_TRUE(fs::exists(dir)) << dir << " missing (build config problem)";
  Server server;  // one shared server: a bad session must not poison the next
  u32 seen = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    SCOPED_TRACE(e.path().filename().string());
    std::ifstream in(e.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string input = ss.str();
    if (!input.empty() && input.back() != '\n') input += '\n';
    input += "{\"op\":\"ping\",\"id\":\"alive\"}\n";
    const std::vector<Json> lines = serve_lines(server, input);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(type_of(lines.back()), "pong") << "stream must survive";
    EXPECT_EQ(lines.back().get("id")->as_string(), "alive");
    for (const Json& l : lines) {
      const std::string t = type_of(l);
      EXPECT_TRUE(t == "report" || t == "done" || t == "error" || t == "pong" ||
                  t == "stats" || t == "dropped" || t == "bye")
          << "unknown response type: " << t;
      if (t == "error") {
        EXPECT_FALSE(l.get("error")->as_string().empty());
        EXPECT_EQ(l.get("failure")->get("kind")->as_string(), "validation");
      }
    }
    ++seen;
  }
  EXPECT_GE(seen, 16u) << "corpus unexpectedly small -- files not checked in?";
}
#endif // SCH_CORPUS_DIR

// --- rollup math ------------------------------------------------------------

TEST(Rollup, GeomeanPercentilesAndFailureKinds) {
  Rollup rollup;
  const auto ok_report = [](u64 cycles, double util) {
    api::RunReport r;
    r.ok = true;
    r.cycles = cycles;
    r.fpu_utilization = util;
    r.iss_instructions = 10;
    r.useful_flops = 5;
    r.tcdm_reads = 100;
    r.tcdm_conflicts = 7;
    r.tcdm_top_banks = {{3, 7}};
    return r;
  };
  rollup.add(ok_report(100, 0.25));
  rollup.add(ok_report(200, 0.50));
  rollup.add(ok_report(400, 0.75));
  api::RunReport failed;
  failed.ok = false;
  failed.failure.kind = api::FailureKind::kDeadlock;
  rollup.add(failed);

  const Json j = rollup.to_json();
  EXPECT_EQ(j.get("jobs")->as_i64(), 4);
  EXPECT_EQ(j.get("ok")->as_i64(), 3);
  EXPECT_EQ(j.get("failures")->as_i64(), 1);
  EXPECT_EQ(j.get("failure_kinds")->get("deadlock")->as_i64(), 1);
  // geomean(100, 200, 400) = 200 exactly.
  EXPECT_NEAR(j.get("geomean_cycles")->as_number(), 200.0, 1e-9);
  EXPECT_EQ(j.get("total_cycles")->as_i64(), 700);
  EXPECT_EQ(j.get("total_iss_instructions")->as_i64(), 30);
  EXPECT_EQ(j.get("total_useful_flops")->as_i64(), 15);
  // Nearest-rank over {0.25, 0.50, 0.75}.
  EXPECT_DOUBLE_EQ(j.get("fpu_utilization")->get("p50")->as_number(), 0.50);
  EXPECT_DOUBLE_EQ(j.get("fpu_utilization")->get("p99")->as_number(), 0.75);
  // Per-bank conflicts merge across reports: bank 3 saw 7 x 3.
  const Json* tcdm = j.get("tcdm");
  EXPECT_EQ(tcdm->get("conflicts")->as_i64(), 21);
  ASSERT_EQ(tcdm->get("top_banks")->items().size(), 1u);
  EXPECT_EQ(tcdm->get("top_banks")->items()[0].get("bank")->as_i64(), 3);
  EXPECT_EQ(tcdm->get("top_banks")->items()[0].get("conflicts")->as_i64(), 21);
}

// --- streaming scenario writer (schsim run --stream) ------------------------

TEST(StreamingScenario, EmitsServeProtocolLinesForEveryJob) {
  scenario::Scenario sc;
  sc.name = "stream_test";
  Result<scenario::RunSpec> spec = scenario::parse_run_spec(
      Json::parse(
          R"({"kernel":"vecop","variants":["baseline","chained"],"sizes":[{"n":64}]})")
          .value(),
      0, Json::object(), 1);
  ASSERT_TRUE(spec.ok());
  sc.runs.push_back(std::move(spec).value());

  std::ostringstream out;
  std::ostringstream log;
  const Result<StreamOutcome> outcome =
      run_scenario_streaming(sc, {}, out, log);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome.value().jobs, 2u);
  EXPECT_EQ(outcome.value().failures, 0u);

  std::vector<Json> lines;
  std::istringstream rs(out.str());
  std::string line;
  while (std::getline(rs, line)) {
    if (!line.empty()) lines.push_back(Json::parse(line).value());
  }
  ASSERT_EQ(lines.size(), 3u);  // 2 reports + done
  EXPECT_EQ(type_of(lines[0]), "report");
  EXPECT_EQ(lines[0].get("id")->as_string(), "stream_test");
  EXPECT_FALSE(lines[0].get("cached")->as_bool());
  EXPECT_EQ(type_of(lines[2]), "done");
  EXPECT_EQ(lines[2].get("rollup")->get("ok")->as_i64(), 2);
}

// --- TCP front-end ----------------------------------------------------------

#if defined(SCH_SERVE_HAVE_FDSTREAM)
TEST(ServeTcp, PingRunShutdownRoundTrip) {
  Server server;
  std::atomic<u16> bound{0};
  std::ostringstream log;
  Status listen_status;
  std::thread listener([&] {
    listen_status = serve_listen(server, 0, &bound, log);
  });
  // Wait for the listener to publish its bound port.
  for (int i = 0; i < 200 && bound.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const u16 port = bound.load();
  if (port == 0) {
    listener.detach();
    GTEST_SKIP() << "listener did not come up (sandboxed network?)";
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    listener.detach();
    GTEST_SKIP() << "cannot connect to 127.0.0.1:" << port;
  }
  const std::string request =
      "{\"op\":\"ping\",\"id\":1}\n"
      "{\"id\":2,\"kernel\":\"axpy\",\"variants\":[\"baseline\"],"
      "\"sizes\":[{\"n\":64}]}\n"
      "{\"op\":\"shutdown\",\"id\":3}\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<usize>(n));
  }
  ::close(fd);
  listener.join();
  EXPECT_TRUE(listen_status.is_ok()) << listen_status.message();

  std::vector<std::string> types;
  std::istringstream rs(response);
  std::string line;
  while (std::getline(rs, line)) {
    if (!line.empty()) types.push_back(type_of(Json::parse(line).value()));
  }
  const std::vector<std::string> expect = {"pong", "report", "done", "bye"};
  EXPECT_EQ(types, expect);
}
#endif // SCH_SERVE_HAVE_FDSTREAM

} // namespace
} // namespace sch::serve
