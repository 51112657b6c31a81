// Scenario subsystem coverage: the JSONC-lite parser, scenario-file
// structural validation (bad JSON, unknown kernels/variants/keys), the
// sim-config override round trip, job expansion determinism, and a full
// parse -> expand -> run -> report cycle whose report parses back with the
// same JSON parser.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_runner.hpp"

namespace sch::scenario {
namespace {

// --- JSON parser -------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  const auto r = Json::parse(R"({
    // a comment, allowed by the JSONC-lite dialect
    "s": "hi\nthere", "i": -42, "d": 2.5e1, "b": true, "x": null,
    "a": [1, 2, 3], "o": {"nested": false}
  })");
  ASSERT_TRUE(r.ok()) << r.status().message();
  const Json& j = r.value();
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.get("s")->as_string(), "hi\nthere");
  EXPECT_TRUE(j.get("i")->is_integer());
  EXPECT_EQ(j.get("i")->as_i64(), -42);
  EXPECT_FALSE(j.get("d")->is_integer());
  EXPECT_DOUBLE_EQ(j.get("d")->as_number(), 25.0);
  EXPECT_TRUE(j.get("b")->as_bool());
  EXPECT_TRUE(j.get("x")->is_null());
  ASSERT_EQ(j.get("a")->items().size(), 3u);
  EXPECT_EQ(j.get("a")->items()[2].as_i64(), 3);
  EXPECT_FALSE(j.get("o")->get("nested")->as_bool());
  EXPECT_EQ(j.get("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "{'a': 1}", "tru",
        "{\"a\":1} extra", "{\"a\":1,\"a\":2}", "[1 2]", "\"unterminated",
        "{\"a\": 1e}", "nan"}) {
    const auto r = Json::parse(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
  }
  // Errors carry a position.
  const auto r = Json::parse("{\n  \"a\": flase\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("2:"), std::string::npos)
      << r.status().message();
}

TEST(Json, DumpRoundTrips) {
  Json obj = Json::object();
  obj.set("name", "round \"trip\"");
  obj.set("count", static_cast<i64>(7));
  obj.set("ratio", 0.125);
  Json arr = Json::array();
  arr.push_back(true);
  arr.push_back(Json());
  obj.set("flags", std::move(arr));
  const std::string text = obj.dump(2);
  const auto back = Json::parse(text);
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back.value().get("name")->as_string(), "round \"trip\"");
  EXPECT_EQ(back.value().get("count")->as_i64(), 7);
  EXPECT_DOUBLE_EQ(back.value().get("ratio")->as_number(), 0.125);
  EXPECT_TRUE(back.value().get("flags")->items()[1].is_null());
}

// --- scenario validation -----------------------------------------------------

TEST(Scenario, ParsesMinimalDocument) {
  const auto r = parse_scenario(R"({
    "name": "t", "runs": [{"kernel": "axpy"}]
  })");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().name, "t");
  ASSERT_EQ(r.value().runs.size(), 1u);
  EXPECT_EQ(r.value().runs[0].kernel, "axpy");
  EXPECT_TRUE(r.value().runs[0].variants.empty()); // all variants
  EXPECT_EQ(r.value().runs[0].repeat, 1u);
}

TEST(Scenario, RejectsStructuralErrors) {
  const char* bad[] = {
      "[1]",                                              // not an object
      R"({"runs": [{"kernel": "axpy"}]})",                // missing name
      R"({"name": "t"})",                                 // missing runs
      R"({"name": "t", "runs": []})",                     // empty runs
      R"({"name": "t", "runs": [{}]})",                   // run without kernel
      R"({"name": "t", "runs": [{"kernel": "axpy", "wut": 1}]})",
      R"({"name": "t", "bogus": 1, "runs": [{"kernel": "axpy"}]})",
      R"({"name": "t", "runs": [{"kernel": "axpy", "repeat": 0}]})",
      R"({"name": "t", "runs": [{"kernel": "axpy", "variants": []}]})",
      R"({"name": "t", "runs": [{"kernel": "axpy", "sizes": [{"n": 1.5}]}]})",
      R"({"name": "t", "runs": [{"kernel": "axpy", "sim": {"warp": 9}}]})",
      R"({"name": "t", "runs": [{"kernel": "axpy", "sim": {"fpu_depth": true}}]})",
      // u32-destined override larger than 2^32 must not silently truncate.
      R"({"name": "t", "runs": [{"kernel": "axpy", "sim": {"fpu_depth": 4294967297}}]})",
  };
  for (const char* text : bad) {
    const auto r = parse_scenario(text);
    EXPECT_FALSE(r.ok()) << "accepted: " << text;
  }
}

TEST(Scenario, SimOverridesRoundTrip) {
  const auto doc = Json::parse(R"({
    "fpu_depth": 5, "tcdm_banks": 16, "strict_handoff": true,
    "fp_queue_depth": 4, "max_cycles": 1000000, "taken_branch_penalty": 0
  })");
  ASSERT_TRUE(doc.ok());
  sim::SimConfig cfg;
  const Status s = apply_sim_overrides(doc.value(), cfg);
  ASSERT_TRUE(s.is_ok()) << s.message();
  EXPECT_EQ(cfg.fpu_depth, 5u);
  EXPECT_EQ(cfg.tcdm.num_banks, 16u);
  EXPECT_TRUE(cfg.strict_chain_handoff);
  EXPECT_EQ(cfg.fp_queue_depth, 4u);
  EXPECT_EQ(cfg.max_cycles, 1000000u);
  EXPECT_EQ(cfg.taken_branch_penalty, 0u);
  // Untouched keys keep their defaults.
  const sim::SimConfig dflt;
  EXPECT_EQ(cfg.fdiv_latency, dflt.fdiv_latency);
  EXPECT_EQ(cfg.seq_buffer_depth, dflt.seq_buffer_depth);

  // A typo and a removed key are both rejected like any unknown key.
  for (const char* text : {R"({"fpu_dpeth": 3})", R"({"fast_forward": false})"}) {
    sim::SimConfig cfg2;
    const auto bad = Json::parse(text);
    ASSERT_TRUE(bad.ok()) << text;
    EXPECT_FALSE(apply_sim_overrides(bad.value(), cfg2).is_ok()) << text;
  }
}

// --- expansion ---------------------------------------------------------------

TEST(Scenario, ExpandsDeterministically) {
  const auto sc = parse_scenario(R"({
    "name": "t",
    "sim": {"tcdm_banks": 16},
    "runs": [{
      "kernel": "axpy",
      "variants": ["baseline", "chained"],
      "sizes": [{"n": 64}, {"n": 128}],
      "sim": {"fpu_depth": 4},
      "repeat": 2
    }]
  })");
  ASSERT_TRUE(sc.ok()) << sc.status().message();
  const auto jobs = expand(sc.value());
  ASSERT_TRUE(jobs.ok()) << jobs.status().message();
  ASSERT_EQ(jobs.value().size(), 8u); // 2 variants x 2 sizes x 2 repeats
  const Job& first = jobs.value()[0];
  EXPECT_EQ(first.kernel->name, "axpy");
  EXPECT_EQ(first.variant, "baseline");
  EXPECT_EQ(first.sizes.at("n"), 64);
  EXPECT_EQ(first.sizes.at("unroll"), 4); // registry default filled in
  EXPECT_EQ(first.repeat_index, 0u);
  // Run-level sim merged over the scenario-level base.
  EXPECT_EQ(first.config.fpu_depth, 4u);
  EXPECT_EQ(first.config.tcdm.num_banks, 16u);
  // size-major, then variant, then repeat: deterministic report order.
  EXPECT_EQ(jobs.value()[1].repeat_index, 1u);
  EXPECT_EQ(jobs.value()[2].variant, "chained");
  EXPECT_EQ(jobs.value()[4].sizes.at("n"), 128);
}

TEST(Scenario, ExpandRejectsUnknownNames) {
  const auto unknown_kernel = parse_scenario(
      R"({"name": "t", "runs": [{"kernel": "warpdrive"}]})");
  ASSERT_TRUE(unknown_kernel.ok());
  EXPECT_FALSE(expand(unknown_kernel.value()).ok());

  const auto unknown_variant = parse_scenario(
      R"({"name": "t", "runs": [{"kernel": "axpy", "variants": ["turbo"]}]})");
  ASSERT_TRUE(unknown_variant.ok());
  EXPECT_FALSE(expand(unknown_variant.value()).ok());

  const auto unknown_size = parse_scenario(
      R"({"name": "t", "runs": [{"kernel": "axpy", "sizes": [{"q": 1}]}]})");
  ASSERT_TRUE(unknown_size.ok());
  EXPECT_FALSE(expand(unknown_size.value()).ok());

  // Sizes outside u32 range must fail at expand time, not wrap inside the
  // builder (a negative m once hung the runner as a 4-billion-row kernel).
  for (const char* text :
       {R"({"name": "t", "runs": [{"kernel": "gemv", "sizes": [{"m": -4}]}]})",
        R"({"name": "t", "runs": [{"kernel": "axpy", "sizes": [{"n": 4294967552}]}]})"}) {
    const auto sc = parse_scenario(text);
    ASSERT_TRUE(sc.ok()) << sc.status().message();
    EXPECT_FALSE(expand(sc.value()).ok()) << text;
  }
}

// --- end-to-end --------------------------------------------------------------

TEST(Scenario, RunsJobsAndReportsResults) {
  const auto sc = parse_scenario(R"({
    "name": "mini",
    "runs": [
      {"kernel": "dot", "variants": ["baseline", "chained"], "sizes": [{"n": 64}]},
      // An ill-sized job must fail in its report row, not abort the batch.
      {"kernel": "dot", "variants": ["chained"], "sizes": [{"n": 63}]}
    ]
  })");
  ASSERT_TRUE(sc.ok()) << sc.status().message();
  const auto jobs = expand(sc.value());
  ASSERT_TRUE(jobs.ok()) << jobs.status().message();
  ASSERT_EQ(jobs.value().size(), 3u);
  const auto results = run_jobs(jobs.value());
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok) << results[0].error;
  EXPECT_TRUE(results[1].ok) << results[1].error;
  EXPECT_FALSE(results[2].ok);
  EXPECT_NE(results[2].error.find("multiple of unroll"), std::string::npos)
      << results[2].error;
  // The chained variant's story shows up in the counters.
  EXPECT_GT(results[1].fpu_utilization, results[0].fpu_utilization);

  const Json report = make_report(sc.value(), jobs.value(), results,
                                  api::default_engine().worker_count());
  EXPECT_EQ(report.get("scenario")->as_string(), "mini");
  EXPECT_EQ(report.get("schema")->as_i64(), api::RunReport::kSchemaVersion);
  EXPECT_EQ(report.get("jobs")->as_i64(), 3);
  EXPECT_EQ(report.get("failures")->as_i64(), 1);
  ASSERT_EQ(report.get("results")->items().size(), 3u);
  const Json& row = report.get("results")->items()[0];
  EXPECT_EQ(row.get("schema")->as_i64(), api::RunReport::kSchemaVersion);
  EXPECT_EQ(row.get("kernel")->as_string(), "dot");
  EXPECT_EQ(row.get("variant")->as_string(), "baseline");
  EXPECT_EQ(row.get("sizes")->get("n")->as_i64(), 64);
  EXPECT_TRUE(row.get("ok")->as_bool());
  EXPECT_GT(row.get("cycles")->as_i64(), 0);
  EXPECT_NE(row.get("stalls")->get("fp_raw"), nullptr);
  EXPECT_NE(row.get("energy")->get("power_mw"), nullptr);

  // The emitted report is valid strict JSON (parses back without comments).
  const auto reparsed = Json::parse(report.dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  EXPECT_EQ(reparsed.value().get("results")->items().size(), 3u);
}

// --- parser hardening corpus -------------------------------------------------

#ifdef SCH_CORPUS_DIR
TEST(ScenarioCorpus, EveryCorpusInputReturnsACleanStatus) {
  // tests/corpus/scenario/ holds hostile inputs: empty files, truncations,
  // binary garbage, >64-deep nesting, huge numbers, unterminated strings,
  // duplicate keys, wrong types, unknown kernels/keys. The contract is
  // simple: parse_scenario() returns (a value or a clean error Status) on
  // every one of them -- it never throws, aborts or hangs. Inputs the
  // JSONC-lite dialect happens to accept must also expand without
  // throwing.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(SCH_CORPUS_DIR) / "scenario";
  ASSERT_TRUE(fs::exists(dir)) << dir << " missing (build config problem)";
  u32 seen = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    ASSERT_NO_THROW({
      const Result<Scenario> r = parse_scenario(text);
      if (r.ok()) {
        const Result<std::vector<Job>> jobs = expand(r.value());
        (void)jobs;  // either outcome is fine; throwing is not
      } else {
        EXPECT_FALSE(r.status().message().empty());
      }
    });
    ++seen;
  }
  EXPECT_GE(seen, 12u) << "corpus unexpectedly small -- files not checked in?";
}

TEST(ScenarioCorpus, KnownBadInputsAreRejected) {
  // A few corpus members pin the *specific* rejection, so a parser
  // regression that silently accepts garbage is caught even though the
  // blanket no-throw sweep above would stay green.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(SCH_CORPUS_DIR) / "scenario";
  const auto parse_file = [&](const char* name) {
    std::ifstream in(dir / name, std::ios::binary);
    EXPECT_TRUE(in.good()) << name;
    std::stringstream ss;
    ss << in.rdbuf();
    return parse_scenario(ss.str());
  };
  for (const char* name :
       {"empty.json", "truncated_mid_key.json", "unterminated_string.json",
        "deep_nesting.json", "wrong_type_runs.json", "missing_name.json",
        "unknown_key.json", "wrong_variant_type.json", "binary_bytes.json",
        "negative_override.json"}) {
    SCOPED_TRACE(name);
    const Result<Scenario> r = parse_file(name);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.status().message().empty());
  }
  // Unknown kernel names pass structural parsing (the registry is consulted
  // at expansion time) but must come back as a clean expand error.
  const Result<Scenario> unknown = parse_file("unknown_kernel.json");
  ASSERT_TRUE(unknown.ok()) << unknown.status().message();
  const Result<std::vector<Job>> jobs = expand(unknown.value());
  ASSERT_FALSE(jobs.ok());
  EXPECT_NE(jobs.status().message().find("warp_drive"), std::string::npos)
      << jobs.status().message();
}
#endif // SCH_CORPUS_DIR

} // namespace
} // namespace sch::scenario
