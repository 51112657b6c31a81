// The SimConfig field table (sim::kSimFields) is the one source of every
// settable field's key and range. These tests walk the table itself: each
// row's out-of-range values must be rejected identically by
// SimConfig::validate(), the scenario parser and a serve request, and each
// row's bounds must be accepted. They also pin the `--set` path: CLI pairs
// win over a scenario's own keys and reach both the simulated timing and the
// report's `sim` echo.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/json.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_runner.hpp"
#include "serve/server.hpp"
#include "sim/sim_config.hpp"

namespace sch {
namespace {

using scenario::Json;
using sim::SimField;
using sim::kSimFields;

constexpr u64 kJsonMax = static_cast<u64>(std::numeric_limits<i64>::max());

/// Values outside the row's range that its member type can hold: min-1 when
/// min > 0, max+1 unless max is the type's ceiling, plus non-powers of two.
std::vector<u64> bad_values(const SimField& f) {
  std::vector<u64> bad;
  if (f.kind == SimField::kBool) return bad;
  if (f.min > 0) bad.push_back(f.min - 1);
  if (f.max != ~u64{0}) {
    sim::SimConfig c;
    f.set(c, f.max + 1);
    if (f.get(c) == f.max + 1) bad.push_back(f.max + 1);
  }
  if (f.kind == SimField::kPow2) bad.push_back(3);
  return bad;
}

Json sim_object(const SimField& f, u64 v) {
  Json sim = Json::object();
  if (f.kind == SimField::kBool) {
    sim.set(f.key, v != 0);
  } else {
    sim.set(f.key, static_cast<i64>(v));
  }
  return sim;
}

Result<scenario::RunSpec> parse_with(const Json& sim) {
  Json run = Json::object();
  run.set("kernel", "axpy");
  run.set("sim", sim);
  return scenario::parse_run_spec(run, 0, Json::object(), 1);
}

std::vector<Json> serve_session(serve::Server& server, const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  server.serve(in, out);
  std::vector<Json> lines;
  std::istringstream rs(out.str());
  std::string line;
  while (std::getline(rs, line)) {
    Result<Json> parsed = Json::parse(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (parsed.ok()) lines.push_back(std::move(parsed).value());
  }
  return lines;
}

TEST(SimFields, KeysAreUniqueAndDefaultsLegal) {
  std::set<std::string> keys;
  const sim::SimConfig defaults;
  for (const SimField& f : kSimFields) {
    SCOPED_TRACE(f.key);
    EXPECT_TRUE(keys.insert(f.key).second) << "duplicate key";
    EXPECT_EQ(sim::find_sim_field(f.key), &f);
    EXPECT_LE(f.min, f.max);
    EXPECT_TRUE(f.accepts(f.get(defaults))) << "default out of range";
  }
  EXPECT_EQ(sim::find_sim_field("trace"), nullptr);
  EXPECT_EQ(sim::find_sim_field("max_wall_ms"), nullptr);
  EXPECT_TRUE(defaults.validate().is_ok());
}

TEST(SimFields, OutOfRangeRejectedByValidateParserAndServe) {
  serve::Server server;
  u32 checked = 0;
  for (const SimField& f : kSimFields) {
    for (const u64 v : bad_values(f)) {
      SCOPED_TRACE(std::string(f.key) + "=" + std::to_string(v));
      ++checked;

      sim::SimConfig c;
      f.set(c, v);
      const Status st = c.validate();
      ASSERT_FALSE(st.is_ok());
      EXPECT_NE(st.message().find(f.member), std::string::npos) << st.message();

      if (v > kJsonMax) continue;
      const Json sim = sim_object(f, v);
      const Result<scenario::RunSpec> spec = parse_with(sim);
      ASSERT_FALSE(spec.ok());
      EXPECT_NE(spec.status().message().find(f.key), std::string::npos)
          << spec.status().message();

      const std::string request =
          R"({"id":"bad","kernel":"axpy","variants":["baseline"],)"
          R"("sizes":[{"n":64}],"sim":)" + sim.dump() + "}\n";
      const std::vector<Json> lines = serve_session(server, request);
      ASSERT_EQ(lines.size(), 1u) << "one error line, no report line";
      EXPECT_EQ(lines[0].get("type")->as_string(), "error");
      EXPECT_EQ(lines[0].get("id")->as_string(), "bad");
      EXPECT_EQ(lines[0].get("failure")->get("kind")->as_string(), "validation");
    }
  }
  EXPECT_GE(checked, 30u) << "table unexpectedly small";
}

TEST(SimFields, BoundsAndWrongTypes) {
  for (const SimField& f : kSimFields) {
    SCOPED_TRACE(f.key);
    for (const u64 v : {f.min, f.max}) {
      sim::SimConfig c;
      f.set(c, v);
      EXPECT_TRUE(c.validate().is_ok()) << v;
      if (v <= kJsonMax) {
        const Result<scenario::RunSpec> spec = parse_with(sim_object(f, v));
        EXPECT_TRUE(spec.ok()) << spec.status().message();
      }
    }
    // A bool row takes no integer and an integer row no bool.
    Json wrong = Json::object();
    if (f.kind == SimField::kBool) {
      wrong.set(f.key, 1);
    } else {
      wrong.set(f.key, true);
    }
    EXPECT_FALSE(parse_with(wrong).ok());
  }
}

#ifdef SCH_CORPUS_DIR
TEST(SimFields, MeasuredPathologicalInputsAreRejectedBeforeRunning) {
  // Before the table, each of these ran: minutes of host time or GiBs of
  // RSS, or (tcdm_banks 3) a non-power-of-two arbiter.
  std::ifstream in(std::filesystem::path(SCH_CORPUS_DIR) / "serve" /
                   "oversized_config.ndjson");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  serve::Server server;
  const std::vector<Json> lines = serve_session(server, ss.str());
  const std::vector<std::string> ids = {"fpu_depth", "fp_queue_depth",
                                        "tcdm_banks_huge", "tcdm_banks_odd"};
  ASSERT_EQ(lines.size(), ids.size());
  for (usize i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(lines[i].get("type")->as_string(), "error") << ids[i];
    EXPECT_EQ(lines[i].get("id")->as_string(), ids[i]);
    EXPECT_EQ(lines[i].get("failure")->get("kind")->as_string(), "validation");
  }
}
#endif // SCH_CORPUS_DIR

#ifdef SCH_EXAMPLES_DIR
TEST(SimFields, SetPairsWinOverScenarioKeysAndReachTheEcho) {
  // `schsim run dbuf_sweep.json --set main_mem_latency=200
  //  --set main_mem_bytes_per_cycle=4`: every row's echo must show what was
  // simulated, not the file's own 10/50/200 and 8/4.
  namespace fs = std::filesystem;
  const fs::path out = fs::temp_directory_path() / "sch_test_set_echo.json";
  scenario::ScenarioRunOptions options;
  options.output = out.string();
  options.sim.set("main_mem_latency", 200);
  options.sim.set("main_mem_bytes_per_cycle", 4);
  std::ostringstream log;
  const auto outcome = scenario::run_scenario_file(
      std::string(SCH_EXAMPLES_DIR) + "/scenarios/dbuf_sweep.json", options, log);
  ASSERT_TRUE(outcome.ok()) << outcome.status().message();
  EXPECT_EQ(outcome.value().failures, 0u) << log.str();

  std::ifstream in(out);
  std::stringstream ss;
  ss << in.rdbuf();
  fs::remove(out);
  const Result<Json> report = Json::parse(ss.str());
  ASSERT_TRUE(report.ok()) << report.status().message();
  const Json::Array& rows = report.value().get("results")->items();
  ASSERT_FALSE(rows.empty());
  for (const Json& row : rows) {
    EXPECT_EQ(row.get("sim")->get("main_mem_latency")->as_i64(), 200);
    EXPECT_EQ(row.get("sim")->get("main_mem_bytes_per_cycle")->as_i64(), 4);
  }
  EXPECT_EQ(rows[0].get("kernel")->as_string(), "axpy");
  EXPECT_EQ(rows[0].get("variant")->as_string(), "chained_dma");
  EXPECT_EQ(rows[0].get("cycles")->as_i64(), 18525);

  // A bad pair fails the load with the key named, before anything runs.
  options.sim = Json::object();
  options.sim.set("tcdm_banks", 3);
  const auto bad = scenario::run_scenario_file(
      std::string(SCH_EXAMPLES_DIR) + "/scenarios/dbuf_sweep.json", options, log);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("tcdm_banks"), std::string::npos);
}
#endif // SCH_EXAMPLES_DIR

} // namespace
} // namespace sch
