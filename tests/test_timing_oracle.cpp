// Timing-oracle matrix: the cycle count, the cluster's aggregate
// PerfCounters and the TCDM and DMA traffic counters of EVERY registry
// kernel x variant at 1 and 4 cluster cores are pinned against a committed
// golden file (tests/golden/timing_oracle.json). The cycle engine's reports
// are bit-identical across hosts, so any drift here is a real model change
// -- this is the backstop that lets the host-speed work (threaded dispatch,
// bank-mask arbitration, the per-cycle hot path) evolve while proving the
// modeled microarchitecture never moved: not its cycle counts, and not its
// stall attribution, bank contention or DMA activity either.
//
// Updating after an INTENDED timing change:
//   SCH_UPDATE_TIMING_ORACLE=1 ./sch_tests --gtest_filter='TimingOracle.*'
// rewrites the golden in the source tree; commit it together with the
// change that moved the numbers and explain the delta in the PR.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "kernels/registry.hpp"
#include "scenario/json.hpp"

namespace sch::api {
namespace {

#ifdef SCH_GOLDEN_DIR

constexpr const char* kGoldenPath = SCH_GOLDEN_DIR "/timing_oracle.json";
const u32 kCoreCounts[] = {1, 4};

/// One pinned counter of a run: golden section `group`, key `name`.
struct Counter {
  const char* group;
  const char* name;
  u64 value;
};

struct Row {
  std::string kernel;
  std::string variant;
  u32 cores;
  bool ok;
  u64 cycles;
  std::vector<Counter> counters; // grouped: every "perf", then "tcdm", "dma"
};

std::string row_key(const std::string& kernel, const std::string& variant,
                    u32 cores) {
  return kernel + "/" + variant + "@" + std::to_string(cores);
}

std::vector<Counter> counters_of(const RunReport& r) {
  std::vector<Counter> out;
  // Every PerfCounters field, keyed by member name (sim::kPerfFields).
  for (const sim::PerfField& f : sim::kPerfFields) {
    out.push_back({"perf", f.name, r.perf.*f.member});
  }
  out.push_back({"tcdm", "reads", r.tcdm_reads});
  out.push_back({"tcdm", "writes", r.tcdm_writes});
  out.push_back({"tcdm", "conflicts", r.tcdm_conflicts});
  out.push_back({"tcdm", "out_of_range", r.tcdm_out_of_range});
  out.push_back({"dma", "bytes", r.dma.bytes});
  out.push_back({"dma", "busy_cycles", r.dma.busy_cycles});
  out.push_back({"dma", "startup_cycles", r.dma.startup_cycles});
  out.push_back({"dma", "tcdm_conflicts", r.dma.tcdm_conflicts});
  return out;
}

/// Run the full matrix on the cycle engine. Deterministic: registry order
/// is name-sorted and reports are bit-identical across hosts.
std::vector<Row> run_matrix() {
  std::vector<Row> rows;
  for (const kernels::KernelEntry* entry :
       kernels::Registry::instance().entries()) {
    for (const std::string& variant : entry->variants) {
      for (const u32 cores : kCoreCounts) {
        RunRequest request =
            RunRequest::for_kernel(entry->name, variant, {}, EngineSel::kCycle);
        request.config.num_cores = cores;
        const RunReport report = run(request);
        rows.push_back(Row{entry->name, variant, cores, report.ok,
                           report.cycles, counters_of(report)});
      }
    }
  }
  return rows;
}

scenario::Json to_json(const std::vector<Row>& rows) {
  scenario::Json root = scenario::Json::object();
  root.set("version", 2);
  root.set("description",
           "Pinned cycle counts, aggregate PerfCounters and TCDM/DMA traffic: "
           "every registry kernel x variant at 1 and 4 cores, default sizes, "
           "cycle engine. Regenerate with SCH_UPDATE_TIMING_ORACLE=1 (see "
           "tests/test_timing_oracle.cpp).");
  scenario::Json entries = scenario::Json::array();
  for (const Row& r : rows) {
    scenario::Json e = scenario::Json::object();
    e.set("kernel", r.kernel);
    e.set("variant", r.variant);
    e.set("cores", static_cast<i64>(r.cores));
    e.set("ok", r.ok);
    e.set("cycles", static_cast<i64>(r.cycles));
    // Counters arrive grouped, so each section is one contiguous run.
    for (usize i = 0; i < r.counters.size();) {
      const std::string group = r.counters[i].group;
      scenario::Json section = scenario::Json::object();
      for (; i < r.counters.size() && group == r.counters[i].group; ++i) {
        section.set(r.counters[i].name, r.counters[i].value);
      }
      e.set(group, std::move(section));
    }
    entries.push_back(std::move(e));
  }
  root.set("entries", std::move(entries));
  return root;
}

TEST(TimingOracle, EveryKernelVariantCoreCountMatchesGolden) {
  const std::vector<Row> rows = run_matrix();

  if (std::getenv("SCH_UPDATE_TIMING_ORACLE") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << to_json(rows).dump(2) << "\n";
    GTEST_SKIP() << "golden regenerated at " << kGoldenPath
                 << "; commit it with the timing change";
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good())
      << "missing golden " << kGoldenPath
      << "; generate with SCH_UPDATE_TIMING_ORACLE=1 and commit it";
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = scenario::Json::parse(buf.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const scenario::Json& root = parsed.value();
  const scenario::Json* entries = root.get("entries");
  ASSERT_NE(entries, nullptr) << "golden has no \"entries\" array";

  // Index the golden rows; every golden row must be consumed (a removed
  // kernel or variant is a timing-surface change and must update the file).
  std::map<std::string, const scenario::Json*> golden;
  for (const scenario::Json& e : entries->items()) {
    const std::string key = row_key(e.get("kernel")->as_string(),
                                    e.get("variant")->as_string(),
                                    static_cast<u32>(e.get("cores")->as_i64()));
    golden[key] = &e;
  }

  for (const Row& r : rows) {
    const std::string key = row_key(r.kernel, r.variant, r.cores);
    auto it = golden.find(key);
    if (it == golden.end()) {
      ADD_FAILURE() << key << ": not in golden (new kernel/variant? "
                    << "regenerate with SCH_UPDATE_TIMING_ORACLE=1)";
      continue;
    }
    const scenario::Json& g = *it->second;
    EXPECT_EQ(r.ok, g.get("ok")->as_bool()) << key << ": ok status drifted";
    EXPECT_EQ(r.cycles, static_cast<u64>(g.get("cycles")->as_i64()))
        << key << ": pinned cycle count drifted (timing change!)";
    for (const Counter& c : r.counters) {
      const scenario::Json* section = g.get(c.group);
      const scenario::Json* value =
          section == nullptr ? nullptr : section->get(c.name);
      if (value == nullptr) {
        ADD_FAILURE() << key << ": " << c.group << "." << c.name
                      << " not in golden (regenerate with "
                      << "SCH_UPDATE_TIMING_ORACLE=1)";
        continue;
      }
      EXPECT_EQ(c.value, static_cast<u64>(value->as_i64()))
          << key << ": " << c.group << "." << c.name << " drifted";
    }
    golden.erase(it);
  }
  for (const auto& [key, unused] : golden) {
    (void)unused;
    ADD_FAILURE() << key << ": in golden but no longer in the registry "
                  << "(regenerate with SCH_UPDATE_TIMING_ORACLE=1)";
  }
}

#endif // SCH_GOLDEN_DIR

} // namespace
} // namespace sch::api
