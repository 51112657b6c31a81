// Fast-path equivalence suite: the ISS's threaded superblock dispatch
// (fast_dispatch) must be TIMING-INVISIBLE. It is forced off against the
// default and the resulting RunReports must be bit-identical: cycles, the
// full PerfCounters block (aggregate and per core), TCDM contention stats,
// DMA stats, energy, ISS instruction counts and lockstep verdicts. (The
// TCDM bank arbiter has one implementation; tests/test_mem.cpp checks it
// against a brute-force per-bank model.)
//
// Two workload sources:
//  * a registry-kernel sample covering chaining, FREP, indirect streams,
//    DMA double buffering and a 4-core cluster;
//  * pinned-seed differential-fuzz programs over the full block
//    vocabulary, run exactly like the fuzz campaign (both engines in
//    lockstep with full-memory compare).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/engine.hpp"
#include "fuzz/fuzz.hpp"

namespace sch::api {
namespace {

RunReport run_with(RunRequest request, bool fast_dispatch) {
  request.config.fast_dispatch = fast_dispatch;
  return run(request);
}

/// Field-wise report equality. Doubles compare exactly: both runs execute
/// the identical arithmetic over identical counters, so any difference is
/// a fast-path leak, not a rounding artifact.
void expect_identical(const RunReport& fast, const RunReport& slow,
                      const std::string& what) {
  EXPECT_EQ(fast.ok, slow.ok) << what;
  EXPECT_EQ(fast.error, slow.error) << what;
  EXPECT_EQ(fast.cycles, slow.cycles) << what;
  EXPECT_EQ(fast.iss_instructions, slow.iss_instructions) << what;
  EXPECT_EQ(fast.mismatches, slow.mismatches) << what;
  EXPECT_EQ(fast.lockstep_mismatches, slow.lockstep_mismatches) << what;
  EXPECT_TRUE(fast.perf == slow.perf) << what << ": aggregate perf differs";
  EXPECT_EQ(fast.fpu_utilization, slow.fpu_utilization) << what;

  EXPECT_EQ(fast.num_cores, slow.num_cores) << what;
  ASSERT_EQ(fast.cores.size(), slow.cores.size()) << what;
  for (usize i = 0; i < fast.cores.size(); ++i) {
    EXPECT_EQ(fast.cores[i].cycles, slow.cores[i].cycles)
        << what << ": core " << i;
    EXPECT_EQ(fast.cores[i].fpu_utilization, slow.cores[i].fpu_utilization)
        << what << ": core " << i;
    EXPECT_TRUE(fast.cores[i].perf == slow.cores[i].perf)
        << what << ": core " << i << " perf differs";
  }

  EXPECT_EQ(fast.tcdm_reads, slow.tcdm_reads) << what;
  EXPECT_EQ(fast.tcdm_writes, slow.tcdm_writes) << what;
  EXPECT_EQ(fast.tcdm_conflicts, slow.tcdm_conflicts) << what;
  EXPECT_EQ(fast.tcdm_out_of_range, slow.tcdm_out_of_range) << what;
  EXPECT_TRUE(fast.tcdm_top_banks == slow.tcdm_top_banks)
      << what << ": conflict histogram differs";

  EXPECT_EQ(fast.dma.transfers, slow.dma.transfers) << what;
  EXPECT_EQ(fast.dma.bytes, slow.dma.bytes) << what;
  EXPECT_EQ(fast.dma.busy_cycles, slow.dma.busy_cycles) << what;
  EXPECT_EQ(fast.dma.startup_cycles, slow.dma.startup_cycles) << what;
  EXPECT_EQ(fast.dma.tcdm_conflicts, slow.dma.tcdm_conflicts) << what;
  EXPECT_EQ(fast.dma.queue_full_stalls, slow.dma.queue_full_stalls) << what;
  EXPECT_EQ(fast.dma.achieved_bytes_per_cycle,
            slow.dma.achieved_bytes_per_cycle)
      << what;

  EXPECT_EQ(fast.energy.breakdown.total_pj, slow.energy.breakdown.total_pj)
      << what;
  EXPECT_EQ(fast.energy.breakdown.int_core_pj,
            slow.energy.breakdown.int_core_pj)
      << what;
  EXPECT_EQ(fast.energy.breakdown.fpu_pj, slow.energy.breakdown.fpu_pj) << what;
  EXPECT_EQ(fast.energy.breakdown.tcdm_pj, slow.energy.breakdown.tcdm_pj)
      << what;
  EXPECT_EQ(fast.energy.breakdown.chain_pj, slow.energy.breakdown.chain_pj)
      << what;
  EXPECT_EQ(fast.energy.power_mw, slow.energy.power_mw) << what;
  EXPECT_EQ(fast.energy.fpu_ops_per_joule, slow.energy.fpu_ops_per_joule)
      << what;
}

void expect_toggle_invisible(const RunRequest& request,
                             const std::string& label) {
  expect_identical(run_with(request, true), run_with(request, false),
                   label + " [fast_dispatch off]");
}

// --- registry-kernel sample --------------------------------------------------

struct KernelCase {
  const char* kernel;
  const char* variant;
  u32 num_cores;
};

// Chaining, FREP, indirect gather, DMA double buffering and multi-core
// TCDM contention are all represented.
const KernelCase kKernelCases[] = {
    {"vecop", "chained+frep", 1},
    {"gemm", "chained", 1},
    {"conv2d", "chained", 1},
    {"box3d1r", "Chaining+", 1},
    {"axpy", "chained_dma", 1},
    {"axpy", "chained_dbuf", 1},
    {"gemv", "chained_dbuf", 1},
    {"vecop", "chained_par", 4},
    {"gemv", "chained_par", 4},
    {"axpy", "chained_dbuf", 4},
};

TEST(FastPathEquiv, KernelSampleBitIdenticalWithEachFastPathOff) {
  for (const KernelCase& c : kKernelCases) {
    RunRequest request =
        RunRequest::for_kernel(c.kernel, c.variant, {}, EngineSel::kBoth);
    request.config.num_cores = c.num_cores;
    expect_toggle_invisible(request, std::string(c.kernel) + "/" + c.variant +
                                         "@" + std::to_string(c.num_cores));
  }
}

// --- pinned-seed fuzz programs -----------------------------------------------

// Mirrors fuzz::run_spec (differ.cpp): both engines in lockstep, full
// final-memory compare, the campaign's cycle/deadlock budgets. Rebuilt here
// because run_spec does not expose the SimConfig fast-path knobs.
RunRequest fuzz_request(const fuzz::ProgramSpec& spec, u64 seed) {
  RunRequest request = RunRequest::for_programs(
      fuzz::materialize(spec), "fuzz/seed=" + std::to_string(seed),
      EngineSel::kBoth);
  request.lockstep_compare_memory = true;
  request.config.max_cycles = 2'000'000;
  request.config.deadlock_cycles = 20'000;
  return request;
}

TEST(FastPathEquiv, FuzzProgramsBitIdenticalWithEachFastPathOff) {
  constexpr u64 kCampaignSeed = 0xFA57'0001;
  constexpr u32 kRuns = 100;
  for (u32 i = 0; i < kRuns; ++i) {
    const u64 seed = kCampaignSeed + i;
    const fuzz::ProgramSpec spec = fuzz::generate_spec(seed);
    expect_toggle_invisible(fuzz_request(spec, seed),
                            "fuzz seed " + std::to_string(seed));
  }
}

} // namespace
} // namespace sch::api
