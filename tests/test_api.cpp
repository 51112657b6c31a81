// Unified execution-engine coverage: request resolution across the three
// workload forms, sync/async parity, deterministic submit() ordering under 1
// vs N worker threads, the kBoth lockstep cross-check (a divergence surfaces
// as a failed RunReport, never an abort), SimConfig validation at the
// engine and simulator layers, observer callbacks, and a golden test that
// pins the versioned RunReport JSON schema.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "api/engine.hpp"
#include "asm/assembler.hpp"
#include "kernels/vecop.hpp"
#include "mem/memory.hpp"
#include "sim/simulator.hpp"

namespace sch::api {
namespace {

Program prog(std::string_view src) {
  auto r = assembler::assemble(src);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

// --- request resolution ------------------------------------------------------

TEST(Engine, RegistryWorkloadRuns) {
  const RunReport r = run(RunRequest::for_kernel("vecop", "chained", {{"n", 64}}));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.name, "vecop/chained");
  EXPECT_EQ(r.kernel, "vecop");
  EXPECT_GT(r.cycles, 0u);
  EXPECT_EQ(r.mismatches, 0u);
}

TEST(Engine, PrebuiltWorkloadRuns) {
  const kernels::BuiltKernel k =
      kernels::build_vecop(kernels::VecopVariant::kChained, {.n = 64});
  const RunReport r = run(RunRequest::for_built(k));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.name, k.name);
  EXPECT_EQ(r.regs.chained_regs, k.regs.chained_regs);
  EXPECT_EQ(r.useful_flops, k.useful_flops);
}

TEST(Engine, RawProgramWorkloadRuns) {
  const RunReport r = run(RunRequest::for_program(prog(R"(
      li a0, 7
      ecall
  )"), "tiny"));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.name, "tiny");
  EXPECT_GT(r.cycles, 0u);
}

TEST(Engine, UnknownKernelFailsReportNotProcess) {
  const RunReport r = run(RunRequest::for_kernel("warpdrive", "turbo"));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown kernel"), std::string::npos) << r.error;
}

TEST(Engine, BadSizesFailReportNotProcess) {
  // n=63 violates the unroll-multiple constraint inside the builder.
  const RunReport r = run(RunRequest::for_kernel("vecop", "chained", {{"n", 63}}));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("vecop"), std::string::npos) << r.error;
}

TEST(Engine, EmptyRequestFails) {
  const RunReport r = run(RunRequest{});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no workload"), std::string::npos) << r.error;
}

// --- engine selection --------------------------------------------------------

TEST(Engine, IssEngineCountsInstructions) {
  const kernels::BuiltKernel k =
      kernels::build_vecop(kernels::VecopVariant::kChained, {.n = 64});
  const RunReport r = run(RunRequest::for_built(k, EngineSel::kIss));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.iss_instructions, 0u);
  EXPECT_EQ(r.cycles, 0u);  // the cycle engine did not run
}

TEST(Engine, BothEnginesAgreeOnRealKernel) {
  const kernels::BuiltKernel k =
      kernels::build_vecop(kernels::VecopVariant::kChainedFrep, {.n = 64});
  const RunReport r = run(RunRequest::for_built(k, EngineSel::kBoth));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.iss_instructions, 0u);
  EXPECT_EQ(r.lockstep_mismatches, 0u);
}

TEST(Engine, LockstepMismatchSurfacesAsFailedReport) {
  // The cycle CSR is the one architecturally-visible point where the two
  // engines legitimately diverge (the ISS exposes instret as a proxy), so a
  // program that captures it into a register forces a lockstep mismatch.
  RunRequest request = RunRequest::for_program(prog(R"(
      csrr a0, cycle
      ecall
  )"), "cycle_csr", EngineSel::kBoth);
  const RunReport r = run(request);
  EXPECT_FALSE(r.ok);
  EXPECT_GT(r.lockstep_mismatches, 0u);
  EXPECT_NE(r.error.find("lockstep divergence"), std::string::npos) << r.error;
}

// --- config validation -------------------------------------------------------

TEST(Engine, InvalidConfigFailsReport) {
  const struct {
    void (*mutate)(sim::SimConfig&);
    const char* what;
  } cases[] = {
      {[](sim::SimConfig& c) { c.fpu_depth = 0; }, "fpu_depth"},
      {[](sim::SimConfig& c) { c.fp_queue_depth = 0; }, "fp_queue_depth"},
      {[](sim::SimConfig& c) { c.seq_buffer_depth = 0; }, "seq_buffer_depth"},
      {[](sim::SimConfig& c) { c.tcdm.num_banks = 0; }, "num_banks"},
  };
  for (const auto& test_case : cases) {
    RunRequest request = RunRequest::for_kernel("vecop", "chained", {{"n", 64}});
    test_case.mutate(request.config);
    const RunReport r = run(request);
    EXPECT_FALSE(r.ok) << test_case.what;
    EXPECT_NE(r.error.find(test_case.what), std::string::npos) << r.error;
  }
}

TEST(Engine, SimulatorConstructorRejectsInvalidConfig) {
  Memory mem;
  sim::SimConfig cfg;
  cfg.fpu_depth = 0;
  EXPECT_THROW(sim::Simulator(prog("ecall"), mem, cfg), std::invalid_argument);
}

TEST(Engine, SimConfigValidateMessages) {
  sim::SimConfig ok;
  EXPECT_TRUE(ok.validate().is_ok());
  sim::SimConfig bad;
  bad.seq_buffer_depth = 0;
  EXPECT_FALSE(bad.validate().is_ok());
  EXPECT_NE(bad.validate().message().find("seq_buffer_depth"), std::string::npos);
}

// --- async submission --------------------------------------------------------

std::vector<RunRequest> determinism_batch() {
  std::vector<RunRequest> requests;
  requests.push_back(RunRequest::for_kernel("vecop", "baseline", {{"n", 64}}));
  requests.push_back(RunRequest::for_kernel("vecop", "chained", {{"n", 64}}));
  requests.push_back(RunRequest::for_kernel("dot", "chained", {{"n", 64}}));
  requests.push_back(RunRequest::for_kernel("axpy", "chained", {{"n", 64}}));
  requests.push_back(RunRequest::for_kernel("gemv", "chained", {}));
  requests.push_back(RunRequest::for_kernel("vecop", "chained", {{"n", 63}})); // fails
  for (RunRequest& r : requests) r.engine = EngineSel::kBoth;
  return requests;
}

TEST(Engine, SubmitReportOrderIsDeterministicAcrossThreadCounts) {
  Engine serial(EngineConfig{.threads = 1});
  Engine parallel(EngineConfig{.threads = 4});
  const std::vector<RunReport> a = serial.run_batch(determinism_batch());
  const std::vector<RunReport> b = parallel.run_batch(determinism_batch());
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].name);
    // Every field except host wall-clock must be bit-identical.
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].ok, b[i].ok);
    EXPECT_EQ(a[i].error, b[i].error);
    EXPECT_EQ(a[i].cycles, b[i].cycles);
    EXPECT_EQ(a[i].perf.total_retired(), b[i].perf.total_retired());
    EXPECT_EQ(a[i].perf.fpu_ops, b[i].perf.fpu_ops);
    EXPECT_EQ(a[i].perf.stall_fp_raw, b[i].perf.stall_fp_raw);
    EXPECT_EQ(a[i].iss_instructions, b[i].iss_instructions);
    EXPECT_EQ(a[i].mismatches, b[i].mismatches);
    EXPECT_EQ(a[i].lockstep_mismatches, b[i].lockstep_mismatches);
    EXPECT_EQ(a[i].tcdm_reads, b[i].tcdm_reads);
    EXPECT_EQ(a[i].tcdm_writes, b[i].tcdm_writes);
    EXPECT_EQ(a[i].tcdm_conflicts, b[i].tcdm_conflicts);
    EXPECT_EQ(a[i].fpu_utilization, b[i].fpu_utilization);
    EXPECT_EQ(a[i].energy.power_mw, b[i].energy.power_mw);
    EXPECT_EQ(a[i].useful_flops, b[i].useful_flops);
    // JSON serialization (minus wall_s, the last member) is bit-identical.
    std::string ja = a[i].to_json().dump();
    std::string jb = b[i].to_json().dump();
    ja.erase(ja.find("\"wall_s\""));
    jb.erase(jb.find("\"wall_s\""));
    EXPECT_EQ(ja, jb);
  }
  // One failing job never aborts the batch.
  EXPECT_FALSE(a.back().ok);
  EXPECT_TRUE(a.front().ok) << a.front().error;
}

TEST(Engine, SubmitMatchesSyncRun) {
  Engine engine(EngineConfig{.threads = 2});
  RunRequest request = RunRequest::for_kernel("vecop", "chained", {{"n", 64}});
  const RunReport sync = engine.run(request);
  auto future = engine.submit(std::move(request));
  const RunReport async = future.get();
  EXPECT_EQ(sync.cycles, async.cycles);
  EXPECT_EQ(sync.ok, async.ok);
  EXPECT_EQ(sync.perf.total_retired(), async.perf.total_retired());
}

// --- observers ---------------------------------------------------------------

TEST(Engine, ObserverSeesEveryCycleAndTheHalt) {
  struct Probe : Observer {
    u64 cycles = 0;
    int starts = 0;
    int halts = 0;
    bool saw_memory = false;
    void on_run_start(const RunRequest&, const std::string&) override { ++starts; }
    void on_cycle(const sim::Simulator&) override { ++cycles; }
    void on_halt(const RunReport&, const sim::Simulator* simulator,
                 const Memory* memory) override {
      ++halts;
      saw_memory = memory != nullptr && simulator != nullptr;
    }
  };
  Probe probe;
  RunRequest request = RunRequest::for_kernel("vecop", "chained", {{"n", 64}});
  request.observers.push_back(&probe);
  const RunReport r = run(request);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(probe.starts, 1);
  EXPECT_EQ(probe.halts, 1);
  EXPECT_EQ(probe.cycles, r.cycles);
  EXPECT_TRUE(probe.saw_memory);
}

TEST(Engine, ProgressObserverReportsStartAndHalt) {
  std::ostringstream log;
  ProgressObserver progress(log);
  RunRequest good = RunRequest::for_kernel("vecop", "chained", {{"n", 64}});
  good.observers.push_back(&progress);
  const RunReport r = run(good);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(log.str(), "run  vecop/chained\nhalt vecop/chained: " +
                           std::to_string(r.cycles) + " cycles, util " +
                           [&] {
                             std::ostringstream os;
                             os << static_cast<int>(r.fpu_utilization * 1000) / 1000.0;
                             return os.str();
                           }() + "\n");

  RunRequest bad = RunRequest::for_kernel("vecop", "chained", {{"n", 63}});
  bad.observers.push_back(&progress);
  const RunReport rb = run(bad);
  ASSERT_FALSE(rb.ok);
  EXPECT_NE(log.str().find("halt vecop/chained: FAIL: "), std::string::npos)
      << log.str();
}

TEST(Engine, ObservedRunMatchesUnobservedTiming) {
  // Observer fan-out must never perturb the timing model.
  struct Null : Observer {} probe;
  RunRequest plain = RunRequest::for_kernel("gemm", "chained", {});
  RunRequest observed = plain;
  observed.observers.push_back(&probe);
  EXPECT_EQ(run(plain).cycles, run(observed).cycles);
}

// --- JSON schema golden ------------------------------------------------------

TEST(RunReportJson, GoldenSchemaV4) {
  ASSERT_EQ(RunReport::kSchemaVersion, 4);
  RunReport r;
  r.name = "vecop/chained";
  r.kernel = "vecop";
  r.variant = "chained";
  r.engine = EngineSel::kBoth;
  r.ok = true;
  r.cycles = 100;
  r.fpu_utilization = 0.5;
  r.perf.fp_instrs = 60;
  r.perf.int_instrs = 40;
  r.perf.fpu_ops = 50;
  r.perf.stall_fp_raw = 3;
  r.tcdm_reads = 7;
  r.tcdm_writes = 5;
  r.tcdm_conflicts = 1;
  r.energy.power_mw = 60.25;
  r.energy.energy_per_cycle_pj = 54.5;
  r.energy.fpu_ops_per_joule = 0.5;
  r.iss_instructions = 90;
  r.useful_flops = 48;
  r.regs.fp_regs_used = 6;
  r.regs.accumulator_regs = 1;
  r.regs.chained_regs = 1;
  r.regs.ssr_regs = 3;
  r.tcdm_out_of_range = 2;
  r.tcdm_top_banks = {{4, 9}, {0, 1}};
  r.dma.transfers = 2;
  r.dma.bytes = 1024;
  r.dma.busy_cycles = 160;
  r.dma.startup_cycles = 100;
  r.dma.tcdm_conflicts = 3;
  r.dma.queue_full_stalls = 1;
  r.dma.achieved_bytes_per_cycle = 6.5;
  r.num_cores = 1;
  RunReport::CoreReport core;
  core.cycles = 100;
  core.fpu_utilization = 0.5;
  core.perf = r.perf;
  r.cores.push_back(core);
  r.wall_s = 0.25;
  const std::string golden =
      R"({"schema":4,"name":"vecop/chained","kernel":"vecop","variant":"chained",)"
      R"("engine":"both","ok":true,"cycles":100,"retired":100,"fpu_ops":50,)"
      R"("fpu_utilization":0.5,"useful_flops":48,"iss_instructions":90,)"
      R"("mismatches":0,"lockstep_mismatches":0,"stalls":{"fp_raw":3,"fp_waw":0,)"
      R"("chain_empty":0,"chain_full":0,"ssr_empty":0,"ssr_wfull":0,"fpu_busy":0,)"
      R"("fp_lsu":0,"offload_full":0,"int_raw":0,"int_lsu":0,"csr_barrier":0,)"
      R"("dma_full":0,"branch_bubbles":0},"tcdm":{"reads":7,"writes":5,)"
      R"("conflicts":1,"out_of_range":2,"top_banks":[{"bank":4,"conflicts":9},)"
      R"({"bank":0,"conflicts":1}]},"dma":{"transfers":2,"bytes":1024,)"
      R"("busy_cycles":160,"startup_cycles":100,"tcdm_conflicts":3,)"
      R"("queue_full_stalls":1,"achieved_bytes_per_cycle":6.5},)"
      R"("num_cores":1,"cores":[{"hart":0,)"
      R"("cycles":100,"retired":100,"fpu_ops":50,"fpu_utilization":0.5,)"
      R"("stalls":{"fp_raw":3,"fp_waw":0,"chain_empty":0,"chain_full":0,)"
      R"("ssr_empty":0,"ssr_wfull":0,"fpu_busy":0,"fp_lsu":0,"offload_full":0,)"
      R"("int_raw":0,"int_lsu":0,"csr_barrier":0,"dma_full":0,)"
      R"("branch_bubbles":0}}],)"
      R"("energy":{"power_mw":60.25,"energy_per_cycle_pj":54.5,)"
      R"("fpu_ops_per_joule":0.5},"regs":{"fp_used":6,"accumulator":1,)"
      R"("chained":1,"ssr":3},"wall_s":0.25})";
  EXPECT_EQ(r.to_json().dump(), golden);
  // An ok row must not carry a failure section.
  EXPECT_EQ(r.to_json().get("failure"), nullptr);
  // Failed reports additionally carry the error message and the structured
  // v4 failure section (kind/hart/pc/cycle).
  r.ok = false;
  r.error = "boom";
  r.failure.kind = FailureKind::kDeadlock;
  r.failure.hart = 2;
  r.failure.pc = 0x80000010;
  r.failure.cycle = 12345;
  const Json j = r.to_json();
  ASSERT_NE(j.get("error"), nullptr);
  EXPECT_EQ(j.get("error")->as_string(), "boom");
  const Json* fj = j.get("failure");
  ASSERT_NE(fj, nullptr);
  ASSERT_NE(fj->get("kind"), nullptr);
  EXPECT_EQ(fj->get("kind")->as_string(), "deadlock");
  EXPECT_EQ(fj->get("hart")->as_i64(), 2);
  EXPECT_EQ(fj->get("pc")->as_i64(), 0x80000010);
  EXPECT_EQ(fj->get("cycle")->as_i64(), 12345);
}

TEST(RunReportJson, FailureKindNamesCoverTaxonomy) {
  EXPECT_STREQ(failure_kind_name(FailureKind::kNone), "none");
  EXPECT_STREQ(failure_kind_name(FailureKind::kValidation), "validation");
  EXPECT_STREQ(failure_kind_name(FailureKind::kBusError), "bus_error");
  EXPECT_STREQ(failure_kind_name(FailureKind::kDeadlock), "deadlock");
  EXPECT_STREQ(failure_kind_name(FailureKind::kLockstepMismatch),
               "lockstep_mismatch");
  EXPECT_STREQ(failure_kind_name(FailureKind::kGoldenMismatch),
               "golden_mismatch");
  EXPECT_STREQ(failure_kind_name(FailureKind::kBudgetExceeded),
               "budget_exceeded");
  EXPECT_STREQ(failure_kind_name(FailureKind::kInternal), "internal");
}

TEST(RunReportJson, EngineNamesRoundTrip) {
  for (EngineSel sel : {EngineSel::kIss, EngineSel::kCycle, EngineSel::kBoth}) {
    EngineSel parsed;
    ASSERT_TRUE(parse_engine(engine_name(sel), parsed));
    EXPECT_EQ(parsed, sel);
  }
  EngineSel out;
  EXPECT_FALSE(parse_engine("warp", out));
}

} // namespace
} // namespace sch::api
