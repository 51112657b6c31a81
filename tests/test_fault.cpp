// Fault-injection coverage (sim::FaultPlan): every fault class must be
// *caught* by the detector it targets and come back as a failed RunReport
// with the right structured failure.kind -- never as a crash, a hang, or a
// silently-wrong pass. One test per fault class, plus the timing-only
// pinned-green case (a finite TCDM bank stall perturbs cycles, not
// results) and the clean-plan baseline.
#include <gtest/gtest.h>

#include <memory>

#include "api/engine.hpp"
#include "asm/builder.hpp"
#include "isa/csr.hpp"
#include "sim/fault_plan.hpp"

namespace sch {
namespace {

using api::EngineSel;
using api::FailureKind;
using api::RunReport;
using api::RunRequest;
using sim::Fault;
using sim::FaultKind;
using sim::FaultPlan;

/// Counted delay loop: ~3 cycles per iteration on the int core, keeping the
/// hart retiring (watchdog-neutral) while a fault window elapses.
void emit_delay(ProgramBuilder& b, u32 iterations, const std::string& label) {
  b.li(isa::kT2, iterations);
  b.label(label);
  b.addi(isa::kT2, isa::kT2, -1);
  b.bnez(isa::kT2, label);
}

std::shared_ptr<const FaultPlan> plan_of(Fault f) {
  auto plan = std::make_shared<FaultPlan>();
  plan->faults.push_back(f);
  return plan;
}

/// fld a constant, wait out the fault window, store it back. A clean run
/// round-trips the value exactly; a mid-window FP register flip corrupts
/// the cycle engine's store while the fault-free ISS keeps the original.
Program flip_victim_program(Addr* out_addr) {
  ProgramBuilder b;
  const Addr cst = b.data_f64({1.5});
  const Addr out = b.data_zero(8);
  b.la(isa::kT0, cst);
  b.fld(3, isa::kT0, 0);
  emit_delay(b, 700, "wait");  // ~2000+ cycles
  b.la(isa::kT1, out);
  b.fsd(3, isa::kT1, 0);
  b.ecall();
  if (out_addr != nullptr) *out_addr = out;
  return b.build();
}

TEST(FaultInjection, CleanPlanBaselinePasses) {
  RunRequest req = RunRequest::for_program(flip_victim_program(nullptr),
                                           "fault/none", EngineSel::kBoth);
  req.lockstep_compare_memory = true;
  req.config.faults = std::make_shared<FaultPlan>();  // empty plan
  const RunReport r = api::run(req);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.failure.kind, FailureKind::kNone);
}

TEST(FaultInjection, FlipFpRegCaughtByLockstepCompare) {
  Fault f;
  f.kind = FaultKind::kFlipFpReg;
  f.cycle = 1000;  // mid delay loop: after the fld, before the fsd
  f.hart = 0;
  f.reg = 3;
  f.bits = 1ull << 52;  // off-by-one-exponent: 1.5 becomes 3.0
  RunRequest req = RunRequest::for_program(flip_victim_program(nullptr),
                                           "fault/flip", EngineSel::kBoth);
  req.lockstep_compare_memory = true;
  req.config.faults = plan_of(f);
  const RunReport r = api::run(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, FailureKind::kLockstepMismatch);
  EXPECT_GT(r.lockstep_mismatches, 0u);
}

TEST(FaultInjection, FlipFpRegCaughtByGoldenCheck) {
  // Same victim, cycle engine only: the corrupted store must fail the
  // golden validation (the detector a single-engine run relies on).
  kernels::BuiltKernel k;
  k.name = "fault/flip-golden";
  k.program = flip_victim_program(&k.out_base);
  k.expected = {1.5};
  Fault f;
  f.kind = FaultKind::kFlipFpReg;
  f.cycle = 1000;
  f.reg = 3;
  f.bits = 1ull << 52;
  RunRequest req = RunRequest::for_built(std::move(k), EngineSel::kCycle);
  req.config.faults = plan_of(f);
  const RunReport r = api::run(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, FailureKind::kGoldenMismatch);
  EXPECT_GT(r.mismatches, 0u);
}

TEST(FaultInjection, DropChainEntryCaughtByWatchdog) {
  // Producer pushes into f16's chain FIFO; the fault erases the entry while
  // the int core burns the delay loop; the consumer then pops forever.
  ProgramBuilder b;
  const Addr cst = b.data_f64({2.0});
  b.la(isa::kT0, cst);
  b.fld(3, isa::kT0, 0);
  b.li(isa::kT1, 1u << 16);
  b.csrw(isa::csr::kChainMask, isa::kT1);
  b.fadd_d(16, 3, 3);           // push
  emit_delay(b, 700, "wait");   // fault fires here
  b.fadd_d(24, 16, 3);          // pop: waits forever once the entry is gone
  b.csrwi(isa::csr::kChainMask, 0);
  b.ecall();
  Fault f;
  f.kind = FaultKind::kDropChainEntry;
  f.cycle = 1000;
  f.hart = 0;
  f.reg = 16;
  RunRequest req = RunRequest::for_program(b.build(), "fault/drop-chain",
                                           EngineSel::kCycle);
  req.config.faults = plan_of(f);
  req.config.deadlock_cycles = 2000;
  const RunReport r = api::run(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, FailureKind::kDeadlock);
  EXPECT_EQ(r.failure.hart, 0);
  EXPECT_GE(r.failure.cycle, 0);
}

TEST(FaultInjection, InfiniteTcdmBankStallCaughtByWatchdog) {
  // Bank 0 held busy forever: the first TCDM access wedges the core.
  ProgramBuilder b;
  b.la(isa::kT0, memmap::kTcdmBase);
  b.lw(isa::kT1, isa::kT0, 0);
  b.ecall();
  Fault f;
  f.kind = FaultKind::kStallTcdmBank;
  f.cycle = 0;
  f.bank = 0;
  f.duration = ~u64{0};
  RunRequest req = RunRequest::for_program(b.build(), "fault/stall-forever",
                                           EngineSel::kCycle);
  req.config.faults = plan_of(f);
  req.config.deadlock_cycles = 2000;
  const RunReport r = api::run(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, FailureKind::kDeadlock);
}

TEST(FaultInjection, FiniteTcdmBankStallIsTimingOnly) {
  // Pinned green: a 64-cycle bank outage delays the access but the run
  // still completes with correct results (no detector may fire).
  Addr out = 0;
  Program p = flip_victim_program(&out);
  Fault f;
  f.kind = FaultKind::kStallTcdmBank;
  f.cycle = 0;
  f.bank = 0;
  f.duration = 64;
  RunRequest req =
      RunRequest::for_program(std::move(p), "fault/stall-finite",
                              EngineSel::kBoth);
  req.lockstep_compare_memory = true;
  req.config.faults = plan_of(f);
  const RunReport r = api::run(req);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.failure.kind, FailureKind::kNone);
}

TEST(FaultInjection, TruncateDmaBeatCaughtByLockstepCompare) {
  // A dropped DMA beat never lands in the destination; dmstat still
  // reports completion, so only the lockstep memory compare can tell.
  ProgramBuilder b;
  const Addr src = b.data_f64({1.0, 2.0, 3.0, 4.0});
  const Addr dst = b.data_zero(32);
  b.la(isa::kT0, src);
  b.dmsrc(isa::kT0);
  b.la(isa::kT1, dst);
  b.dmdst(isa::kT1);
  b.li(isa::kA0, 32);
  b.dmcpy(isa::kA1, isa::kA0);
  b.label("poll");
  b.dmstat(isa::kA1, 1);
  b.bnez(isa::kA1, "poll");
  b.ecall();
  Fault f;
  f.kind = FaultKind::kTruncateDmaBeat;
  f.cycle = 1;
  f.duration = 1;  // drop one beat
  RunRequest req = RunRequest::for_program(b.build(), "fault/dma-truncate",
                                           EngineSel::kBoth);
  req.lockstep_compare_memory = true;
  req.config.faults = plan_of(f);
  const RunReport r = api::run(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, FailureKind::kLockstepMismatch);
  EXPECT_GT(r.lockstep_mismatches, 0u);
}

TEST(FaultInjection, TruncatedBeatToPageOnlyIssWroteIsCaught) {
  // One TCDM->main beat into a main-memory page nothing else touches: the
  // ISS writes that page, the faulted cycle engine never does, so the
  // memory compare must check pages either engine wrote, not just both.
  ProgramBuilder b;
  const Addr src = b.data_f64({1.0});
  const Addr dst = memmap::kMainBase + 0x10000;
  b.la(isa::kT0, src);
  b.dmsrc(isa::kT0);
  b.li(isa::kT1, dst);
  b.dmdst(isa::kT1);
  b.li(isa::kA0, 8);
  b.dmcpy(isa::kA1, isa::kA0);
  b.label("poll");
  b.dmstat(isa::kA1, 1);
  b.bnez(isa::kA1, "poll");
  b.ecall();
  Fault f;
  f.kind = FaultKind::kTruncateDmaBeat;
  f.cycle = 1;
  f.duration = 1;
  RunRequest req = RunRequest::for_program(b.build(), "fault/dma-main-page",
                                           EngineSel::kBoth);
  req.lockstep_compare_memory = true;
  req.config.faults = plan_of(f);
  const RunReport r = api::run(req);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.failure.kind, FailureKind::kLockstepMismatch);
  EXPECT_EQ(r.lockstep_mismatches, 1u);
  EXPECT_NE(r.error.find("first: main[0x20010000]: iss=0x3ff0000000000000 "
                         "cycle=0x0"),
            std::string::npos)
      << r.error;
}

TEST(FaultInjection, FaultKindNamesAreStable) {
  EXPECT_STREQ(sim::fault_kind_name(FaultKind::kFlipFpReg), "flip_fp_reg");
  EXPECT_STREQ(sim::fault_kind_name(FaultKind::kDropChainEntry),
               "drop_chain_entry");
  EXPECT_STREQ(sim::fault_kind_name(FaultKind::kStallTcdmBank),
               "stall_tcdm_bank");
  EXPECT_STREQ(sim::fault_kind_name(FaultKind::kTruncateDmaBeat),
               "truncate_dma_beat");
}

} // namespace
} // namespace sch
