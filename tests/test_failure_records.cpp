// Failure records: everything a failed report says about its failure, for
// one program per failure site a program can reach (run on every engine
// that applies) plus the request-level failures. Each run is one line of
// tests/golden/failure_records.txt:
//
//   name|engine|kind|hart|pc|cycle|cycles|error
//
// kind/hart/pc/cycle are the report's `failure` section, cycles its cycle
// count and error its `error` text (newlines written as "\n"). Wall-clock
// budgets are left out: where they fire is not deterministic. There is no
// regeneration switch; the golden changes only by a reviewed hand edit, and
// a mismatch prints the full set of actual records.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "asm/assembler.hpp"
#include "asm/builder.hpp"
#include "isa/decode.hpp"
#include "sim/fault_plan.hpp"
#include "ssr/ssr_config.hpp"

namespace sch::api {
namespace {

#ifdef SCH_GOLDEN_DIR

constexpr const char* kGoldenPath = SCH_GOLDEN_DIR "/failure_records.txt";

constexpr EngineSel kIss = EngineSel::kIss;
constexpr EngineSel kCycle = EngineSel::kCycle;
constexpr EngineSel kBoth = EngineSel::kBoth;

Program assemble(const std::string& source) {
  Result<Program> r = assembler::assemble(source);
  if (!r.ok()) {
    ADD_FAILURE() << r.status().message() << "\n" << source;
    return {};
  }
  return std::move(r).value();
}

/// `scfgw` immediate of SSR 0's config register `reg`.
std::string ssr0(ssr::CfgReg reg) {
  return std::to_string(ssr::cfg_index(0, reg));
}

std::string record(const std::string& name, const RunReport& r) {
  std::string error;
  for (const char c : r.error) {
    if (c == '\n') {
      error += "\\n";
    } else {
      error += c;
    }
  }
  std::ostringstream os;
  os << name << '|' << engine_name(r.engine) << '|'
     << failure_kind_name(r.failure.kind) << '|' << r.failure.hart << '|'
     << r.failure.pc << '|' << r.failure.cycle << '|' << r.cycles << '|'
     << error;
  return os.str();
}

struct Recorder {
  std::vector<std::string> lines;

  void run(const std::string& name, const RunRequest& request,
           std::initializer_list<EngineSel> engines) {
    for (const EngineSel engine : engines) {
      RunRequest r = request;
      r.engine = engine;
      lines.push_back(record(name, api::run(r)));
    }
  }

  /// A raw program on `cores` cores (the program is replicated).
  void program(const std::string& name, const std::string& source,
               std::initializer_list<EngineSel> engines, u32 cores = 1) {
    RunRequest r = RunRequest::for_program(assemble(source), name);
    r.config.num_cores = cores;
    run(name, r, engines);
  }
};

/// Only hart 1 executes `body`; hart 0 exits at once.
std::string on_hart1(const std::string& body) {
  return "csrr t0, mhartid\nbeqz t0, done\n" + body + "done:\necall\n";
}

/// Stores 1.5 to the output slot after a ~2000-cycle delay loop (the window
/// the fault-plan cases below strike in); `out` receives the slot address.
Program delayed_store(Addr* out) {
  ProgramBuilder b;
  const Addr cst = b.data_f64({1.5});
  const Addr slot = b.data_zero(8);
  b.la(isa::kT0, cst);
  b.fld(3, isa::kT0, 0);
  b.li(isa::kT2, 700);
  b.label("wait");
  b.addi(isa::kT2, isa::kT2, -1);
  b.bnez(isa::kT2, "wait");
  b.la(isa::kT1, slot);
  b.fsd(3, isa::kT1, 0);
  b.ecall();
  if (out != nullptr) *out = slot;
  return b.build();
}

std::shared_ptr<const sim::FaultPlan> flip_f3_at_1000() {
  sim::Fault f;
  f.kind = sim::FaultKind::kFlipFpReg;
  f.cycle = 1000;
  f.reg = 3;
  f.bits = 1ull << 52;
  auto plan = std::make_shared<sim::FaultPlan>();
  plan->faults.push_back(f);
  return plan;
}

std::vector<std::string> actual_records() {
  Recorder rec;

  // --- program-level faults, per detecting site -----------------------------
  // Loads and stores to an unmapped address, on one core and on hart 1 of
  // two (the "hart 1" prefix).
  const auto unmapped = [](const std::string& op) {
    return "li a0, 0x100\n" + op + ", 0(a0)\n";
  };
  const auto name = [](const std::string& op) {
    return op.substr(0, op.find(' ')) + "_unmapped";
  };
  for (const std::string op :
       {"lw a1", "lh a1", "lb a1", "sw a1", "fld ft0", "fsd ft0"}) {
    rec.program(name(op), unmapped(op) + "ecall\n", {kIss, kCycle, kBoth});
  }
  for (const std::string op : {"lw a1", "sw a1", "fld ft0", "fsd ft0"}) {
    rec.program(name(op) + "_hart1", on_hart1(unmapped(op)),
                {kIss, kCycle, kBoth}, 2);
  }

  // Chain FIFO: a pop with no producer, and more pushes than the FIFO holds.
  const std::string pop_without_producer =
      "li t0, 0x10000\ncsrw chain_mask, t0\nfadd.d ft3, fa6, fa6\necall\n";
  rec.program("chain_underflow", pop_without_producer, {kIss, kCycle, kBoth});
  rec.program("chain_overflow",
              "li t0, 8\ncsrw chain_mask, t0\nli t1, 15\nfrep.o t1, 1\n"
              "fadd.d ft3, ft0, ft0\ncsrw chain_mask, zero\necall\n",
              {kCycle, kBoth});

  {
    RunRequest r = RunRequest::for_program(assemble("spin:\nj spin\n"),
                                           "spin_budget");
    r.config.max_cycles = 1000;
    rec.run("spin_budget", r, {kIss, kCycle, kBoth});
  }
  rec.program("off_text", "li a0, 1\n", {kIss, kCycle, kBoth});
  rec.program("off_text_hart1",
              "csrr t0, mhartid\nbnez t0, skip\necall\nskip:\n"
              "addi t1, t1, 1\n",
              {kIss, kCycle, kBoth}, 2);
  {
    ProgramBuilder b;
    b.nop();
    b.emit(isa::decode(0xFFFFFFFF));  // opcode 0x7f: no instruction
    b.ecall();
    rec.run("illegal_encoding",
            RunRequest::for_program(b.build(), "illegal_encoding"),
            {kIss, kCycle, kBoth});
  }
  rec.program("scfgw_out_of_range", "li t0, 1\nscfgw t0, 2047\necall\n",
              {kIss, kCycle, kBoth});

  // frep bodies the sequencer rejects.
  rec.program("frep_non_fp_body",
              "li t0, 1\nfrep.o t0, 1\naddi a0, a0, 1\necall\n",
              {kIss, kCycle, kBoth});
  rec.program("frep_empty_body", "li t0, 1\nfrep.o t0, 0\necall\n",
              {kIss, kCycle, kBoth});
  rec.program("frep_past_text_end",
              "li t0, 1\nfrep.o t0, 4\nfadd.d ft0, ft1, ft1\n",
              {kIss, kCycle, kBoth});
  rec.program("frep_nested",
              "li t0, 1\nfrep.o t0, 2\nfrep.o t0, 1\nfadd.d ft0, ft1, ft1\n"
              "ecall\n",
              {kIss, kCycle, kBoth});

  // DMA copies validate_copy rejects.
  const std::string tcdm = "li t0, 0x10000000\n";
  rec.program("dma_zero_size",
              tcdm + "dmsrc t0\ndmdst t0\ndmcpy a1, zero\necall\n",
              {kIss, kCycle, kBoth});
  rec.program("dma_zero_rows",
              tcdm + "dmsrc t0\ndmdst t0\nli t1, 8\ndmcpy2d a1, t1, zero\n"
                     "ecall\n",
              {kIss, kCycle, kBoth});
  rec.program("dma_unmapped_src",
              tcdm + "dmdst t0\nli t1, 0x100\ndmsrc t1\nli t2, 64\n"
                     "dmcpy a1, t2\necall\n",
              {kIss, kCycle, kBoth});
  rec.program("dma_unmapped_dst",
              tcdm + "dmsrc t0\nli t1, 0x100\ndmdst t1\nli t2, 64\n"
                     "dmcpy a1, t2\necall\n",
              {kIss, kCycle, kBoth});

  // SSR streams: an unmapped base, an exhausted read stream, and a stream
  // register used against its direction.
  const std::string one_element =
      "li t0, 0\nscfgw t0, " + ssr0(ssr::CfgReg::kBound0) + "\nli t0, 8\n" +
      "scfgw t0, " + ssr0(ssr::CfgReg::kStride0) + "\n";
  const std::string arm_read = "scfgw t0, " + ssr0(ssr::CfgReg::kRptr0) +
                               "\ncsrwi ssr_enable, 1\n";
  const std::string arm_write = "scfgw t0, " + ssr0(ssr::CfgReg::kWptr0) +
                                "\ncsrwi ssr_enable, 1\n";
  rec.program("ssr_unmapped_base",
              one_element + "li t0, 0x100\n" + arm_read +
                  "fadd.d ft3, ft0, ft0\necall\n",
              {kIss, kCycle, kBoth});
  rec.program("ssr_exhausted_read",
              one_element + tcdm + arm_read +
                  "fadd.d ft3, ft0, ft1\nfadd.d ft4, ft0, ft1\necall\n",
              {kIss, kCycle, kBoth});
  rec.program("ssr_read_of_write_stream",
              one_element + tcdm + arm_write + "fadd.d ft3, ft0, ft1\necall\n",
              {kIss, kCycle, kBoth});
  rec.program("ssr_write_to_read_stream",
              one_element + tcdm + arm_read + "fadd.d ft0, ft1, ft1\necall\n",
              {kIss, kCycle, kBoth});

  // --- request-level failures ------------------------------------------------
  rec.run("unknown_kernel", RunRequest::for_kernel("no_such_kernel", "baseline"),
          {kCycle});
  rec.run("unknown_variant", RunRequest::for_kernel("axpy", "no_such_variant"),
          {kCycle});
  rec.run("unknown_size",
          RunRequest::for_kernel("axpy", "baseline", {{"no_such_size", 1}}),
          {kCycle});
  rec.run("no_workload", RunRequest{}, {kCycle});
  {
    RunRequest r = RunRequest::for_kernel("axpy", "baseline");
    r.config.fpu_depth = 0;
    rec.run("invalid_config", r, {kCycle});
  }
  {
    RunRequest r = RunRequest::for_kernel("axpy", "baseline");
    r.config.max_cycles = 100;
    rec.run("kernel_over_budget", r, {kIss, kCycle, kBoth});
  }
  {
    RunRequest r =
        RunRequest::for_program(assemble(pop_without_producer), "strict_verify");
    r.verify = VerifyPolicy::kStrict;
    rec.run("strict_verify", r, {kIss, kCycle, kBoth});
  }
  {
    std::vector<Program> programs(2, assemble("ecall\n"));
    RunRequest r = RunRequest::for_programs(std::move(programs), "core_count");
    r.config.num_cores = 1;
    rec.run("program_core_count_mismatch", r, {kCycle});
  }
  {
    kernels::BuiltKernel k;
    k.name = "fault/flip-golden";
    k.program = delayed_store(&k.out_base);
    k.expected = {1.5};
    RunRequest r = RunRequest::for_built(std::move(k));
    r.config.faults = flip_f3_at_1000();
    rec.run("fault_golden_mismatch", r, {kCycle});
  }
  {
    RunRequest r =
        RunRequest::for_program(delayed_store(nullptr), "fault/flip-lockstep");
    r.lockstep_compare_memory = true;
    r.config.faults = flip_f3_at_1000();
    rec.run("fault_lockstep_mismatch", r, {kBoth});
  }
  return rec.lines;
}

std::vector<std::string> golden_records() {
  std::ifstream in(kGoldenPath);
  EXPECT_TRUE(in.good()) << "cannot read " << kGoldenPath;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(FailureRecords, EveryFailureSiteMatchesGolden) {
  const std::vector<std::string> got = actual_records();
  const std::vector<std::string> want = golden_records();
  EXPECT_EQ(got.size(), want.size());
  for (usize i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i], want[i]) << "record " << i;
  }
  if (HasFailure()) {
    std::cout << "actual records:\n";
    for (const std::string& line : got) std::cout << line << "\n";
  }
}

TEST(FailureRecords, EveryRecordIsAFailure) {
  // A record whose run passed pins nothing about failure reporting.
  for (const std::string& line : golden_records()) {
    EXPECT_EQ(line.find("|none|"), std::string::npos) << line;
  }
}

#endif // SCH_GOLDEN_DIR

} // namespace
} // namespace sch::api
