// Property-based suites: randomized programs executed on both engines with
// architectural-state comparison, randomized chain push/pop schedules checked
// against the deque model, randomized SSR gathers checked against host
// gathers, and assembler/disassembler round-trips over the mnemonic space.
#include <gtest/gtest.h>

#include <deque>
#include <random>
#include <sstream>

#include "asm/assembler.hpp"
#include "asm/builder.hpp"
#include "isa/disasm.hpp"
#include "iss/exec_semantics.hpp"
#include "iss/iss.hpp"
#include "mem/memory.hpp"
#include "sim/simulator.hpp"
#include "ssr/ssr_config.hpp"

namespace sch {
namespace {

constexpr Addr kBuf = memmap::kTcdmBase;

/// Run `program` on both engines; expect clean halts and identical
/// architectural state + memory window.
void run_both_and_compare(const Program& program, u32 mem_window = 512) {
  Memory mem_iss;
  Iss iss(program, mem_iss);
  const HaltReason hi = iss.run();
  ASSERT_EQ(hi, HaltReason::kEcall) << "ISS: " << iss.error();

  Memory mem_sim;
  sim::Simulator simulator(program, mem_sim);
  const HaltReason hs = simulator.run();
  ASSERT_EQ(hs, HaltReason::kEcall) << "sim: " << simulator.error();

  const ArchState& a = iss.state();
  const ArchState b = simulator.arch_state();
  for (u8 r = 0; r < isa::kNumIntRegs; ++r) {
    ASSERT_EQ(a.x[r], b.x[r]) << "x" << static_cast<int>(r);
  }
  for (u8 r = 0; r < isa::kNumFpRegs; ++r) {
    ASSERT_EQ(a.f[r], b.f[r]) << "f" << static_cast<int>(r);
  }
  ASSERT_EQ(mem_iss.read_block(kBuf, mem_window), mem_sim.read_block(kBuf, mem_window));
}

// --- random integer programs -------------------------------------------------

class RandomIntPrograms : public ::testing::TestWithParam<u32> {};

TEST_P(RandomIntPrograms, EnginesAgree) {
  std::mt19937 rng(GetParam() * 7919 + 13);
  for (int trial = 0; trial < 8; ++trial) {
    ProgramBuilder b;
    b.data_zero(512);
    // Seed registers x5..x15 with random values.
    for (u8 r = 5; r <= 15; ++r) {
      b.li(r, static_cast<i64>(static_cast<i32>(rng())));
    }
    const isa::Mnemonic ops[] = {
        isa::Mnemonic::kAdd,  isa::Mnemonic::kSub,   isa::Mnemonic::kSll,
        isa::Mnemonic::kSlt,  isa::Mnemonic::kSltu,  isa::Mnemonic::kXor,
        isa::Mnemonic::kSrl,  isa::Mnemonic::kSra,   isa::Mnemonic::kOr,
        isa::Mnemonic::kAnd,  isa::Mnemonic::kMul,   isa::Mnemonic::kMulh,
        isa::Mnemonic::kMulhu, isa::Mnemonic::kDiv,  isa::Mnemonic::kDivu,
        isa::Mnemonic::kRem,  isa::Mnemonic::kRemu,  isa::Mnemonic::kMulhsu,
    };
    for (int i = 0; i < 60; ++i) {
      const auto mn = ops[rng() % std::size(ops)];
      const u8 rd = 5 + rng() % 11;
      const u8 rs1 = 5 + rng() % 11;
      const u8 rs2 = 5 + rng() % 11;
      b.emit(isa::make_r(mn, rd, rs1, rs2));
      if (rng() % 4 == 0) {
        b.addi(5 + rng() % 11, 5 + rng() % 11,
               static_cast<i32>(rng() % 4096) - 2048);
      }
    }
    // Dump every register to memory so the comparison covers all of them.
    b.la(isa::kA0, kBuf);
    for (u8 r = 5; r <= 15; ++r) b.sw(r, isa::kA0, 4 * (r - 5));
    b.ecall();
    run_both_and_compare(b.build());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomIntPrograms, ::testing::Range(1u, 6u));

// --- random memory programs ---------------------------------------------------

class RandomMemPrograms : public ::testing::TestWithParam<u32> {};

TEST_P(RandomMemPrograms, EnginesAgree) {
  std::mt19937 rng(GetParam() * 104729 + 7);
  for (int trial = 0; trial < 6; ++trial) {
    ProgramBuilder b;
    b.data_zero(512);
    // Base/dump pointers live outside the randomized value-register range.
    b.la(isa::kS2, kBuf);
    for (u8 r = 5; r <= 12; ++r) {
      b.li(r, static_cast<i64>(static_cast<i32>(rng())));
    }
    for (int i = 0; i < 50; ++i) {
      const u8 reg = 5 + rng() % 8;
      const u32 kind = rng() % 6;
      const i32 off = static_cast<i32>((rng() % 110) * 4);
      switch (kind) {
        case 0: b.sw(reg, isa::kS2, off); break;
        case 1: b.emit(isa::make_s(isa::Mnemonic::kSh, isa::kS2, reg, off)); break;
        case 2: b.emit(isa::make_s(isa::Mnemonic::kSb, isa::kS2, reg, off)); break;
        case 3: b.lw(reg, isa::kS2, off); break;
        case 4: b.emit(isa::make_i(isa::Mnemonic::kLh, reg, isa::kS2, off)); break;
        default: b.emit(isa::make_i(isa::Mnemonic::kLbu, reg, isa::kS2, off)); break;
      }
    }
    b.la(isa::kS3, kBuf + 480);
    for (u8 r = 5; r <= 12; ++r) b.sw(r, isa::kS3, 4 * (r - 5));
    b.ecall();
    run_both_and_compare(b.build());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMemPrograms, ::testing::Range(1u, 5u));

// --- random FP programs --------------------------------------------------------

class RandomFpPrograms : public ::testing::TestWithParam<u32> {};

TEST_P(RandomFpPrograms, EnginesAgreeBitExact) {
  std::mt19937 rng(GetParam() * 31337 + 99);
  for (int trial = 0; trial < 6; ++trial) {
    ProgramBuilder b;
    // Seed FP registers f8..f19 with assorted values (incl. specials).
    std::vector<double> seeds;
    for (int i = 0; i < 12; ++i) {
      switch (rng() % 8) {
        case 0: seeds.push_back(0.0); break;
        case 1: seeds.push_back(-0.0); break;
        case 2: seeds.push_back(1e300); break;
        case 3: seeds.push_back(-3.5e-2); break;
        default:
          seeds.push_back(static_cast<double>(static_cast<i32>(rng())) / 64.0);
      }
    }
    const Addr seed_base = b.data_f64(seeds);
    b.data_zero(256);
    b.la(isa::kA0, seed_base);
    for (int i = 0; i < 12; ++i) b.fld(static_cast<u8>(8 + i), isa::kA0, 8 * i);

    const isa::Mnemonic ops[] = {
        isa::Mnemonic::kFaddD,  isa::Mnemonic::kFsubD,  isa::Mnemonic::kFmulD,
        isa::Mnemonic::kFminD,  isa::Mnemonic::kFmaxD,  isa::Mnemonic::kFsgnjD,
        isa::Mnemonic::kFsgnjnD, isa::Mnemonic::kFsgnjxD, isa::Mnemonic::kFmaddD,
        isa::Mnemonic::kFmsubD, isa::Mnemonic::kFnmaddD, isa::Mnemonic::kFnmsubD,
        isa::Mnemonic::kFdivD,
    };
    for (int i = 0; i < 40; ++i) {
      const auto mn = ops[rng() % std::size(ops)];
      const u8 rd = 8 + rng() % 12;
      const u8 rs1 = 8 + rng() % 12;
      const u8 rs2 = 8 + rng() % 12;
      const u8 rs3 = 8 + rng() % 12;
      if (isa::info(mn).rs3 != isa::RegClass::kNone) {
        b.emit(isa::make_r4(mn, rd, rs1, rs2, rs3));
      } else {
        b.emit(isa::make_r(mn, rd, rs1, rs2));
      }
      if (rng() % 5 == 0) {
        // Sprinkle compares/classifies into the integer domain.
        const auto cmp = rng() % 2 == 0 ? isa::Mnemonic::kFltD : isa::Mnemonic::kFeqD;
        b.emit(isa::make_r(cmp, 5 + rng() % 8, rs1, rs2));
      }
    }
    b.la(isa::kA1, seed_base + 12 * 8);
    for (int i = 0; i < 12; ++i) b.fsd(static_cast<u8>(8 + i), isa::kA1, 8 * i);
    b.ecall();
    run_both_and_compare(b.build());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFpPrograms, ::testing::Range(1u, 5u));

// --- random chain schedules -----------------------------------------------------

class RandomChainSchedules : public ::testing::TestWithParam<u32> {};

TEST_P(RandomChainSchedules, FifoOrderPreservedAcrossEngines) {
  std::mt19937 rng(GetParam() * 263 + 5);
  for (int trial = 0; trial < 8; ++trial) {
    ProgramBuilder b;
    // Pool of push values, preloaded into f20..f27 so pushes issue
    // back-to-back (1/cycle) like the paper's kernels.
    std::vector<double> pool(8);
    for (auto& v : pool) v = static_cast<double>(1 + rng() % 4096) * 0.125;
    const Addr pool_base = b.data_f64(pool);
    const Addr out_base = b.data_zero(1024);
    b.la(isa::kA0, pool_base);
    for (u8 i = 0; i < 8; ++i) b.fld(static_cast<u8>(20 + i), isa::kA0, 8 * i);
    b.la(isa::kS0, out_base);
    b.li(isa::kT0, 8); // chain ft3
    b.csrs(isa::csr::kChainMask, isa::kT0);

    // A sustainable schedule respects the paper's production/consumption
    // balance: runs of r back-to-back pushes (r <= FIFO capacity 4), each
    // drained by r pops before the next run -- the Fig. 1c block structure.
    // (Pushing again after a partial drain, or spacing pushes apart with
    // integer work, strands a producer writeback behind a consumer that
    // cannot issue past it; see SimChain.OverflowBeyondCapacityDeadlocks.)
    u32 pushed = 0, popped = 0;
    i32 store_off = 0;
    std::deque<double> model;
    for (int block = 0; block < 20; ++block) {
      const u32 r = 1 + rng() % 4;
      for (u32 i = 0; i < r; ++i) {
        const u8 src = static_cast<u8>(20 + rng() % 8);
        b.fmv_d(isa::kFt3, src); // push
        model.push_back(pool[src - 20]);
        ++pushed;
      }
      for (u32 i = 0; i < r; ++i) {
        b.fsd(isa::kFt3, isa::kS0, store_off); // pop
        store_off += 8;
        ++popped;
      }
    }
    b.csrw(isa::csr::kChainMask, 0);
    b.ecall();
    ASSERT_EQ(pushed, popped);

    const Program p = b.build();
    Memory mem_iss, mem_sim;
    Iss iss(p, mem_iss);
    ASSERT_EQ(iss.run(), HaltReason::kEcall) << iss.error();
    sim::Simulator simulator(p, mem_sim);
    ASSERT_EQ(simulator.run(), HaltReason::kEcall) << simulator.error();

    // Both engines must emit the pushes in exact FIFO order.
    for (u32 i = 0; i < pushed; ++i) {
      ASSERT_EQ(mem_iss.load_f64(out_base + 8 * i), model[i]) << "iss elem " << i;
      ASSERT_EQ(mem_sim.load_f64(out_base + 8 * i), model[i]) << "sim elem " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomChainSchedules, ::testing::Range(1u, 6u));

// --- random SSR gathers -----------------------------------------------------------

class RandomSsrGathers : public ::testing::TestWithParam<u32> {};

TEST_P(RandomSsrGathers, IndirectStreamMatchesHostGather) {
  std::mt19937 rng(GetParam() * 1699 + 3);
  for (int trial = 0; trial < 5; ++trial) {
    const u32 n_data = 64;
    const u32 n_idx = 16 + rng() % 17; // 16..32 gathers
    ProgramBuilder b;
    std::vector<double> data(n_data);
    for (auto& v : data) v = static_cast<double>(static_cast<i32>(rng())) / 16.0;
    std::vector<u16> idx(n_idx);
    for (auto& v : idx) v = static_cast<u16>(rng() % n_data);

    const Addr data_base = b.data_f64(data);
    const Addr idx_base = b.data_u16(idx);
    b.data_align(8);
    const Addr out_base = b.data_zero(n_idx * 8);

    // SSR0: indirect gather over the index array; SSR2: compacted writeback.
    b.li(isa::kT0, static_cast<i64>(n_idx - 1));
    b.scfgw(isa::kT0, ssr::cfg_index(0, ssr::CfgReg::kBound0));
    b.li(isa::kT0, 2);
    b.scfgw(isa::kT0, ssr::cfg_index(0, ssr::CfgReg::kStride0));
    b.li(isa::kT0, (1 << 16) | (3 << 4) | 1);
    b.scfgw(isa::kT0, ssr::cfg_index(0, ssr::CfgReg::kIdxCfg));
    b.li(isa::kT1, static_cast<i64>(data_base));
    b.scfgw(isa::kT1, ssr::cfg_index(0, ssr::CfgReg::kIdxBase));
    b.li(isa::kT1, static_cast<i64>(idx_base));
    b.scfgw(isa::kT1, ssr::cfg_index(0, ssr::CfgReg::kRptr0));

    b.li(isa::kT0, static_cast<i64>(n_idx - 1));
    b.scfgw(isa::kT0, ssr::cfg_index(2, ssr::CfgReg::kBound0));
    b.li(isa::kT0, 8);
    b.scfgw(isa::kT0, ssr::cfg_index(2, ssr::CfgReg::kStride0));
    b.li(isa::kT1, static_cast<i64>(out_base));
    b.scfgw(isa::kT1, ssr::cfg_index(2, ssr::CfgReg::kWptr0));

    b.csrwi(isa::csr::kSsrEnable, 1);
    b.li(isa::kT2, static_cast<i64>(n_idx - 1));
    b.frep_o(isa::kT2, 1);
    b.fmv_d(isa::kFt2, isa::kFt0);
    b.csrwi(isa::csr::kSsrEnable, 0);
    b.ecall();

    const Program p = b.build();
    Memory mem_iss, mem_sim;
    Iss iss(p, mem_iss);
    ASSERT_EQ(iss.run(), HaltReason::kEcall) << iss.error();
    sim::Simulator simulator(p, mem_sim);
    ASSERT_EQ(simulator.run(), HaltReason::kEcall) << simulator.error();
    for (u32 i = 0; i < n_idx; ++i) {
      ASSERT_EQ(mem_iss.load_f64(out_base + 8 * i), data[idx[i]]) << i;
      ASSERT_EQ(mem_sim.load_f64(out_base + 8 * i), data[idx[i]]) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSsrGathers, ::testing::Range(1u, 5u));

// --- disassemble -> assemble round trip ----------------------------------------------

class DisasmRoundTrip : public ::testing::TestWithParam<u32> {};

/// A random in-range immediate of `kind`.
i32 random_imm(isa::ImmKind kind, std::mt19937& rng) {
  const auto pick = [&rng](u32 n) { return static_cast<i32>(rng() % n); };
  switch (kind) {
    case isa::ImmKind::kI:
    case isa::ImmKind::kS: return pick(4096) - 2048;
    case isa::ImmKind::kB: return (pick(4096) - 2048) * 2;
    case isa::ImmKind::kU: return pick(0x100000);
    case isa::ImmKind::kJ: return (pick(0x100000) - 0x80000) * 2;
    case isa::ImmKind::kShamt: return pick(32);
    case isa::ImmKind::kCsr: return pick(4096);
    case isa::ImmKind::kNone: break;
  }
  return 0;
}

TEST_P(DisasmRoundTrip, TextRoundTripPreservesEncoding) {
  std::mt19937 rng(GetParam() * 53 + 1);
  for (u16 m = 1; m < static_cast<u16>(isa::Mnemonic::kCount); ++m) {
    const auto mn = static_cast<isa::Mnemonic>(m);
    const isa::MnemonicInfo& mi = isa::info(mn);
    // Random values in every field the layout carries; rm stays zero, the
    // text does not spell it.
    isa::Instr in;
    in.mn = mn;
    if (mi.rd != isa::RegClass::kNone) in.rd = rng() % 32;
    if (mi.rs1 != isa::RegClass::kNone) in.rs1 = rng() % 32;
    if (mi.rs2 != isa::RegClass::kNone) in.rs2 = rng() % 32;
    if (mi.rs3 != isa::RegClass::kNone) in.rs3 = rng() % 32;
    in.imm = random_imm(mi.imm, rng);
    in.raw = isa::encode(in);
    const std::string text = isa::disassemble(in);
    auto res = assembler::assemble(text + "\n");
    ASSERT_TRUE(res.ok()) << text << ": " << res.status().message();
    ASSERT_EQ(res.value().words.size(), 1u) << text;
    EXPECT_EQ(res.value().words[0], in.raw) << text;
    EXPECT_EQ(res.value().instrs[0], in) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisasmRoundTrip, ::testing::Range(1u, 4u));

} // namespace
} // namespace sch
