// Indirect SSR streams decode their packed index arrays the same on both
// engines: u8, u16 and u32 indices, dense and sparse index strides, a
// stride that makes an index straddle its 8-byte word, a negative stride,
// and index arrays that leave the address map. Each gather runs under
// `--engine both` with the whole-memory lockstep compare and checks the
// gathered values against the input array; the failing cases pin each
// engine's report text.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "asm/builder.hpp"
#include "isa/csr.hpp"
#include "isa/reg.hpp"
#include "ssr/ssr_config.hpp"

namespace sch::api {
namespace {

using ssr::CfgReg;

constexpr u32 kInputs = 64;
constexpr u8 kTmp = isa::kT0;
constexpr u8 kPtr = isa::kS1;

double input_value(u32 i) { return static_cast<double>(i) * 0.5 - 3.25; }

/// Arm SSR 0 as a 1-D indirect read of `n` f64 elements through the index
/// array at `idx_addr` (byte stride `stride`, 2^size_log2-byte indices)
/// over `data`, then pop every element into ft3 and store it to `out`.
void emit_gather(ProgramBuilder& b, Addr idx_addr, i32 stride, u32 size_log2,
                 u32 n, Addr data, Addr out) {
  b.li(kTmp, static_cast<i64>(n) - 1);
  b.scfgw(kTmp, ssr::cfg_index(0, CfgReg::kBound0));
  b.li(kTmp, stride);
  b.scfgw(kTmp, ssr::cfg_index(0, CfgReg::kStride0));
  b.li(kTmp, static_cast<i64>((1u << 16) | (3u << 4) | size_log2));
  b.scfgw(kTmp, ssr::cfg_index(0, CfgReg::kIdxCfg));
  b.li(kTmp, static_cast<i64>(data));
  b.scfgw(kTmp, ssr::cfg_index(0, CfgReg::kIdxBase));
  b.li(kTmp, static_cast<i64>(idx_addr));
  b.scfgw(kTmp, ssr::cfg_index(0, CfgReg::kRptr0));
  b.csrwi(isa::csr::kSsrEnable, 1);
  b.la(kPtr, out);
  for (u32 e = 0; e < n; ++e) {
    b.fmv_d(isa::kFt3, isa::kFt0); // names ft0 twice: pops it once
    b.fsd(isa::kFt3, kPtr, static_cast<i32>(8 * e));
  }
  b.csrwi(isa::csr::kSsrEnable, 0);
  b.ecall();
}

struct Gather {
  u32 size_log2;
  i32 stride;  // index array byte stride
  u32 skew;    // byte offset of the first index within its 8-byte word
  u32 n;
};

/// The gather as a BuiltKernel whose golden output is the selected inputs.
/// Every multi-byte index has its top byte set (a bias the stream's base
/// subtracts again), so a decode that drops or shifts a byte misses.
kernels::BuiltKernel gather_kernel(const Gather& g) {
  const u32 idx_bytes = 1u << g.size_log2;
  const u32 bias = idx_bytes == 1 ? 0 : 1u << (8 * (idx_bytes - 1));
  const u32 span = static_cast<u32>(std::abs(g.stride)) * (g.n - 1) + idx_bytes;
  std::vector<u8> raw(g.skew + span + 1, 0);
  // A negative stride walks the array down from its last slot.
  const u32 first = g.stride < 0 ? g.skew + span - idx_bytes : g.skew;
  kernels::BuiltKernel k;
  for (u32 e = 0; e < g.n; ++e) {
    const u32 elem = (e * 7 + 3) % kInputs;
    const u32 idx = bias + elem;
    const u32 off = static_cast<u32>(static_cast<i64>(first) +
                                     static_cast<i64>(e) * g.stride);
    for (u32 i = 0; i < idx_bytes; ++i) raw[off + i] = static_cast<u8>(idx >> (8 * i));
    k.expected.push_back(input_value(elem));
  }
  std::vector<u16> packed((raw.size() + 1) / 2, 0);
  for (usize i = 0; i < raw.size(); ++i) {
    packed[i / 2] = static_cast<u16>(packed[i / 2] | (raw[i] << (8 * (i % 2))));
  }

  ProgramBuilder b;
  std::vector<double> in(kInputs);
  for (u32 i = 0; i < kInputs; ++i) in[i] = input_value(i);
  const Addr data = b.data_f64(in);
  k.out_base = b.data_zero(g.n * 8);
  b.data_align(8);
  const Addr idx_array = b.data_u16(packed);
  // Data address = base + (idx << 3), wrapping modulo 2^32 like the streams.
  emit_gather(b, idx_array + first, g.stride, g.size_log2, g.n, data - (bias << 3),
              k.out_base);
  k.program = b.build();
  k.name = "gather/u" + std::to_string(8 * idx_bytes) + "/stride" +
           std::to_string(g.stride) + "/skew" + std::to_string(g.skew);
  return k;
}

void expect_lockstep_ok(const Gather& g) {
  RunRequest r = RunRequest::for_built(gather_kernel(g), EngineSel::kBoth);
  r.lockstep_compare_memory = true;
  const RunReport rep = run(r);
  EXPECT_TRUE(rep.ok) << rep.name << ": " << rep.error;
}

TEST(SsrIndexDecode, U8Indices) {
  expect_lockstep_ok({0, 1, 0, 24});  // eight indices per word
  expect_lockstep_ok({0, 3, 5, 16});
  expect_lockstep_ok({0, -1, 0, 20});
}

TEST(SsrIndexDecode, U16Indices) {
  expect_lockstep_ok({1, 2, 0, 24});  // the stencils' layout
  expect_lockstep_ok({1, 2, 6, 17});
  expect_lockstep_ok({1, -2, 0, 16});
}

TEST(SsrIndexDecode, U32Indices) {
  expect_lockstep_ok({2, 4, 0, 20});
  expect_lockstep_ok({2, 8, 4, 9});
  expect_lockstep_ok({2, -4, 0, 12});
}

TEST(SsrIndexDecode, IndexStraddlingItsWord) {
  // u16 at odd offsets: every fourth index sits in bytes 7..8 of a word.
  expect_lockstep_ok({1, 2, 1, 24});
  // u32 at stride 6: the index at offset 6 spans two words.
  expect_lockstep_ok({2, 6, 0, 16});
  expect_lockstep_ok({1, 3, 0, 20});
}

/// A gather through an index array at `idx_addr` that the address map
/// does not (fully) cover, on `engine`.
RunReport run_unmapped(Addr idx_addr, u32 size_log2, EngineSel engine) {
  ProgramBuilder b;
  const Addr data = b.data_f64(std::vector<double>(8, 1.0));
  const Addr out = b.data_zero(32);
  emit_gather(b, idx_addr, 1 << size_log2, size_log2, 4, data, out);
  return run(RunRequest::for_program(b.build(), "gather_unmapped", engine));
}

TEST(SsrIndexDecode, UnmappedIndexArrayReportsTheIndexAddress) {
  // Not 8-byte aligned, so a word-granular load would name 0x30000000.
  for (const EngineSel e : {EngineSel::kIss, EngineSel::kCycle, EngineSel::kBoth}) {
    const RunReport rep = run_unmapped(0x3000'0003, 1, e);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.failure.kind, FailureKind::kBusError);
    EXPECT_EQ(rep.error, std::string("gather_unmapped: ") +
                             (e == EngineSel::kCycle ? "simulator" : "ISS") +
                             ": bus error: access to unmapped address 0x30000003");
  }
}

TEST(SsrIndexDecode, IndexStraddlingTheEndOfTheTcdm) {
  // The index's word is mapped; its last two bytes are not.
  for (const EngineSel e : {EngineSel::kIss, EngineSel::kCycle, EngineSel::kBoth}) {
    const RunReport rep =
        run_unmapped(memmap::kTcdmBase + memmap::kTcdmSize - 2, 2, e);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.failure.kind, FailureKind::kBusError);
    EXPECT_EQ(rep.error, std::string("gather_unmapped: ") +
                             (e == EngineSel::kCycle ? "simulator" : "ISS") +
                             ": bus error: access to unmapped address 0x1001fffe");
  }
}

} // namespace
} // namespace sch::api
