// Memory storage and TCDM bank-arbitration tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/memory.hpp"
#include "mem/tcdm.hpp"

namespace sch {
namespace {

TEST(Memory, TypedRoundTrip) {
  Memory m;
  m.store(memmap::kTcdmBase, 0xDEADBEEF, 4);
  EXPECT_EQ(m.load(memmap::kTcdmBase, 4), 0xDEADBEEFu);
  m.store_f64(memmap::kTcdmBase + 8, 3.25);
  EXPECT_EQ(m.load_f64(memmap::kTcdmBase + 8), 3.25);
  m.store_f32(memmap::kTcdmBase + 16, -1.5f);
  EXPECT_EQ(m.load_f32(memmap::kTcdmBase + 16), -1.5f);
}

TEST(Memory, LittleEndianBytes) {
  Memory m;
  m.store(memmap::kTcdmBase, 0x0102030405060708ull, 8);
  EXPECT_EQ(m.load(memmap::kTcdmBase, 1), 0x08u);
  EXPECT_EQ(m.load(memmap::kTcdmBase + 7, 1), 0x01u);
  EXPECT_EQ(m.load(memmap::kTcdmBase + 2, 2), 0x0506u);
}

TEST(Memory, RegionValidity) {
  Memory m;
  EXPECT_TRUE(m.valid(memmap::kTcdmBase, 8));
  EXPECT_TRUE(m.valid(memmap::kTcdmBase + memmap::kTcdmSize - 8, 8));
  EXPECT_FALSE(m.valid(memmap::kTcdmBase + memmap::kTcdmSize - 4, 8));
  EXPECT_TRUE(m.valid(memmap::kMainBase, 8));
  EXPECT_FALSE(m.valid(0x0, 4));
  EXPECT_THROW((void)m.load(0x1000, 4), std::out_of_range);
}

TEST(Memory, ImageAndBlockReadback) {
  Memory m;
  const std::vector<u8> img = {1, 2, 3, 4, 5};
  m.load_image(memmap::kTcdmBase + 100, img);
  EXPECT_EQ(m.read_block(memmap::kTcdmBase + 100, 5), img);
}

TEST(Memory, AccessAcrossPageBoundary) {
  // Nothing checks alignment, so an access may straddle two 4 KiB pages;
  // each side of the boundary must land in (and read back from) its page.
  Memory m;
  for (const Addr region : {memmap::kTcdmBase, memmap::kMainBase}) {
    for (const u32 bytes : {2u, 4u, 8u}) {
      const Addr addr = region + Memory::kPageSize * bytes - 1;
      const u64 value = 0x8877665544332211ull >> (64 - 8 * bytes);
      m.store(addr, value, bytes);
      EXPECT_EQ(m.load(addr, bytes), value) << std::hex << addr;
      EXPECT_EQ(m.load(addr, 1), value & 0xFF);
      EXPECT_EQ(m.load(addr + bytes - 1, 1), value >> (8 * (bytes - 1)));
      EXPECT_EQ(m.load(addr - 1, 1), 0u);
      EXPECT_EQ(m.load(addr + bytes, 1), 0u);
    }
  }
}

TEST(Memory, MultiPageImageReadsUnwrittenPagesAsZero) {
  Memory m;
  const Addr base = memmap::kMainBase + 0x100;
  std::vector<u8> img(2 * Memory::kPageSize + 300);
  for (usize i = 0; i < img.size(); ++i) img[i] = static_cast<u8>(i * 7 + 1);
  m.load_image(base, img);
  EXPECT_EQ(m.read_block(base, static_cast<u32>(img.size())), img);

  // Four pages: three the image reached, then one nothing ever wrote.
  const std::vector<u8> all =
      m.read_block(memmap::kMainBase, 4 * Memory::kPageSize);
  for (usize i = 0; i < all.size(); ++i) {
    const bool in_image = i >= 0x100 && i < 0x100 + img.size();
    EXPECT_EQ(all[i], in_image ? img[i - 0x100] : 0) << i;
  }
  EXPECT_EQ(m.load(memmap::kMainBase + memmap::kMainSize - 8, 8), 0u);
}

TEST(Memory, AccessStraddlingRegionEndIsBusError) {
  Memory m;
  const Addr last = memmap::kTcdmBase + memmap::kTcdmSize - 4;
  EXPECT_NO_THROW(m.store(last, 1, 4));
  try {
    m.store(last, 1, 8);
    FAIL() << "store past the TCDM end did not throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("bus error"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)m.load(last, 8), std::out_of_range);
  EXPECT_THROW((void)m.read_block(last, 8), std::out_of_range);
  EXPECT_THROW(m.load_image(last, std::vector<u8>(8, 1)), std::out_of_range);
}

TEST(Memory, DiffWordsComparesPagesEitherSideWrote) {
  Memory a;
  Memory b;
  EXPECT_EQ(a.diff_words(b, memmap::kMainBase, memmap::kMainSize).words, 0u);

  // A page only `a` wrote, and a later page only `b` wrote: both count.
  a.store(memmap::kMainBase + 0x10008, 0xABull, 8);
  b.store(memmap::kMainBase + 0x20000, 1, 1);
  b.store(memmap::kMainBase + 0x20010, 2, 4);
  for (const bool swap : {false, true}) {
    const Memory::WordDiff d = (swap ? b : a).diff_words(
        swap ? a : b, memmap::kMainBase, memmap::kMainSize);
    EXPECT_EQ(d.words, 3u);
    EXPECT_EQ(d.first, memmap::kMainBase + 0x10008);
  }
  EXPECT_EQ(a.diff_words(b, memmap::kTcdmBase, memmap::kTcdmSize).words, 0u);

  // Only the requested range is compared.
  const Memory::WordDiff tail =
      a.diff_words(b, memmap::kMainBase + 0x20008, 0x100);
  EXPECT_EQ(tail.words, 1u);
  EXPECT_EQ(tail.first, memmap::kMainBase + 0x20010);
}

TEST(Memory, DiffWordsZeroWrittenPageMatchesUnwritten) {
  Memory a;
  Memory b;
  a.store(memmap::kTcdmBase + 0x2000, 0, 8);
  a.load_image(memmap::kMainBase, std::vector<u8>(3 * Memory::kPageSize, 0));
  EXPECT_EQ(a.diff_words(b, memmap::kTcdmBase, memmap::kTcdmSize).words, 0u);
  EXPECT_EQ(b.diff_words(a, memmap::kMainBase, memmap::kMainSize).words, 0u);
}

TEST(Tcdm, BankMapping) {
  Tcdm t;
  EXPECT_EQ(t.bank_of(memmap::kTcdmBase), 0u);
  EXPECT_EQ(t.bank_of(memmap::kTcdmBase + 8), 1u);
  EXPECT_EQ(t.bank_of(memmap::kTcdmBase + 8 * 31), 31u);
  EXPECT_EQ(t.bank_of(memmap::kTcdmBase + 8 * 32), 0u); // wraps
  EXPECT_EQ(t.bank_of(memmap::kTcdmBase + 4), 0u);      // same 8B word
}

TEST(Tcdm, SameBankConflictSameCycle) {
  Tcdm t;
  t.begin_cycle();
  EXPECT_TRUE(t.request(TcdmPortId::kCoreLsu, memmap::kTcdmBase, false));
  EXPECT_FALSE(t.request(TcdmPortId::kSsr0, memmap::kTcdmBase, false));
  EXPECT_FALSE(t.request(TcdmPortId::kSsr1, memmap::kTcdmBase + 8 * 32, true));
  EXPECT_EQ(t.stats().conflicts, 2u);
  t.begin_cycle();
  EXPECT_TRUE(t.request(TcdmPortId::kSsr0, memmap::kTcdmBase, false));
}

TEST(Tcdm, DistinctBanksNoConflict) {
  Tcdm t;
  t.begin_cycle();
  EXPECT_TRUE(t.request(TcdmPortId::kCoreLsu, memmap::kTcdmBase + 0, false));
  EXPECT_TRUE(t.request(TcdmPortId::kSsr0, memmap::kTcdmBase + 8, false));
  EXPECT_TRUE(t.request(TcdmPortId::kSsr1, memmap::kTcdmBase + 16, true));
  EXPECT_TRUE(t.request(TcdmPortId::kSsr2, memmap::kTcdmBase + 24, false));
  EXPECT_EQ(t.stats().conflicts, 0u);
  EXPECT_EQ(t.stats().reads, 3u);
  EXPECT_EQ(t.stats().writes, 1u);
}

TEST(Tcdm, PerPortStats) {
  Tcdm t;
  for (int c = 0; c < 4; ++c) {
    t.begin_cycle();
    t.request(TcdmPortId::kSsr0, memmap::kTcdmBase, false);
    t.request(TcdmPortId::kSsr1, memmap::kTcdmBase, false); // always loses
  }
  EXPECT_EQ(t.stats().grants_per_port[1], 4u);
  EXPECT_EQ(t.stats().conflicts_per_port[2], 4u);
}

TEST(Tcdm, ConfigurableBankCount) {
  Tcdm t(TcdmConfig{.num_banks = 4});
  EXPECT_EQ(t.bank_of(memmap::kTcdmBase + 8 * 4), 0u);
  t.begin_cycle();
  EXPECT_TRUE(t.request(TcdmPortId::kSsr0, memmap::kTcdmBase, false));
  EXPECT_FALSE(t.request(TcdmPortId::kSsr1, memmap::kTcdmBase + 32, false));
}

/// Brute-force reference for the bank arbiter: one busy flag per bank,
/// all cleared every cycle, and an address's bank found by division.
struct BankArbiterModel {
  BankArbiterModel(u32 banks, u32 ports)
      : busy(banks), grants(ports), port_conflicts(ports),
        bank_conflicts(banks) {}

  bool request(u32 port, Addr addr, bool is_write) {
    const usize bank = (addr - memmap::kTcdmBase) / 8 % busy.size();
    if (busy[bank]) {
      ++conflicts;
      ++port_conflicts[port];
      ++bank_conflicts[bank];
      return false;
    }
    busy[bank] = true;
    ++grants[port];
    ++(is_write ? writes : reads);
    return true;
  }

  std::vector<bool> busy;
  std::vector<u64> grants, port_conflicts, bank_conflicts;
  u64 reads = 0, writes = 0, conflicts = 0;
};

TEST(Tcdm, MatchesPerBankReferenceModel) {
  constexpr u32 kPorts = 2 * kTcdmPortsPerCore + 1;  // two cores and a DMA
  std::mt19937 rng(23);
  for (u32 banks = 1; banks <= TcdmConfig::kMaxBanks; banks *= 2) {
    SCOPED_TRACE("banks=" + std::to_string(banks));
    Tcdm tcdm(TcdmConfig{.num_banks = banks}, kPorts);
    BankArbiterModel model(banks, kPorts);
    for (u32 cycle = 0; cycle < 4000; ++cycle) {
      tcdm.begin_cycle();
      std::fill(model.busy.begin(), model.busy.end(), false);
      if (rng() % 8 == 0) {
        const u32 bank = rng() % (banks + 2);  // banks past the end: no-op
        tcdm.force_bank_busy(bank);
        if (bank < banks) model.busy[bank] = true;
      }
      for (u32 n = rng() % 12; n > 0; --n) {
        const u32 port = rng() % kPorts;
        const Addr addr = memmap::kTcdmBase + rng() % 4096;  // 8+ bank rows
        const bool is_write = (rng() & 1) != 0;
        ASSERT_EQ(tcdm.request(port, addr, is_write),
                  model.request(port, addr, is_write))
            << "cycle " << cycle << ", port " << port << ", addr 0x"
            << std::hex << addr;
      }
    }
    const TcdmStats& s = tcdm.stats();
    EXPECT_GT(s.conflicts, 0u);
    EXPECT_EQ(s.reads, model.reads);
    EXPECT_EQ(s.writes, model.writes);
    EXPECT_EQ(s.conflicts, model.conflicts);
    EXPECT_EQ(s.grants_per_port, model.grants);
    EXPECT_EQ(s.conflicts_per_port, model.port_conflicts);
    EXPECT_EQ(s.conflicts_per_bank, model.bank_conflicts);
  }
}

} // namespace
} // namespace sch
