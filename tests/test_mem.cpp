// Memory storage and TCDM bank-arbitration tests.
#include <gtest/gtest.h>

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

} // namespace
} // namespace sch
