#include "mem/tcdm.hpp"

#include <algorithm>

namespace sch {

Tcdm::Tcdm(const TcdmConfig& config, u32 num_requesters)
    : cfg_(config) {
  assert(is_pow2(cfg_.num_banks) && cfg_.num_banks <= TcdmConfig::kMaxBanks);
  assert(num_requesters >= 1);
  stats_.grants_per_port.assign(num_requesters, 0);
  stats_.conflicts_per_port.assign(num_requesters, 0);
  stats_.conflicts_per_bank.assign(cfg_.num_banks, 0);
}

void Tcdm::begin_cycle() { busy_mask_ = 0; }

bool Tcdm::request(u32 requester, Addr addr, bool is_write) {
  assert(requester < num_requesters());
  if (!memmap::in_tcdm(addr)) {
    // The caller's TCDM range check failed: count the escape instead of
    // wrapping into a bogus bank index (debug builds also assert).
    assert(!"Tcdm::request called with an address outside the TCDM window");
    ++stats_.out_of_range;
    return true;
  }
  const u32 bank = bank_of(addr);
  if ((busy_mask_ >> bank) & 1) {
    ++stats_.conflicts;
    ++stats_.conflicts_per_port[requester];
    ++stats_.conflicts_per_bank[bank];
    return false;
  }
  busy_mask_ |= u64{1} << bank;
  ++stats_.grants_per_port[requester];
  if (is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  return true;
}

std::vector<std::pair<u32, u64>> Tcdm::top_conflict_banks(u32 k) const {
  std::vector<std::pair<u32, u64>> banks;
  for (u32 b = 0; b < cfg_.num_banks; ++b) {
    if (stats_.conflicts_per_bank[b] != 0) {
      banks.emplace_back(b, stats_.conflicts_per_bank[b]);
    }
  }
  std::sort(banks.begin(), banks.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (banks.size() > k) banks.resize(k);
  return banks;
}

} // namespace sch
