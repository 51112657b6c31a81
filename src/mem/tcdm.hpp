// Timing model of the banked L1 scratchpad (TCDM). Storage lives in Memory;
// this class models per-cycle bank arbitration between an arbitrary number of
// requester ports (num_cores x 4: each core contributes its LSU port plus
// three SSR ports), and counts conflicts for the stall attribution and the
// energy model.
//
// Arbitration contract: callers invoke request() in priority order within a
// cycle. Per core, the LSU port goes first (core wins ties) and the three
// streamer ports rotate round-robin among themselves; across cores, the
// cluster rotates the core service order each cycle (fair cross-core
// round-robin), so no core is statically favored. The Tcdm itself is
// first-come-first-served per bank per cycle.
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "asm/program.hpp"
#include "common/bitfield.hpp"
#include "common/types.hpp"

namespace sch {

struct TcdmConfig {
  /// A power of two, at most kMaxBanks (SimConfig::validate() enforces both).
  u32 num_banks = 32;
  /// The reach of the 64-bit occupancy mask (the paper uses 32 banks).
  static constexpr u32 kMaxBanks = 64;
  /// log2 of the bank word size in bytes (8-byte banks, Snitch-style).
  static constexpr u32 kBankWordLog2 = 3;
};

/// Per-core requester roles in fixed priority order (the LSU wins ties; the
/// SSR ports are rotated round-robin by the caller's invocation order each
/// cycle). Core h's global requester id is `requester_id(h, role)`.
enum class TcdmPortId : u8 { kCoreLsu = 0, kSsr0 = 1, kSsr1 = 2, kSsr2 = 3 };
inline constexpr u32 kTcdmPortsPerCore = 4;

struct TcdmStats {
  u64 reads = 0;
  u64 writes = 0;
  u64 conflicts = 0;     // denied port-cycles
  u64 out_of_range = 0;  // requests below/above the TCDM window (modeling bug
                         // guard: counted instead of corrupting a bank index)
  std::vector<u64> grants_per_port;     // sized num_requesters
  std::vector<u64> conflicts_per_port;  // sized num_requesters
  std::vector<u64> conflicts_per_bank;  // sized num_banks (conflict histogram)
};

class Tcdm {
 public:
  /// `num_requesters` is num_cores x kTcdmPortsPerCore for a cluster; the
  /// default models one core.
  explicit Tcdm(const TcdmConfig& config = {},
                u32 num_requesters = kTcdmPortsPerCore);

  /// Global requester id of `role` on core `hartid`.
  [[nodiscard]] static constexpr u32 requester_id(u32 hartid, TcdmPortId role) {
    return hartid * kTcdmPortsPerCore + static_cast<u32>(role);
  }

  /// Global requester id of the cluster DMA engine (one extra port after
  /// every core's block; the cluster sizes the arbiter accordingly).
  [[nodiscard]] static constexpr u32 dma_requester_id(u32 num_cores) {
    return num_cores * kTcdmPortsPerCore;
  }

  /// Clear per-cycle bank occupancy. Call once per simulated cycle.
  void begin_cycle();

  /// Try to access the bank holding `addr` for requester `requester`.
  /// Returns true when the bank is free this cycle (access granted; data
  /// available next cycle). Callers must invoke in priority order within a
  /// cycle. Out-of-window addresses are counted in stats().out_of_range and
  /// granted without touching any bank (the caller's address check failed;
  /// never corrupt a bank index because of it).
  bool request(u32 requester, Addr addr, bool is_write);
  bool request(TcdmPortId port, Addr addr, bool is_write) {
    return request(static_cast<u32>(port), addr, is_write);
  }

  /// Fault injection (sim::FaultKind::kStallTcdmBank): hold `bank` busy for
  /// the rest of this cycle; every request to it is denied and counted as a
  /// conflict. Call after begin_cycle(), before the requesters run.
  void force_bank_busy(u32 bank) {
    if (bank < cfg_.num_banks) busy_mask_ |= u64{1} << bank;
  }

  /// Record an access that bypassed bank arbitration because its address
  /// lies outside the TCDM window (e.g. an SSR stream pointed at main
  /// memory). Such accesses proceed un-arbitrated, like the LSU's
  /// main-memory path.
  void count_out_of_range() { ++stats_.out_of_range; }

  [[nodiscard]] u32 bank_of(Addr addr) const {
    // Addresses below the TCDM base would wrap through the u32 subtraction
    // into a bogus bank; callers must range-check first (see request()).
    assert(memmap::in_tcdm(addr));
    // num_banks is a power of two (see TcdmConfig), so a mask selects it.
    return (static_cast<u32>(addr - memmap::kTcdmBase) >>
            TcdmConfig::kBankWordLog2) &
           (cfg_.num_banks - 1);
  }

  /// The `k` banks with the most conflicts, hottest first (ties broken by
  /// bank index for determinism). Banks with zero conflicts are omitted.
  [[nodiscard]] std::vector<std::pair<u32, u64>> top_conflict_banks(u32 k) const;

  [[nodiscard]] const TcdmStats& stats() const { return stats_; }
  [[nodiscard]] const TcdmConfig& config() const { return cfg_; }
  [[nodiscard]] u32 num_requesters() const {
    return static_cast<u32>(stats_.grants_per_port.size());
  }

 private:
  TcdmConfig cfg_;
  u64 busy_mask_ = 0;  // this cycle's bank occupancy, one bit per bank
  TcdmStats stats_;
};

} // namespace sch
