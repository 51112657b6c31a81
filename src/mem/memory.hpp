// Functional memory storage shared by the ISS and the cycle-level simulator.
// Timing (banks, ports, arbitration) is modeled separately in tcdm.hpp; this
// class is only the byte store with a region map.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "asm/program.hpp"
#include "common/status.hpp"
#include "common/types.hpp"

namespace sch {

/// Sparse paged byte store. Each region (TCDM, main) is a table of 4 KiB
/// page pointers. Every entry starts at one shared read-only zero page, and
/// the first store or load_image that reaches a page allocates it. So
/// construction only fills the table, unwritten memory reads as zero, and
/// diff_words visits only the pages one of the two memories wrote.
class Memory {
 public:
  static constexpr u32 kPageSize = 4096;

  /// Result of diff_words: how many 8-byte words differ, and the address of
  /// the first (lowest) one.
  struct WordDiff {
    u64 words = 0;
    Addr first = 0;
  };

  Memory();
  ~Memory();
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// True when [addr, addr+bytes) lies inside a mapped region.
  [[nodiscard]] bool valid(Addr addr, u32 bytes) const {
    const u64 end = static_cast<u64>(addr) + bytes;
    return (addr >= memmap::kTcdmBase &&
            end <= memmap::kTcdmBase + memmap::kTcdmSize) ||
           (addr >= memmap::kMainBase &&
            end <= memmap::kMainBase + memmap::kMainSize);
  }

  /// Little-endian load, zero-extended into 64 bits. `bytes` in {1,2,4,8}.
  /// Throws sch::BusError (a std::out_of_range with a "bus error" message)
  /// on unmapped access; api::Engine turns it into a bus_error report.
  /// Inline so constant-size accesses on the simulation hot paths compile
  /// to a region check, a table load and one move; an access that crosses
  /// a page boundary (nothing checks alignment) goes out of line.
  [[nodiscard]] u64 load(Addr addr, u32 bytes) const {
    const u32 slot = slot_of(addr, bytes);
    const u32 off = addr & kPageMask;
    if (off + bytes > kPageSize) [[unlikely]] return load_split(addr, bytes);
    return read_le(pages_[slot] + off, bytes);
  }
  void store(Addr addr, u64 value, u32 bytes) {
    const u32 slot = slot_of(addr, bytes);
    const u32 off = addr & kPageMask;
    if (off + bytes > kPageSize) [[unlikely]] {
      store_split(addr, value, bytes);
      return;
    }
    u8* page = pages_[slot];
    if (page == kZeroPage) [[unlikely]] page = allocate(slot);
    write_le(page + off, value, bytes);
  }

  [[nodiscard]] double load_f64(Addr addr) const;
  [[nodiscard]] float load_f32(Addr addr) const;
  void store_f64(Addr addr, double v);
  void store_f32(Addr addr, float v);

  /// Copy an initial image (e.g. Program::data) into memory.
  void load_image(Addr base, std::span<const u8> bytes);

  /// Read back a block (tests, kernel result validation).
  [[nodiscard]] std::vector<u8> read_block(Addr base, u32 bytes) const;
  [[nodiscard]] std::vector<double> read_f64_block(Addr base, u32 count) const;

  /// Bit-exact compare of [base, base+bytes) against `other`, counted per
  /// 8-byte word from `base` (which must be 8-byte aligned). Pages neither
  /// memory wrote are skipped; a page only one side wrote is compared
  /// against zeros.
  [[nodiscard]] WordDiff diff_words(const Memory& other, Addr base,
                                    u32 bytes) const;

  /// True when `addr` falls into the L1 TCDM region (bank-arbitrated).
  [[nodiscard]] static bool in_tcdm(Addr addr) { return memmap::in_tcdm(addr); }

 private:
  static constexpr u32 kPageMask = kPageSize - 1;
  static constexpr u32 kTcdmPages = memmap::kTcdmSize / kPageSize;
  static constexpr u32 kMainPages = memmap::kMainSize / kPageSize;

  /// Initial target of every table entry; never written.
  static constexpr u8 kZeroPage[kPageSize] = {};

  /// Escape hatch for the inline slot_of(): builds the hex message and
  /// throws BusError (kept out-of-line so the hot path stays small).
  [[noreturn]] static void throw_bus_error(Addr addr);

  /// Table slot of the page holding `addr`; TCDM pages come first, then
  /// main. Throws unless [addr, addr+bytes) lies inside one region.
  /// `bytes` must not exceed a region's size (load/store pass at most 8).
  /// TCDM is the fall-through: it takes nearly all hot-path accesses.
  [[nodiscard]] static u32 slot_of(Addr addr, u32 bytes) {
    const u32 tcdm_off = addr - memmap::kTcdmBase;
    if (tcdm_off <= memmap::kTcdmSize - bytes) [[likely]] {
      return tcdm_off / kPageSize;
    }
    const u32 main_off = addr - memmap::kMainBase;
    if (main_off <= memmap::kMainSize - bytes) {
      return kTcdmPages + main_off / kPageSize;
    }
    throw_bus_error(addr);
  }

  /// Fixed-width copies for the access sizes the ISA has. Where load/store
  /// stay out of line (a non-constant `bytes`, or a caller the compiler
  /// chose not to inline them into), a variable-length memcpy expands to a
  /// microcoded `rep movsq` for the 8-byte case, whose start-up cost alone
  /// exceeds the rest of an SSR data fetch.
  [[nodiscard]] static u64 read_le(const u8* p, u32 bytes) {
    u64 v = 0;
    switch (bytes) {
      case 8: std::memcpy(&v, p, 8); break;
      case 4: std::memcpy(&v, p, 4); break;
      case 2: std::memcpy(&v, p, 2); break;
      case 1: v = *p; break;
      default: std::memcpy(&v, p, bytes); break;
    }
    return v;
  }
  static void write_le(u8* p, u64 value, u32 bytes) {
    switch (bytes) {
      case 8: std::memcpy(p, &value, 8); break;
      case 4: std::memcpy(p, &value, 4); break;
      case 2: std::memcpy(p, &value, 2); break;
      case 1: *p = static_cast<u8>(value); break;
      default: std::memcpy(p, &value, bytes); break;
    }
  }

  /// Give `slot` its own zeroed page (first write to it).
  u8* allocate(u32 slot);
  [[nodiscard]] u64 load_split(Addr addr, u32 bytes) const;
  void store_split(Addr addr, u64 value, u32 bytes);
  /// Call fn(slot, page_offset, length, range_offset) for each page-sized
  /// piece of [base, base+bytes), after checking the range is mapped.
  template <typename Fn>
  void for_each_page(Addr base, u32 bytes, Fn&& fn) const;

  u8* pages_[kTcdmPages + kMainPages];
};

} // namespace sch
