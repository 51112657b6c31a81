// Bit-manipulation helpers for instruction encoding/decoding and address math.
#pragma once

#include <type_traits>

#include "common/types.hpp"

namespace sch {

/// Extract bits [hi:lo] (inclusive, RISC-V manual convention) from `value`.
constexpr u32 bits(u32 value, unsigned hi, unsigned lo) {
  const unsigned width = hi - lo + 1;
  const u32 mask = width >= 32 ? ~u32{0} : ((u32{1} << width) - 1);
  return (value >> lo) & mask;
}

/// Extract a single bit.
constexpr u32 bit(u32 value, unsigned pos) { return (value >> pos) & 1u; }

/// Place `value`'s low `width` bits at position `lo`.
constexpr u32 place(u32 value, unsigned width, unsigned lo) {
  const u32 mask = width >= 32 ? ~u32{0} : ((u32{1} << width) - 1);
  return (value & mask) << lo;
}

/// Sign-extend the low `width` bits of `value` to 32 bits.
constexpr i32 sign_extend(u32 value, unsigned width) {
  const unsigned shift = 32 - width;
  return static_cast<i32>(value << shift) >> shift;
}

/// True when `value` fits a signed immediate of `width` bits.
constexpr bool fits_simm(i64 value, unsigned width) {
  const i64 lo = -(i64{1} << (width - 1));
  const i64 hi = (i64{1} << (width - 1)) - 1;
  return value >= lo && value <= hi;
}

/// True when `value` fits an unsigned immediate of `width` bits.
constexpr bool fits_uimm(i64 value, unsigned width) {
  return value >= 0 && value < (i64{1} << width);
}

/// True when `v` is a power of two (and nonzero).
constexpr bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

/// Align `v` up to a power-of-two boundary.
constexpr u64 align_up(u64 v, u64 align) { return (v + align - 1) & ~(align - 1); }

} // namespace sch
