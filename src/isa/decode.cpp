#include "isa/decode.hpp"

#include "common/bitfield.hpp"

namespace sch::isa {
namespace {

/// The immediate of `kind` held in `w`, sign-extended where the kind is.
i32 extract_imm(ImmKind kind, u32 w) {
  switch (kind) {
    case ImmKind::kNone:
      return 0;
    case ImmKind::kI:
      return sign_extend(bits(w, 31, 20), 12);
    case ImmKind::kS:
      return sign_extend((bits(w, 31, 25) << 5) | bits(w, 11, 7), 12);
    case ImmKind::kB:
      return sign_extend((bit(w, 31) << 12) | (bit(w, 7) << 11) |
                             (bits(w, 30, 25) << 5) | (bits(w, 11, 8) << 1),
                         13);
    case ImmKind::kU:
      return static_cast<i32>(bits(w, 31, 12));
    case ImmKind::kJ:
      return sign_extend((bit(w, 31) << 20) | (bits(w, 19, 12) << 12) |
                             (bit(w, 20) << 11) | (bits(w, 30, 21) << 1),
                         21);
    case ImmKind::kShamt:
      return static_cast<i32>(bits(w, 24, 20));
    case ImmKind::kCsr:
      return static_cast<i32>(bits(w, 31, 20));
  }
  return 0;
}

} // namespace

Instr decode(u32 w) {
  Instr in;
  in.raw = w;
  for (u16 m = 1; m < static_cast<u16>(Mnemonic::kCount); ++m) {
    const auto mn = static_cast<Mnemonic>(m);
    const MnemonicInfo& mi = info(mn);
    if ((w & mi.mask) != mi.match) continue;
    in.mn = mn;
    if (mi.rd != RegClass::kNone) in.rd = static_cast<u8>(bits(w, 11, 7));
    if (mi.rs1 != RegClass::kNone) in.rs1 = static_cast<u8>(bits(w, 19, 15));
    if (mi.rs2 != RegClass::kNone) in.rs2 = static_cast<u8>(bits(w, 24, 20));
    if (mi.rs3 != RegClass::kNone) in.rs3 = static_cast<u8>(bits(w, 31, 27));
    if (mi.has_rm) in.rm = static_cast<u8>(bits(w, 14, 12));
    in.imm = extract_imm(mi.imm, w);
    break;
  }
  return in;
}

} // namespace sch::isa
