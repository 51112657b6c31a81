#include "isa/disasm.hpp"

#include <sstream>

#include "isa/decode.hpp"
#include "isa/reg.hpp"

namespace sch::isa {

std::string disassemble(const Instr& in) {
  const MnemonicInfo& mi = in.meta();
  std::ostringstream os;
  os << mi.name;
  if (!in.valid()) return os.str();

  // Operands in rd, rs1, rs2, rs3 order, then the immediate. Zicsr puts the
  // CSR after rd; loads, stores and jalr print rs1 as the base, imm(rs1).
  const bool base_offset = has_base_offset(mi);
  const char* sep = " ";
  auto next = [&]() -> std::ostream& {
    os << sep;
    sep = ", ";
    return os;
  };
  auto reg = [&](RegClass cls, u8 r) {
    if (cls == RegClass::kInt) next() << int_reg_name(r);
    if (cls == RegClass::kFp) next() << fp_reg_name(r);
    if (cls == RegClass::kZimm) next() << static_cast<int>(r);
  };
  reg(mi.rd, in.rd);
  if (mi.imm == ImmKind::kCsr) next() << "0x" << std::hex << in.imm << std::dec;
  if (!base_offset) reg(mi.rs1, in.rs1);
  reg(mi.rs2, in.rs2);
  reg(mi.rs3, in.rs3);
  switch (mi.imm) {
    case ImmKind::kNone:
    case ImmKind::kCsr:
      break;
    case ImmKind::kU:
      next() << "0x" << std::hex << in.imm;
      break;
    default:
      next() << in.imm;
      if (base_offset) os << "(" << int_reg_name(in.rs1) << ")";
      break;
  }
  return os.str();
}

std::string disassemble(u32 word) { return disassemble(decode(word)); }

} // namespace sch::isa
