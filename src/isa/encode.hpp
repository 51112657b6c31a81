// Instruction encoding: Instr -> 32-bit word, from the mnemonic's ISA table
// row (isa/opcode.hpp). The inverse of decode(); tests pin the words against
// tests/golden/isa_encodings.txt and round-trip every mnemonic.
#pragma once

#include "common/types.hpp"
#include "isa/instr.hpp"

namespace sch::isa {

/// Encode a decoded instruction into its 32-bit representation: the row's
/// `match` bits plus the operand fields of its layout. Fields outside the
/// layout are not written. Asserts on malformed operands (immediates out of
/// range are the assembler's responsibility to reject first).
u32 encode(const Instr& instr);

// Convenience builders used by the ProgramBuilder and tests. Immediates are
// the architectural values (byte offsets for branches, not pre-shifted).
Instr make_r(Mnemonic mn, u8 rd, u8 rs1, u8 rs2, u8 rm = 0);
Instr make_r4(Mnemonic mn, u8 rd, u8 rs1, u8 rs2, u8 rs3, u8 rm = 0);
Instr make_i(Mnemonic mn, u8 rd, u8 rs1, i32 imm);
Instr make_s(Mnemonic mn, u8 rs1, u8 rs2, i32 imm);
Instr make_b(Mnemonic mn, u8 rs1, u8 rs2, i32 offset);
Instr make_u(Mnemonic mn, u8 rd, i32 imm20);
Instr make_j(Mnemonic mn, u8 rd, i32 offset);
Instr make_csr(Mnemonic mn, u8 rd, u8 rs1_or_zimm, u32 csr_addr);

} // namespace sch::isa
