// Instruction decoding: 32-bit word -> Instr, by the ISA table row whose
// match/mask accepts the word (isa/opcode.hpp).
#pragma once

#include "common/types.hpp"
#include "isa/instr.hpp"

namespace sch::isa {

/// Decode a 32-bit instruction word: the operand fields of the matching
/// row's layout, every other field zero. Unknown encodings yield
/// Instr{.mn = Mnemonic::kInvalid} with `raw` preserved.
Instr decode(u32 word);

} // namespace sch::isa
