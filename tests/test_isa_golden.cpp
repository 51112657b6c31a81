// Pins the real encoding bits of every mnemonic. The other ISA tests check
// encode, decode, disassembler and assembler against each other; all of
// them read the same table, so none of them could catch a wrong funct7.
// tests/golden/isa_encodings.txt holds, per mnemonic, the word for all-zero
// operands and for one fixed operand pattern, each with its disassembly,
// cross-checked against LLVM's disassembler (see the file header).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "isa/decode.hpp"
#include "isa/disasm.hpp"
#include "isa/encode.hpp"

namespace sch::isa {
namespace {

#ifdef SCH_GOLDEN_DIR

TEST(IsaGolden, EncodeDecodeDisassembleMatchPinnedWords) {
  const std::string path = std::string(SCH_GOLDEN_DIR) + "/isa_encodings.txt";
  std::ifstream file(path);
  ASSERT_TRUE(file) << "missing golden " << path;

  std::vector<int> lines_of(static_cast<usize>(Mnemonic::kCount), 0);
  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line[0] == '#') continue;
    const usize sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const u32 word = static_cast<u32>(std::stoul(line.substr(0, sp), nullptr, 16));
    const std::string text = line.substr(sp + 1);

    const Instr in = decode(word);
    ASSERT_TRUE(in.valid()) << line;
    EXPECT_EQ(disassemble(in), text) << line;
    EXPECT_EQ(encode(in), word) << line;
    // The first line of each mnemonic has every operand zero.
    if (lines_of[static_cast<usize>(in.mn)]++ == 0) {
      Instr zero;
      zero.mn = in.mn;
      EXPECT_EQ(encode(zero), word) << line;
    }
  }
  for (u16 m = 1; m < static_cast<u16>(Mnemonic::kCount); ++m) {
    EXPECT_EQ(lines_of[m], 2) << name(static_cast<Mnemonic>(m));
  }
}

#endif // SCH_GOLDEN_DIR

} // namespace
} // namespace sch::isa
