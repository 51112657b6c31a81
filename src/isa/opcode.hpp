// Mnemonic-level instruction vocabulary and the ISA table. One MnemonicInfo
// row per instruction holds everything the model knows about it statically:
// its fixed encoding bits (match/mask), its operand layout (register
// classes, rounding-mode field, immediate kind) and its execution metadata
// (exec class, FP domain, access size). encode(), decode(), the
// disassembler and the assembler's instruction parser read the row and
// nothing else; predecode carries it to the functional ISS and the timing
// model. Adding an instruction is one row here plus its semantics
// (docs/ISA.md, "Adding an instruction").
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace sch::isa {

/// Every instruction the core understands. RV32IMFD + Zicsr + the custom
/// Xfrep (hardware loop), Xssr (stream config) and Xdma (cluster DMA)
/// extensions.
enum class Mnemonic : u16 {
  kInvalid = 0,
  // --- RV32I ---
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  // --- RV32M ---
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  // --- Zicsr ---
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // --- RV32F ---
  kFlw, kFsw,
  kFmaddS, kFmsubS, kFnmsubS, kFnmaddS,
  kFaddS, kFsubS, kFmulS, kFdivS, kFsqrtS,
  kFsgnjS, kFsgnjnS, kFsgnjxS, kFminS, kFmaxS,
  kFcvtWS, kFcvtWuS, kFmvXW, kFeqS, kFltS, kFleS, kFclassS,
  kFcvtSW, kFcvtSWu, kFmvWX,
  // --- RV32D ---
  kFld, kFsd,
  kFmaddD, kFmsubD, kFnmsubD, kFnmaddD,
  kFaddD, kFsubD, kFmulD, kFdivD, kFsqrtD,
  kFsgnjD, kFsgnjnD, kFsgnjxD, kFminD, kFmaxD,
  kFcvtSD, kFcvtDS, kFeqD, kFltD, kFleD, kFclassD,
  kFcvtWD, kFcvtWuD, kFcvtDW, kFcvtDWu,
  // --- Xfrep (Snitch-style FP hardware loop) ---
  kFrepO, kFrepI,
  // --- Xssr (stream configuration) ---
  kScfgw, kScfgr,
  // --- Xdma (cluster DMA engine) ---
  kDmSrc, kDmDst, kDmStr, kDmCpy, kDmCpy2d, kDmStat,

  kCount,
};

/// What a register field (rd, rs1, rs2, rs3) of an encoding holds. kNone:
/// the field is no operand (fixed by the mask, or ignored and zero).
/// kZimm: the rs1 field holds a 5-bit unsigned immediate (csrr*i).
enum class RegClass : u8 { kNone, kInt, kFp, kZimm };

/// Immediate field of an encoding (RISC-V manual nomenclature). kShamt is
/// the 5-bit shift amount in bits 24:20; kU keeps the 20-bit field
/// unshifted; kCsr is the 12-bit CSR address, zero-extended.
enum class ImmKind : u8 { kNone, kI, kS, kB, kU, kJ, kShamt, kCsr };

/// Execution resource / latency class, consumed by the timing model.
enum class ExecClass : u8 {
  kIntAlu,    // 1-cycle integer ops, lui/auipc
  kIntMul,    // pipelined integer multiply
  kIntDiv,    // iterative integer divide
  kLoad,      // integer load
  kStore,     // integer store
  kBranch,    // conditional branch
  kJump,      // jal/jalr
  kCsr,       // CSR access
  kSystem,    // fence/ecall/ebreak
  kFpMac,     // pipelined FP compute (add/sub/mul/fma/sgnj/minmax/cvt f<->f)
  kFpDiv,     // iterative FP divide
  kFpSqrt,    // iterative FP square root
  kFpCmp,     // FP compare/classify -> integer result
  kFpCvtF2I,  // FP -> int conversions / fmv.x.w
  kFpCvtI2F,  // int -> FP conversions / fmv.w.x
  kFpLoad,    // flw/fld (FP-domain, address from integer rs1)
  kFpStore,   // fsw/fsd
  kFrep,      // hardware-loop marker (consumed by the sequencer)
  kScfg,      // stream config access
  kDma,       // cluster DMA engine access (Xdma)
};

/// Static description of one mnemonic: one row of the ISA table.
struct MnemonicInfo {
  std::string_view name;  // canonical assembly spelling, e.g. "fmadd.d"
  /// Fixed encoding bits: a word is this instruction iff
  /// (word & mask) == match. No two rows accept the same word.
  u32 match = 0;
  u32 mask = 0;
  // Operand layout: the register fields, then whether bits 14:12 carry a
  // rounding mode (every OP-FP and R4 row, even where the mask fixes them),
  // then the immediate. Fields outside the layout are zero after decode.
  RegClass rd = RegClass::kNone;
  RegClass rs1 = RegClass::kNone;
  RegClass rs2 = RegClass::kNone;
  RegClass rs3 = RegClass::kNone;
  bool has_rm = false;
  ImmKind imm = ImmKind::kNone;
  ExecClass exec = ExecClass::kIntAlu;
  /// Executed in the FP subsystem (pseudo-dual-issue offload).
  bool fp_domain = false;
  /// Memory access size in bytes (loads/stores), else 0.
  u8 mem_bytes = 0;
  /// Uses the single-precision (NaN-boxed) FP format.
  bool is_single = false;
};

/// Metadata for `mn`; `kInvalid` returns a sentinel entry.
const MnemonicInfo& info(Mnemonic mn);

/// Canonical spelling ("fmadd.d"); "<invalid>" for kInvalid.
std::string_view name(Mnemonic mn);

/// True when the assembly syntax writes rs1 as a base, `imm(rs1)`: loads,
/// stores and jalr.
inline bool has_base_offset(const MnemonicInfo& mi) {
  return mi.mem_bytes != 0 || (mi.exec == ExecClass::kJump && mi.imm == ImmKind::kI);
}

/// True when the mnemonic writes an integer destination register.
inline bool writes_int_rd(Mnemonic mn) { return info(mn).rd == RegClass::kInt; }
/// True when the mnemonic writes an FP destination register.
inline bool writes_fp_rd(Mnemonic mn) { return info(mn).rd == RegClass::kFp; }

} // namespace sch::isa
