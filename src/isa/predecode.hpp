// Predecoded execution records. Decoding resolves each instruction's static
// properties once at program-load time -- metadata pointer, a pre-classified
// execution handler id (mnemonic specials like lui/jal/lb folded in), and
// the precomputed immediate/target the handler needs -- so the per-step hot
// paths of the ISS and the cycle-level core dispatch through a handler table
// instead of re-deriving everything from the mnemonic on every execution.
#pragma once

#include <string>
#include <vector>

#include "isa/instr.hpp"
#include "isa/opcode.hpp"

namespace sch::isa {

/// Hot-path dispatch classes. Unlike ExecClass, mnemonic special cases that
/// the execution engines would otherwise re-test per step (lui vs auipc,
/// jal vs jalr, I- vs R-format ALU, load sign-extension width, scfgw vs
/// scfgr, ecall/ebreak/fence) are distinct handlers.
enum class ExecHandler : u8 {
  kInvalid = 0,
  kLui,
  kAuipc,
  kIntAluImm,   // I-format ALU (addi/slti/../shift-immediates)
  kIntAluReg,   // R-format ALU
  kIntMul,
  kIntDiv,
  kJal,
  kJalr,
  kBranch,
  kLoad,        // lw/lbu/lhu (no sign extension)
  kLoadSext8,   // lb
  kLoadSext16,  // lh
  kStore,
  kCsr,
  kEcall,
  kEbreak,
  kFence,
  kFpLoad,
  kFpStore,
  kFpMac,
  kFpDiv,
  kFpSqrt,
  kFpCmp,
  kFpCvtF2I,
  kFpCvtI2F,
  kFrep,
  kScfgW,
  kScfgR,
  kDmaSrc,
  kDmaDst,
  kDmaStr,
  kDmaCpy,
  kDmaCpy2d,
  kDmaStat,
  kCount,
};

/// True when `h` can never transfer control or halt the machine cleanly:
/// executing it advances the pc by exactly 4 (it may still fault, which the
/// engines detect through their halt flag). The superblock pass strings
/// runs of linear instructions together so the hot loops execute them
/// without per-instruction re-validation.
[[nodiscard]] constexpr bool exec_handler_linear(ExecHandler h) {
  switch (h) {
    case ExecHandler::kInvalid:
    case ExecHandler::kJal:
    case ExecHandler::kJalr:
    case ExecHandler::kBranch:
    case ExecHandler::kFrep:
    case ExecHandler::kEcall:
    case ExecHandler::kEbreak:
      return false;
    default:
      return true;
  }
}

/// PredecodedInstr::flags bits.
namespace preflag {
/// frep marker whose body was statically validated (non-empty, inside the
/// text segment, FP-domain only, no nesting). A clear bit on a kFrep record
/// means executing it must fail; the engines re-walk the body then to
/// produce the exact offset-naming diagnostic. Set by the whole-program
/// superblock pass (link_superblocks): predecode() cannot see neighbors.
inline constexpr u8 kFrepBodyOk = 1u << 0;
/// The rd / rs1 / rs2 field names an integer register (the row's class is
/// RegClass::kInt): the cycle engine's scoreboard set, and rs1/rs2 are the
/// integer register-file reads of one issue. Set by predecode().
inline constexpr u8 kRdInt = 1u << 1;
inline constexpr u8 kRs1Int = 1u << 2;
inline constexpr u8 kRs2Int = 1u << 3;
/// Issue waits until the FP subsystem is quiescent: fence, and any access
/// to a stream/chaining CSR (csr::is_stream_csr), so enabling or disabling
/// SSRs or chaining never races the FPU pipeline. Set by predecode().
inline constexpr u8 kFpBarrier = 1u << 4;
} // namespace preflag

/// PredecodedInstr::fp_slot value of an operand slot that is not an FP
/// register.
inline constexpr u8 kNoFpSlot = 0xFF;

/// Per-instruction record resolved once at load.
struct PredecodedInstr {
  /// Cached metadata (never null; kInvalid's sentinel entry for bad words).
  const MnemonicInfo* mi = nullptr;
  ExecHandler handler = ExecHandler::kInvalid;
  bool fp_domain = false;
  u8 mem_bytes = 0;
  /// preflag:: bits.
  u8 flags = 0;
  /// Handler-specific precomputed immediate: the full upper-immediate value
  /// for lui/auipc (imm << 12), the PC-relative delta for branches/jal, the
  /// CSR address for CSR ops, otherwise the sign-extended immediate.
  i32 aux = 0;
  /// Straight-line superblock length starting at this instruction: this
  /// record and the next run_len-1 are all linear (exec_handler_linear) and
  /// inside the text segment. 0 for non-linear records (superblock pass).
  u32 run_len = 0;
  /// Taken-target text index for kJal/kBranch records; 0xFFFF'FFFF
  /// (Program::kNoIndex) when the target leaves the text segment or is
  /// misaligned (superblock pass).
  u32 target_idx = 0xFFFF'FFFF;
  /// FP source plan (the pop-once rule): the distinct FP registers the
  /// rs1/rs2/rs3 slots name, in that order. An instruction naming one
  /// stream or chain register in several slots reads (pops) it once and
  /// feeds every such slot that value, as Snitch does. Every engine and
  /// the verifier read sources through this plan.
  u8 n_fp_srcs = 0;
  u8 fp_srcs[3] = {};
  /// Per operand slot (rs1, rs2, rs3): index into fp_srcs, or kNoFpSlot
  /// when the slot is not an FP register.
  u8 fp_slot[3] = {kNoFpSlot, kNoFpSlot, kNoFpSlot};
};
// The engines walk arrays of these every cycle: keep the record at 32 bytes.
static_assert(sizeof(PredecodedInstr) == 32);

/// Resolve the execution record for one decoded instruction.
[[nodiscard]] PredecodedInstr predecode(const Instr& in);

/// Whole-program superblock pass over a predecoded stream: computes
/// straight-line run lengths, resolves branch/jal taken-target indices, and
/// statically validates frep bodies, so the execution engines validate each
/// static block once instead of re-checking every dynamic instruction.
/// Program::predecode() runs it after the per-instruction pass; any in-place
/// program edit must rebuild via Program::predecode() (full rebuild -- the
/// invalidation hook -- so stale block metadata can never survive an edit).
void link_superblocks(std::vector<PredecodedInstr>& pre);

/// Why the frep marker at text index `site` of `pre` cannot run its body,
/// or "" when the body is well formed. Checked in this order: an empty
/// body ("frep with empty body"), then the first body slot that is not an
/// FP-domain instruction inside the text ("frep body contains a non-FP
/// instruction at offset N"), then a frep inside the body ("nested
/// frep"). link_superblocks sets kFrepBodyOk from it; both engines fail a
/// marker whose flag is clear with this text.
[[nodiscard]] std::string frep_body_error(
    const std::vector<PredecodedInstr>& pre, usize site);

/// Both engines' diagnostic for a kInvalid record: "illegal instruction
/// encoding 0x%08x" of the raw word.
[[nodiscard]] std::string illegal_encoding_message(u32 word);

/// Both engines' diagnostic for a pc with no instruction of the text
/// segment behind it (after their "pc=0x...: " prefix).
inline constexpr const char* kOffTextMessage = "fetch outside the text segment";

} // namespace sch::isa
