#include "isa/opcode.hpp"

#include <array>

namespace sch::isa {
namespace {

using M = Mnemonic;
using R = RegClass;
using I = ImmKind;
using E = ExecClass;

constexpr usize kCount = static_cast<usize>(M::kCount);

// Masks by the fields an encoding fixes (riscv-opcodes convention: a word
// is the row's instruction iff (word & mask) == match).
constexpr u32 kOpcode = 0x0000007F;       // opcode only: U, J, fence
constexpr u32 kFunct3 = 0x0000707F;       // + funct3: I, S, B, Zicsr, custom
constexpr u32 kFunct7 = 0xFE00707F;       // + funct7: R, shifts
constexpr u32 kFunct7Rm = 0xFE00007F;     // funct7, funct3 is rm: OP-FP
constexpr u32 kFunct7Rs2Rm = 0xFFF0007F;  // + rs2 selects: fsqrt, fcvt
constexpr u32 kFunct7Rs2 = 0xFFF0707F;    // + funct3 too: fmv, fclass
constexpr u32 kFmt = 0x0600007F;          // opcode + fmt: R4 (fmadd family)
constexpr u32 kWhole = 0xFFFFFFFF;        // ecall, ebreak

constexpr std::array<MnemonicInfo, kCount> build_table() {
  std::array<MnemonicInfo, kCount> t{};
  auto set = [&t](M mn, MnemonicInfo inf) { t[static_cast<usize>(mn)] = inf; };

  // Columns: name, match, mask, rd, rs1, rs2, rs3, rm, imm, exec, then
  // fp_domain, mem_bytes, is_single where they are not false/0/false.
  set(M::kInvalid, {"<invalid>", 0, 0, R::kNone, R::kNone, R::kNone, R::kNone, false, I::kNone, E::kSystem});

  // RV32I -------------------------------------------------------------------
  set(M::kLui,   {"lui",   0x00000037, kOpcode, R::kInt, R::kNone, R::kNone, R::kNone, false, I::kU, E::kIntAlu});
  set(M::kAuipc, {"auipc", 0x00000017, kOpcode, R::kInt, R::kNone, R::kNone, R::kNone, false, I::kU, E::kIntAlu});
  set(M::kJal,   {"jal",   0x0000006F, kOpcode, R::kInt, R::kNone, R::kNone, R::kNone, false, I::kJ, E::kJump});
  set(M::kJalr,  {"jalr",  0x00000067, kFunct3, R::kInt, R::kInt,  R::kNone, R::kNone, false, I::kI, E::kJump});
  set(M::kBeq,   {"beq",   0x00000063, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kB, E::kBranch});
  set(M::kBne,   {"bne",   0x00001063, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kB, E::kBranch});
  set(M::kBlt,   {"blt",   0x00004063, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kB, E::kBranch});
  set(M::kBge,   {"bge",   0x00005063, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kB, E::kBranch});
  set(M::kBltu,  {"bltu",  0x00006063, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kB, E::kBranch});
  set(M::kBgeu,  {"bgeu",  0x00007063, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kB, E::kBranch});
  set(M::kLb,    {"lb",    0x00000003, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kLoad, false, 1});
  set(M::kLh,    {"lh",    0x00001003, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kLoad, false, 2});
  set(M::kLw,    {"lw",    0x00002003, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kLoad, false, 4});
  set(M::kLbu,   {"lbu",   0x00004003, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kLoad, false, 1});
  set(M::kLhu,   {"lhu",   0x00005003, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kLoad, false, 2});
  set(M::kSb,    {"sb",    0x00000023, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kS, E::kStore, false, 1});
  set(M::kSh,    {"sh",    0x00001023, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kS, E::kStore, false, 2});
  set(M::kSw,    {"sw",    0x00002023, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kS, E::kStore, false, 4});
  set(M::kAddi,  {"addi",  0x00000013, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kIntAlu});
  set(M::kSlti,  {"slti",  0x00002013, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kIntAlu});
  set(M::kSltiu, {"sltiu", 0x00003013, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kIntAlu});
  set(M::kXori,  {"xori",  0x00004013, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kIntAlu});
  set(M::kOri,   {"ori",   0x00006013, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kIntAlu});
  set(M::kAndi,  {"andi",  0x00007013, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kI, E::kIntAlu});
  set(M::kSlli,  {"slli",  0x00001013, kFunct7, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kShamt, E::kIntAlu});
  set(M::kSrli,  {"srli",  0x00005013, kFunct7, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kShamt, E::kIntAlu});
  set(M::kSrai,  {"srai",  0x40005013, kFunct7, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kShamt, E::kIntAlu});
  set(M::kAdd,   {"add",   0x00000033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kSub,   {"sub",   0x40000033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kSll,   {"sll",   0x00001033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kSlt,   {"slt",   0x00002033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kSltu,  {"sltu",  0x00003033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kXor,   {"xor",   0x00004033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kSrl,   {"srl",   0x00005033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kSra,   {"sra",   0x40005033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kOr,    {"or",    0x00006033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  set(M::kAnd,   {"and",   0x00007033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntAlu});
  // fence ignores its operand fields: every MISC-MEM word is a fence.
  set(M::kFence, {"fence", 0x0000000F, kOpcode, R::kNone, R::kNone, R::kNone, R::kNone, false, I::kNone, E::kSystem});
  set(M::kEcall, {"ecall", 0x00000073, kWhole,  R::kNone, R::kNone, R::kNone, R::kNone, false, I::kNone, E::kSystem});
  set(M::kEbreak,{"ebreak",0x00100073, kWhole,  R::kNone, R::kNone, R::kNone, R::kNone, false, I::kNone, E::kSystem});

  // RV32M -------------------------------------------------------------------
  set(M::kMul,    {"mul",    0x02000033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntMul});
  set(M::kMulh,   {"mulh",   0x02001033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntMul});
  set(M::kMulhsu, {"mulhsu", 0x02002033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntMul});
  set(M::kMulhu,  {"mulhu",  0x02003033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntMul});
  set(M::kDiv,    {"div",    0x02004033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntDiv});
  set(M::kDivu,   {"divu",   0x02005033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntDiv});
  set(M::kRem,    {"rem",    0x02006033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntDiv});
  set(M::kRemu,   {"remu",   0x02007033, kFunct7, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kIntDiv});

  // Zicsr: the immediate forms carry a 5-bit zimm in the rs1 field ----------
  set(M::kCsrrw,  {"csrrw",  0x00001073, kFunct3, R::kInt, R::kInt,  R::kNone, R::kNone, false, I::kCsr, E::kCsr});
  set(M::kCsrrs,  {"csrrs",  0x00002073, kFunct3, R::kInt, R::kInt,  R::kNone, R::kNone, false, I::kCsr, E::kCsr});
  set(M::kCsrrc,  {"csrrc",  0x00003073, kFunct3, R::kInt, R::kInt,  R::kNone, R::kNone, false, I::kCsr, E::kCsr});
  set(M::kCsrrwi, {"csrrwi", 0x00005073, kFunct3, R::kInt, R::kZimm, R::kNone, R::kNone, false, I::kCsr, E::kCsr});
  set(M::kCsrrsi, {"csrrsi", 0x00006073, kFunct3, R::kInt, R::kZimm, R::kNone, R::kNone, false, I::kCsr, E::kCsr});
  set(M::kCsrrci, {"csrrci", 0x00007073, kFunct3, R::kInt, R::kZimm, R::kNone, R::kNone, false, I::kCsr, E::kCsr});

  // RV32F -------------------------------------------------------------------
  set(M::kFlw,    {"flw",     0x00002007, kFunct3, R::kFp, R::kInt, R::kNone, R::kNone, false, I::kI, E::kFpLoad, true, 4, true});
  set(M::kFsw,    {"fsw",     0x00002027, kFunct3, R::kNone, R::kInt, R::kFp, R::kNone, false, I::kS, E::kFpStore, true, 4, true});
  set(M::kFmaddS, {"fmadd.s", 0x00000043, kFmt, R::kFp, R::kFp, R::kFp, R::kFp, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFmsubS, {"fmsub.s", 0x00000047, kFmt, R::kFp, R::kFp, R::kFp, R::kFp, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFnmsubS,{"fnmsub.s",0x0000004B, kFmt, R::kFp, R::kFp, R::kFp, R::kFp, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFnmaddS,{"fnmadd.s",0x0000004F, kFmt, R::kFp, R::kFp, R::kFp, R::kFp, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFaddS,  {"fadd.s",  0x00000053, kFunct7Rm, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFsubS,  {"fsub.s",  0x08000053, kFunct7Rm, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFmulS,  {"fmul.s",  0x10000053, kFunct7Rm, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFdivS,  {"fdiv.s",  0x18000053, kFunct7Rm, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpDiv, true, 0, true});
  set(M::kFsqrtS, {"fsqrt.s", 0x58000053, kFunct7Rs2Rm, R::kFp, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpSqrt, true, 0, true});
  set(M::kFsgnjS, {"fsgnj.s", 0x20000053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFsgnjnS,{"fsgnjn.s",0x20001053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFsgnjxS,{"fsgnjx.s",0x20002053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFminS,  {"fmin.s",  0x28000053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFmaxS,  {"fmax.s",  0x28001053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFcvtWS, {"fcvt.w.s", 0xC0000053, kFunct7Rs2Rm, R::kInt, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpCvtF2I, true, 0, true});
  set(M::kFcvtWuS,{"fcvt.wu.s",0xC0100053, kFunct7Rs2Rm, R::kInt, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpCvtF2I, true, 0, true});
  set(M::kFmvXW,  {"fmv.x.w", 0xE0000053, kFunct7Rs2, R::kInt, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpCvtF2I, true, 0, true});
  set(M::kFeqS,   {"feq.s",   0xA0002053, kFunct7, R::kInt, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpCmp, true, 0, true});
  set(M::kFltS,   {"flt.s",   0xA0001053, kFunct7, R::kInt, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpCmp, true, 0, true});
  set(M::kFleS,   {"fle.s",   0xA0000053, kFunct7, R::kInt, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpCmp, true, 0, true});
  set(M::kFclassS,{"fclass.s",0xE0001053, kFunct7Rs2, R::kInt, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpCmp, true, 0, true});
  set(M::kFcvtSW, {"fcvt.s.w", 0xD0000053, kFunct7Rs2Rm, R::kFp, R::kInt, R::kNone, R::kNone, true, I::kNone, E::kFpCvtI2F, true, 0, true});
  set(M::kFcvtSWu,{"fcvt.s.wu",0xD0100053, kFunct7Rs2Rm, R::kFp, R::kInt, R::kNone, R::kNone, true, I::kNone, E::kFpCvtI2F, true, 0, true});
  set(M::kFmvWX,  {"fmv.w.x",  0xF0000053, kFunct7Rs2, R::kFp, R::kInt, R::kNone, R::kNone, true, I::kNone, E::kFpCvtI2F, true, 0, true});

  // RV32D -------------------------------------------------------------------
  set(M::kFld,    {"fld",     0x00003007, kFunct3, R::kFp, R::kInt, R::kNone, R::kNone, false, I::kI, E::kFpLoad, true, 8});
  set(M::kFsd,    {"fsd",     0x00003027, kFunct3, R::kNone, R::kInt, R::kFp, R::kNone, false, I::kS, E::kFpStore, true, 8});
  set(M::kFmaddD, {"fmadd.d", 0x02000043, kFmt, R::kFp, R::kFp, R::kFp, R::kFp, true, I::kNone, E::kFpMac, true});
  set(M::kFmsubD, {"fmsub.d", 0x02000047, kFmt, R::kFp, R::kFp, R::kFp, R::kFp, true, I::kNone, E::kFpMac, true});
  set(M::kFnmsubD,{"fnmsub.d",0x0200004B, kFmt, R::kFp, R::kFp, R::kFp, R::kFp, true, I::kNone, E::kFpMac, true});
  set(M::kFnmaddD,{"fnmadd.d",0x0200004F, kFmt, R::kFp, R::kFp, R::kFp, R::kFp, true, I::kNone, E::kFpMac, true});
  set(M::kFaddD,  {"fadd.d",  0x02000053, kFunct7Rm, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFsubD,  {"fsub.d",  0x0A000053, kFunct7Rm, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFmulD,  {"fmul.d",  0x12000053, kFunct7Rm, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFdivD,  {"fdiv.d",  0x1A000053, kFunct7Rm, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpDiv, true});
  set(M::kFsqrtD, {"fsqrt.d", 0x5A000053, kFunct7Rs2Rm, R::kFp, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpSqrt, true});
  set(M::kFsgnjD, {"fsgnj.d", 0x22000053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFsgnjnD,{"fsgnjn.d",0x22001053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFsgnjxD,{"fsgnjx.d",0x22002053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFminD,  {"fmin.d",  0x2A000053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFmaxD,  {"fmax.d",  0x2A001053, kFunct7, R::kFp, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFcvtSD, {"fcvt.s.d", 0x40100053, kFunct7Rs2Rm, R::kFp, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpMac, true, 0, true});
  set(M::kFcvtDS, {"fcvt.d.s", 0x42000053, kFunct7Rs2Rm, R::kFp, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpMac, true});
  set(M::kFeqD,   {"feq.d",   0xA2002053, kFunct7, R::kInt, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpCmp, true});
  set(M::kFltD,   {"flt.d",   0xA2001053, kFunct7, R::kInt, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpCmp, true});
  set(M::kFleD,   {"fle.d",   0xA2000053, kFunct7, R::kInt, R::kFp, R::kFp, R::kNone, true, I::kNone, E::kFpCmp, true});
  set(M::kFclassD,{"fclass.d",0xE2001053, kFunct7Rs2, R::kInt, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpCmp, true});
  set(M::kFcvtWD, {"fcvt.w.d", 0xC2000053, kFunct7Rs2Rm, R::kInt, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpCvtF2I, true});
  set(M::kFcvtWuD,{"fcvt.wu.d",0xC2100053, kFunct7Rs2Rm, R::kInt, R::kFp, R::kNone, R::kNone, true, I::kNone, E::kFpCvtF2I, true});
  set(M::kFcvtDW, {"fcvt.d.w", 0xD2000053, kFunct7Rs2Rm, R::kFp, R::kInt, R::kNone, R::kNone, true, I::kNone, E::kFpCvtI2F, true});
  set(M::kFcvtDWu,{"fcvt.d.wu",0xD2100053, kFunct7Rs2Rm, R::kFp, R::kInt, R::kNone, R::kNone, true, I::kNone, E::kFpCvtI2F, true});

  // Custom extensions (docs/ISA.md). Fields outside a row's layout are
  // ignored by decode and written as zero by encode. ---------------------------
  // frep.o rs1, imm: repeat the next `imm` FP instructions (rs1)+1 times.
  set(M::kFrepO, {"frep.o", 0x0000000B, kFunct3, R::kNone, R::kInt, R::kNone, R::kNone, false, I::kI, E::kFrep, true});
  set(M::kFrepI, {"frep.i", 0x0000100B, kFunct3, R::kNone, R::kInt, R::kNone, R::kNone, false, I::kI, E::kFrep, true});
  // scfgw rs1, imm: write SSR config word `imm` with the value of rs1.
  set(M::kScfgw, {"scfgw", 0x0000002B, kFunct3, R::kNone, R::kInt, R::kNone, R::kNone, false, I::kI, E::kScfg});
  // scfgr rd, imm: read SSR config word `imm` into rd.
  set(M::kScfgr, {"scfgr", 0x0000102B, kFunct3, R::kInt, R::kNone, R::kNone, R::kNone, false, I::kI, E::kScfg});
  // Xdma: cluster DMA engine, custom-1 funct3 2-7 next to Xssr.
  // dmsrc rs1 / dmdst rs1: latch the source / destination base address.
  set(M::kDmSrc, {"dmsrc", 0x0000202B, kFunct3, R::kNone, R::kInt, R::kNone, R::kNone, false, I::kNone, E::kDma});
  set(M::kDmDst, {"dmdst", 0x0000302B, kFunct3, R::kNone, R::kInt, R::kNone, R::kNone, false, I::kNone, E::kDma});
  // dmstr rs1, rs2: latch 2-D row strides (rs1 = source, rs2 = destination).
  set(M::kDmStr, {"dmstr", 0x0000402B, kFunct3, R::kNone, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kDma});
  // dmcpy rd, rs1: start a 1-D copy of rs1 bytes; rd <- transfer id.
  set(M::kDmCpy, {"dmcpy", 0x0000502B, kFunct3, R::kInt, R::kInt, R::kNone, R::kNone, false, I::kNone, E::kDma});
  // dmcpy2d rd, rs1, rs2: start a 2-D copy, rs2 rows of rs1 bytes.
  set(M::kDmCpy2d, {"dmcpy2d", 0x0000602B, kFunct3, R::kInt, R::kInt, R::kInt, R::kNone, false, I::kNone, E::kDma});
  // dmstat rd, imm: read DMA status word `imm` (0 completed, 1 outstanding).
  set(M::kDmStat, {"dmstat", 0x0000702B, kFunct3, R::kInt, R::kNone, R::kNone, R::kNone, false, I::kI, E::kDma});

  return t;
}

const std::array<MnemonicInfo, kCount> kTable = build_table();

} // namespace

const MnemonicInfo& info(Mnemonic mn) {
  const auto idx = static_cast<usize>(mn);
  return kTable[idx < kCount ? idx : 0];
}

std::string_view name(Mnemonic mn) { return info(mn).name; }

} // namespace sch::isa
