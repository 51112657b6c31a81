#include "asm/assembler.hpp"

#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "asm/lexer.hpp"
#include "common/bitfield.hpp"
#include "isa/csr.hpp"
#include "isa/encode.hpp"
#include "isa/reg.hpp"

namespace sch::assembler {
namespace {

using isa::Instr;
using isa::Mnemonic;

const std::map<std::string, u32, std::less<>>& csr_names() {
  static const std::map<std::string, u32, std::less<>> kMap = {
      {"fflags", isa::csr::kFflags},   {"frm", isa::csr::kFrm},
      {"fcsr", isa::csr::kFcsr},       {"cycle", isa::csr::kCycle},
      {"instret", isa::csr::kInstret}, {"mcycle", isa::csr::kMcycle},
      {"minstret", isa::csr::kMinstret}, {"mhartid", isa::csr::kMhartid},
      {"mnumharts", isa::csr::kMnumharts},
      {"ssr_enable", isa::csr::kSsrEnable},
      {"chain_mask", isa::csr::kChainMask},
  };
  return kMap;
}

const std::map<std::string_view, Mnemonic>& mnemonic_map() {
  static const std::map<std::string_view, Mnemonic>* kMap = [] {
    auto* m = new std::map<std::string_view, Mnemonic>();
    for (u16 i = 1; i < static_cast<u16>(Mnemonic::kCount); ++i) {
      const auto mn = static_cast<Mnemonic>(i);
      m->emplace(isa::name(mn), mn);
    }
    return m;
  }();
  return *kMap;
}

enum class Section { kText, kData };

struct Statement {
  u32 line = 0;
  std::string mnemonic;          // lowercase instruction or pseudo name
  std::vector<Token> operands;   // tokens after the mnemonic (incl. kEnd)
  Addr addr = 0;                 // assigned in pass 1
  u32 n_words = 1;               // expansion size in words
};

struct DataItem {
  u32 line = 0;
  std::string directive;
  std::vector<Token> operands;
  Addr addr = 0;
  u32 n_bytes = 0;
};

[[noreturn]] void fail(u32 line, const std::string& what) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + what);
}

/// Token-stream cursor with operand-level parsing helpers.
class Cursor {
 public:
  Cursor(const std::vector<Token>& toks, u32 line,
         const std::map<std::string, Addr>& symbols)
      : toks_(toks), line_(line), symbols_(symbols) {}

  [[nodiscard]] const Token& peek() const { return toks_[pos_]; }
  [[nodiscard]] bool at_end() const { return peek().kind == TokKind::kEnd; }

  const Token& next() {
    const Token& t = toks_[pos_];
    if (t.kind != TokKind::kEnd) ++pos_;
    return t;
  }

  void expect(TokKind kind, const char* what) {
    if (peek().kind != kind) fail(line_, std::string("expected ") + what);
    next();
  }

  void comma() { expect(TokKind::kComma, "','"); }

  void end() {
    if (!at_end()) fail(line_, "trailing operands: '" + peek().text + "'");
  }

  u8 int_reg() {
    const Token& t = next();
    if (t.kind != TokKind::kIdent) fail(line_, "expected integer register");
    const std::string name = strip_percent(t.text);
    if (auto r = isa::parse_int_reg(name)) return *r;
    // Inline-asm style placeholders (the paper's %[i]) may be bound to a
    // register index through .equ.
    if (auto a = alias(name)) return *a;
    fail(line_, "unknown integer register '" + t.text + "'");
  }

  u8 fp_reg() {
    const Token& t = next();
    if (t.kind != TokKind::kIdent) fail(line_, "expected FP register");
    const std::string name = strip_percent(t.text);
    if (auto r = isa::parse_fp_reg(name)) return *r;
    if (auto a = alias(name)) return *a;
    fail(line_, "unknown FP register '" + t.text + "'");
  }

  /// Constant expression: term (('+'|'-') term)*, term = int | symbol.
  i64 imm_expr() {
    i64 value = term();
    while (peek().kind == TokKind::kPlus || peek().kind == TokKind::kMinus) {
      const bool add = next().kind == TokKind::kPlus;
      const i64 rhs = term();
      value = add ? value + rhs : value - rhs;
    }
    return value;
  }

  /// `imm(reg)` memory operand; the immediate part may be empty: `(reg)`.
  std::pair<u8, i32> mem_operand() {
    i64 imm = 0;
    if (peek().kind != TokKind::kLParen) imm = imm_expr();
    expect(TokKind::kLParen, "'('");
    const u8 base = int_reg();
    expect(TokKind::kRParen, "')'");
    if (!fits_simm(imm, 12)) fail(line_, "memory offset out of range");
    return {base, static_cast<i32>(imm)};
  }

  /// Branch/jump target: label or numeric byte offset.
  i64 target_offset(Addr pc) {
    if (peek().kind == TokKind::kIdent && !is_symbol_free(peek().text)) {
      const std::string name = strip_percent(next().text);
      auto it = symbols_.find(name);
      if (it == symbols_.end()) fail(line_, "undefined label '" + name + "'");
      return static_cast<i64>(it->second) - static_cast<i64>(pc);
    }
    return imm_expr();
  }

  u32 csr_address() {
    if (peek().kind == TokKind::kIdent) {
      const std::string name = strip_percent(next().text);
      auto it = csr_names().find(name);
      if (it == csr_names().end()) fail(line_, "unknown CSR name '" + name + "'");
      return it->second;
    }
    const i64 v = imm_expr();
    if (!fits_uimm(v, 12)) fail(line_, "CSR address out of range");
    return static_cast<u32>(v);
  }

 private:
  // The paper's listings use inline-asm style operands like %[mask]; accept
  // them by stripping the wrapper and treating the inner name as-is.
  static std::string strip_percent(const std::string& s) {
    if (s.size() >= 3 && s[0] == '%' && s[1] == '[' && s.back() == ']') {
      return s.substr(2, s.size() - 3);
    }
    return s;
  }

  bool is_symbol_free(const std::string& text) const {
    // Idents that parse as registers are not labels.
    const std::string s = strip_percent(text);
    return isa::parse_int_reg(s).has_value() || isa::parse_fp_reg(s).has_value();
  }

  std::optional<u8> alias(const std::string& name) const {
    auto it = symbols_.find(name);
    if (it == symbols_.end() || it->second >= 32) return std::nullopt;
    return static_cast<u8>(it->second);
  }

  i64 term() {
    const Token& t = next();
    if (t.kind == TokKind::kInt) return t.ival;
    if (t.kind == TokKind::kMinus) {
      const Token& u = next();
      if (u.kind != TokKind::kInt) fail(line_, "expected integer after '-'");
      return -u.ival;
    }
    if (t.kind == TokKind::kIdent) {
      const std::string name = strip_percent(t.text);
      auto it = symbols_.find(name);
      if (it == symbols_.end()) fail(line_, "undefined symbol '" + name + "'");
      return static_cast<i64>(it->second);
    }
    fail(line_, "expected immediate, got '" + t.text + "'");
  }

  const std::vector<Token>& toks_;
  u32 pos_ = 0;
  u32 line_;
  const std::map<std::string, Addr>& symbols_;
};

/// Expansion size (in words) of an instruction or pseudo, for pass 1.
/// `symbols` holds .equ constants defined so far (li needs the value).
u32 size_of(const std::string& mn, const std::vector<Token>& ops, u32 line,
            const std::map<std::string, Addr>& equs) {
  if (mn == "li") {
    // li rd, imm -- 1 word if the constant fits 12 bits, else up to 2.
    Cursor c(ops, line, equs);
    c.int_reg();
    c.comma();
    const i64 v = c.imm_expr();
    if (fits_simm(v, 12)) return 1;
    const i32 lo = sign_extend(static_cast<u32>(v) & 0xFFF, 12);
    return lo == 0 ? 1 : 2;
  }
  if (mn == "la") return 2;
  return 1;
}

class AssemblerImpl {
 public:
  explicit AssemblerImpl(const Options& opt) {
    prog_.text_base = opt.text_base;
    prog_.data_base = opt.data_base;
  }

  Program run(std::string_view source) {
    pass1(source);
    pass2();
    prog_.predecode();
    return std::move(prog_);
  }

 private:
  void pass1(std::string_view source) {
    u32 line_no = 0;
    Addr text_pc = prog_.text_base;
    Addr data_pc = prog_.data_base;
    Section section = Section::kText;

    usize start = 0;
    while (start <= source.size()) {
      const usize nl = source.find('\n', start);
      const std::string_view line =
          source.substr(start, nl == std::string_view::npos ? std::string_view::npos
                                                            : nl - start);
      ++line_no;
      start = nl == std::string_view::npos ? source.size() + 1 : nl + 1;

      std::vector<Token> toks;
      try {
        toks = tokenize_line(line);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      usize pos = 0;

      // Leading labels: ident ':'.
      while (toks[pos].kind == TokKind::kIdent && toks[pos + 1].kind == TokKind::kColon) {
        define_symbol(toks[pos].text, section == Section::kText ? text_pc : data_pc, line_no);
        pos += 2;
      }
      if (toks[pos].kind == TokKind::kEnd) continue;

      if (toks[pos].kind == TokKind::kDirective) {
        const std::string dir = toks[pos].text;
        std::vector<Token> rest(toks.begin() + static_cast<long>(pos) + 1, toks.end());
        if (dir == "text") { section = Section::kText; continue; }
        if (dir == "data") { section = Section::kData; continue; }
        if (dir == "global" || dir == "globl" || dir == "section" || dir == "option") continue;
        if (dir == "equ" || dir == "set") {
          Cursor c(rest, line_no, prog_.symbols);
          const Token& name = c.next();
          if (name.kind != TokKind::kIdent) fail(line_no, ".equ: expected name");
          c.comma();
          const i64 v = c.imm_expr();
          c.end();
          define_symbol(name.text, static_cast<Addr>(v), line_no);
          continue;
        }
        if (section != Section::kData) fail(line_no, "data directive outside .data: ." + dir);
        DataItem item{line_no, dir, rest, data_pc, 0};
        item.n_bytes = data_item_size(item, data_pc);
        data_pc += item.n_bytes;
        data_items_.push_back(std::move(item));
        continue;
      }

      if (toks[pos].kind != TokKind::kIdent) {
        fail(line_no, "expected instruction, got '" + toks[pos].text + "'");
      }
      if (section != Section::kText) fail(line_no, "instruction outside .text");

      Statement st;
      st.line = line_no;
      st.mnemonic = toks[pos].text;
      st.operands.assign(toks.begin() + static_cast<long>(pos) + 1, toks.end());
      st.addr = text_pc;
      st.n_words = size_of(st.mnemonic, st.operands, line_no, prog_.symbols);
      text_pc += st.n_words * 4;
      statements_.push_back(std::move(st));
    }
  }

  void pass2() {
    // Materialize data items first so text encoding may reference data symbols
    // (already defined in pass 1 anyway).
    for (const DataItem& item : data_items_) encode_data(item);
    for (const Statement& st : statements_) {
      const usize before = prog_.words.size();
      encode_statement(st);
      const usize emitted = prog_.words.size() - before;
      if (emitted != st.n_words) {
        fail(st.line, "internal: size mismatch for '" + st.mnemonic + "'");
      }
    }
  }

  void define_symbol(const std::string& name, Addr value, u32 line) {
    if (prog_.symbols.count(name) != 0) fail(line, "duplicate symbol '" + name + "'");
    prog_.symbols[name] = value;
  }

  u32 data_item_size(const DataItem& item, Addr pc) const {
    Cursor c(item.operands, item.line, prog_.symbols);
    const std::string& d = item.directive;
    auto count_list = [&]() {
      u32 n = 1;
      for (const Token& t : item.operands) {
        if (t.kind == TokKind::kComma) ++n;
      }
      return n;
    };
    if (d == "word") return 4 * count_list();
    if (d == "dword") return 8 * count_list();
    if (d == "half") return 2 * count_list();
    if (d == "byte") return 1 * count_list();
    if (d == "double") return 8 * count_list();
    if (d == "float") return 4 * count_list();
    if (d == "zero" || d == "space") {
      const i64 n = c.imm_expr();
      if (n < 0) fail(item.line, ".zero: negative size");
      return static_cast<u32>(n);
    }
    if (d == "align") {
      const i64 p = c.imm_expr();
      if (p < 0 || p > 16) fail(item.line, ".align: bad power");
      const u64 a = u64{1} << p;
      return static_cast<u32>(align_up(pc, a) - pc);
    }
    if (d == "balign") {
      const i64 a = c.imm_expr();
      if (a <= 0 || !is_pow2(static_cast<u64>(a))) fail(item.line, ".balign: bad alignment");
      return static_cast<u32>(align_up(pc, static_cast<u64>(a)) - pc);
    }
    fail(item.line, "unknown directive '." + d + "'");
  }

  void push_data_bytes(u64 v, u32 nbytes) {
    for (u32 i = 0; i < nbytes; ++i) prog_.data.push_back(static_cast<u8>(v >> (8 * i)));
  }

  void encode_data(const DataItem& item) {
    // Data image is contiguous from data_base; pad to this item's address.
    const Addr want = item.addr;
    const Addr have = prog_.data_base + static_cast<Addr>(prog_.data.size());
    for (Addr a = have; a < want; ++a) prog_.data.push_back(0);

    const std::string& d = item.directive;
    Cursor c(item.operands, item.line, prog_.symbols);
    if (d == "zero" || d == "space") {
      const i64 n = c.imm_expr();
      c.end();
      for (i64 i = 0; i < n; ++i) prog_.data.push_back(0);
      return;
    }
    if (d == "align" || d == "balign") {
      for (u32 i = 0; i < item.n_bytes; ++i) prog_.data.push_back(0);
      return;
    }
    const u32 elem = d == "word" ? 4 : d == "dword" ? 8 : d == "half" ? 2 :
                     d == "byte" ? 1 : d == "double" ? 8 : d == "float" ? 4 : 0;
    const bool is_fp = d == "double" || d == "float";
    while (true) {
      if (is_fp) {
        const Token& t = c.peek();
        double v = 0;
        if (t.kind == TokKind::kFloat) { v = t.fval; c.next(); }
        else if (t.kind == TokKind::kMinus) {
          c.next();
          const Token& u = c.next();
          if (u.kind == TokKind::kFloat) v = -u.fval;
          else if (u.kind == TokKind::kInt) v = -static_cast<double>(u.ival);
          else fail(item.line, "expected numeric literal");
        } else if (t.kind == TokKind::kInt) { v = static_cast<double>(t.ival); c.next(); }
        else fail(item.line, "expected numeric literal");
        if (d == "double") {
          u64 b = 0;
          std::memcpy(&b, &v, 8);
          push_data_bytes(b, 8);
        } else {
          const float f = static_cast<float>(v);
          u32 b = 0;
          std::memcpy(&b, &f, 4);
          push_data_bytes(b, 4);
        }
      } else {
        const i64 v = c.imm_expr();
        push_data_bytes(static_cast<u64>(v), elem);
      }
      if (c.at_end()) break;
      c.comma();
    }
  }

  void emit(Instr in, u32 line) {
    prog_.instrs.push_back(in);
    prog_.words.push_back(in.raw);
    prog_.source_lines.push_back(line);
  }

  void encode_statement(const Statement& st) {
    const std::string& mn = st.mnemonic;
    Cursor c(st.operands, st.line, prog_.symbols);
    const u32 line = st.line;
    const Addr pc = st.addr;

    // --- pseudo-instructions -------------------------------------------
    if (mn == "nop") { c.end(); emit(isa::make_i(Mnemonic::kAddi, 0, 0, 0), line); return; }
    if (mn == "mv") {
      const u8 rd = c.int_reg(); c.comma(); const u8 rs = c.int_reg(); c.end();
      emit(isa::make_i(Mnemonic::kAddi, rd, rs, 0), line); return;
    }
    if (mn == "not") {
      const u8 rd = c.int_reg(); c.comma(); const u8 rs = c.int_reg(); c.end();
      emit(isa::make_i(Mnemonic::kXori, rd, rs, -1), line); return;
    }
    if (mn == "neg") {
      const u8 rd = c.int_reg(); c.comma(); const u8 rs = c.int_reg(); c.end();
      emit(isa::make_r(Mnemonic::kSub, rd, 0, rs), line); return;
    }
    if (mn == "li") {
      const u8 rd = c.int_reg(); c.comma(); const i64 v = c.imm_expr(); c.end();
      if (fits_simm(v, 12)) { emit(isa::make_i(Mnemonic::kAddi, rd, 0, static_cast<i32>(v)), line); return; }
      const i32 lo = sign_extend(static_cast<u32>(v) & 0xFFF, 12);
      const i32 hi = static_cast<i32>((static_cast<u32>(static_cast<i32>(v) - lo) >> 12) & 0xFFFFF);
      emit(isa::make_u(Mnemonic::kLui, rd, hi), line);
      if (lo != 0) emit(isa::make_i(Mnemonic::kAddi, rd, rd, lo), line);
      return;
    }
    if (mn == "la") {
      const u8 rd = c.int_reg(); c.comma(); const i64 v = c.imm_expr(); c.end();
      const i32 lo = sign_extend(static_cast<u32>(v) & 0xFFF, 12);
      const i32 hi = static_cast<i32>((static_cast<u32>(static_cast<i32>(v) - lo) >> 12) & 0xFFFFF);
      emit(isa::make_u(Mnemonic::kLui, rd, hi), line);
      emit(isa::make_i(Mnemonic::kAddi, rd, rd, lo), line);
      return;
    }
    if (mn == "j") {
      const i64 off = c.target_offset(pc); c.end();
      emit(isa::make_j(Mnemonic::kJal, 0, static_cast<i32>(off)), line); return;
    }
    if (mn == "jr") {
      const u8 rs = c.int_reg(); c.end();
      emit(isa::make_i(Mnemonic::kJalr, 0, rs, 0), line); return;
    }
    if (mn == "ret") { c.end(); emit(isa::make_i(Mnemonic::kJalr, 0, isa::kRa, 0), line); return; }
    if (mn == "call") {
      const i64 off = c.target_offset(pc); c.end();
      emit(isa::make_j(Mnemonic::kJal, isa::kRa, static_cast<i32>(off)), line); return;
    }
    if (mn == "beqz" || mn == "bnez" || mn == "bltz" || mn == "bgez" ||
        mn == "blez" || mn == "bgtz") {
      const u8 rs = c.int_reg(); c.comma(); const i64 off = c.target_offset(pc); c.end();
      const i32 o = static_cast<i32>(off);
      if (mn == "beqz") emit(isa::make_b(Mnemonic::kBeq, rs, 0, o), line);
      else if (mn == "bnez") emit(isa::make_b(Mnemonic::kBne, rs, 0, o), line);
      else if (mn == "bltz") emit(isa::make_b(Mnemonic::kBlt, rs, 0, o), line);
      else if (mn == "bgez") emit(isa::make_b(Mnemonic::kBge, rs, 0, o), line);
      else if (mn == "blez") emit(isa::make_b(Mnemonic::kBge, 0, rs, o), line);
      else emit(isa::make_b(Mnemonic::kBlt, 0, rs, o), line);
      return;
    }
    if (mn == "bgt" || mn == "ble" || mn == "bgtu" || mn == "bleu") {
      const u8 a = c.int_reg(); c.comma(); const u8 b = c.int_reg(); c.comma();
      const i64 off = c.target_offset(pc); c.end();
      const i32 o = static_cast<i32>(off);
      if (mn == "bgt") emit(isa::make_b(Mnemonic::kBlt, b, a, o), line);
      else if (mn == "ble") emit(isa::make_b(Mnemonic::kBge, b, a, o), line);
      else if (mn == "bgtu") emit(isa::make_b(Mnemonic::kBltu, b, a, o), line);
      else emit(isa::make_b(Mnemonic::kBgeu, b, a, o), line);
      return;
    }
    if (mn == "bneq") { // paper's Fig. 1 spelling of bne
      const u8 a = c.int_reg(); c.comma(); const u8 b = c.int_reg(); c.comma();
      const i64 off = c.target_offset(pc); c.end();
      emit(isa::make_b(Mnemonic::kBne, a, b, static_cast<i32>(off)), line);
      return;
    }
    if (mn == "fmv.d" || mn == "fabs.d" || mn == "fneg.d" || mn == "fmv.s" ||
        mn == "fabs.s" || mn == "fneg.s") {
      const u8 rd = c.fp_reg(); c.comma(); const u8 rs = c.fp_reg(); c.end();
      const bool dbl = mn[mn.size() - 1] == 'd';
      Mnemonic m;
      if (mn.substr(1, 2) == "mv") m = dbl ? Mnemonic::kFsgnjD : Mnemonic::kFsgnjS;
      else if (mn.substr(1, 3) == "abs") m = dbl ? Mnemonic::kFsgnjxD : Mnemonic::kFsgnjxS;
      else m = dbl ? Mnemonic::kFsgnjnD : Mnemonic::kFsgnjnS;
      emit(isa::make_r(m, rd, rs, rs), line);
      return;
    }
    if (mn == "csrr") {
      const u8 rd = c.int_reg(); c.comma(); const u32 a = c.csr_address(); c.end();
      emit(isa::make_csr(Mnemonic::kCsrrs, rd, 0, a), line); return;
    }
    if (mn == "csrw" || mn == "csrs" || mn == "csrc") {
      const u32 a = c.csr_address(); c.comma(); const u8 rs = c.int_reg(); c.end();
      const Mnemonic m = mn == "csrw" ? Mnemonic::kCsrrw : mn == "csrs" ? Mnemonic::kCsrrs : Mnemonic::kCsrrc;
      emit(isa::make_csr(m, 0, rs, a), line); return;
    }
    if (mn == "csrwi" || mn == "csrsi" || mn == "csrci") {
      const u32 a = c.csr_address(); c.comma(); const i64 z = c.imm_expr(); c.end();
      if (!fits_uimm(z, 5)) fail(line, "zimm out of range");
      const Mnemonic m = mn == "csrwi" ? Mnemonic::kCsrrwi : mn == "csrsi" ? Mnemonic::kCsrrsi : Mnemonic::kCsrrci;
      emit(isa::make_csr(m, 0, static_cast<u8>(z), a), line); return;
    }

    // --- real instructions, parsed by their ISA table row ------------------
    auto it = mnemonic_map().find(mn);
    if (it == mnemonic_map().end()) fail(line, "unknown mnemonic '" + mn + "'");
    Instr in;
    in.mn = it->second;
    const isa::MnemonicInfo& mi = isa::info(in.mn);

    // Operands in rd, rs1, rs2, rs3 order, then the immediate. Zicsr puts the
    // CSR after rd; loads, stores and jalr write rs1 as the base, imm(rs1).
    const bool base_offset = isa::has_base_offset(mi);
    bool first = true;
    auto operand = [&] {
      if (!first) c.comma();
      first = false;
    };
    auto reg = [&](isa::RegClass cls, u8& field) {
      if (cls != isa::RegClass::kInt && cls != isa::RegClass::kFp) return;
      operand();
      field = cls == isa::RegClass::kFp ? c.fp_reg() : c.int_reg();
    };
    i64 imm = 0;
    i64 zimm = 0;
    // jal's rd is optional: "jal target" links ra.
    if (mi.imm == isa::ImmKind::kJ && !(c.peek().kind == TokKind::kIdent &&
                                        isa::parse_int_reg(c.peek().text).has_value())) {
      in.rd = isa::kRa;
    } else {
      reg(mi.rd, in.rd);
    }
    if (mi.imm == isa::ImmKind::kCsr) { operand(); imm = c.csr_address(); }
    if (mi.rs1 == isa::RegClass::kZimm) { operand(); zimm = c.imm_expr(); }
    if (!base_offset) reg(mi.rs1, in.rs1);
    reg(mi.rs2, in.rs2);
    reg(mi.rs3, in.rs3);
    if (base_offset) {
      operand();
      if (in.mn == Mnemonic::kJalr && c.peek().kind == TokKind::kIdent) {
        // jalr also takes "rd, rs1[, imm]".
        in.rs1 = c.int_reg();
        if (!c.at_end()) { c.comma(); imm = c.imm_expr(); }
        if (!fits_simm(imm, 12)) fail(line, "immediate out of range");
      } else {
        const auto [base, offset] = c.mem_operand();
        in.rs1 = base;
        imm = offset;
      }
    } else if (mi.imm == isa::ImmKind::kB || mi.imm == isa::ImmKind::kJ) {
      operand();
      imm = c.target_offset(pc);
    } else if (mi.imm != isa::ImmKind::kNone && mi.imm != isa::ImmKind::kCsr) {
      operand();
      imm = c.imm_expr();
    }
    c.end();

    if (!base_offset) {
      switch (mi.imm) {
        case isa::ImmKind::kI:
          if (!fits_simm(imm, 12)) fail(line, "immediate out of range");
          break;
        case isa::ImmKind::kShamt:
          if (!fits_uimm(imm, 5)) fail(line, "immediate out of range");
          break;
        case isa::ImmKind::kU:
          if (!fits_uimm(imm, 20)) fail(line, "20-bit immediate out of range");
          break;
        case isa::ImmKind::kB:
          if (!fits_simm(imm, 13)) fail(line, "branch target out of range");
          break;
        case isa::ImmKind::kJ:
          if (!fits_simm(imm, 21)) fail(line, "jump target out of range");
          break;
        default:
          break;
      }
    }
    if (mi.rs1 == isa::RegClass::kZimm) {
      if (!fits_uimm(zimm, 5)) fail(line, "zimm out of range");
      in.rs1 = static_cast<u8>(zimm);
    }
    in.imm = static_cast<i32>(imm);
    in.raw = isa::encode(in);
    emit(in, line);
  }

  Program prog_;
  std::vector<Statement> statements_;
  std::vector<DataItem> data_items_;
};

} // namespace

Result<Program> assemble(std::string_view source, const Options& options) {
  try {
    AssemblerImpl impl(options);
    return impl.run(source);
  } catch (const std::invalid_argument& e) {
    return Status::error(e.what());
  } catch (const std::out_of_range& e) {
    return Status::error(e.what());
  }
}

} // namespace sch::assembler
