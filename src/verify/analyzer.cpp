// Abstract interpretation core of the static chain-graph verifier.
//
// One `HartAnalyzer` runs a worklist fixpoint over a predecoded program with
// a constant-propagation lattice on the integer registers (mhartid and
// mnumharts pinned to the hart being analyzed, x0 pinned to zero), exact
// integer/branch semantics borrowed from exec::int_op / exec::branch_taken,
// chain-FIFO occupancy per architectural FP register, abstract SSR
// configuration blocks with affine window resolution, and latched DMA
// descriptor state. States merge at instruction granularity (join = drop to
// unknown on disagreement), so loops with data-dependent trip counts -- dmstat
// polls, barrier spins, group loops -- converge in a handful of visits
// instead of being unrolled. FREP bodies are folded closed-form: the body is
// walked once and its per-register token delta and prefix extremes are
// extrapolated across the (possibly unknown) repetition count.
//
// Memory effects (scalar accesses with statically known addresses, armed SSR
// windows, DMA descriptor windows) accumulate into per-hart footprints that
// analyze() intersects pairwise for cross-hart races, with two deliberate
// suppressions: identical replicas that never read mhartid touch identical
// addresses in the same order (benign by the cluster's determinism), and
// overlaps inside a kernel-declared `shared` region (barriers) are by design.
#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "isa/csr.hpp"
#include "isa/reg.hpp"
#include "iss/exec_semantics.hpp"
#include "ssr/ssr_config.hpp"
#include "verify/verify.hpp"

namespace sch::verify {
namespace {

using isa::ExecHandler;
using isa::Instr;
using isa::Mnemonic;
using isa::PredecodedInstr;

/// Constant-propagation value: a known 32-bit constant or unknown ("top").
struct AbsVal {
  bool known = false;
  u32 v = 0;
  static AbsVal top() { return {}; }
  static AbsVal c(u32 x) { return {true, x}; }
  bool operator==(const AbsVal&) const = default;
};

AbsVal join(AbsVal a, AbsVal b) {
  return (a.known && b.known && a.v == b.v) ? a : AbsVal::top();
}

enum class Dir : u8 { kNone, kRead, kWrite, kTop };

/// Armed state of one streamer: direction plus the resolved byte window
/// [lo, hi) when every contributing config value was a known constant.
struct Stream {
  Dir dir = Dir::kNone;
  bool indirect = false;
  bool window_known = false;
  u64 lo = 0;
  u64 hi = 0;
  bool operator==(const Stream&) const = default;
};

/// Abstract mirror of one streamer's scfgw-visible configuration block.
struct StreamCfg {
  AbsVal repeat;
  AbsVal idx_cfg;
  AbsVal idx_base;
  std::array<AbsVal, ssr::kMaxDims> bounds{};
  std::array<AbsVal, ssr::kMaxDims> strides{};
  bool operator==(const StreamCfg&) const = default;
};

/// Per-instruction entry state of the abstract machine.
struct State {
  std::array<AbsVal, 32> x{};
  AbsVal ssr_en = AbsVal::c(0);
  AbsVal chain_mask = AbsVal::c(0);
  /// Chain-FIFO occupancy per FP register, clamped to capacity.
  std::array<u8, 32> lvl{};
  std::array<StreamCfg, ssr::kNumSsrs> cfg{};
  std::array<Stream, ssr::kNumSsrs> ssr{};
  AbsVal dma_src = AbsVal::c(0);
  AbsVal dma_dst = AbsVal::c(0);
  AbsVal dma_sstr = AbsVal::c(0);
  AbsVal dma_dstr = AbsVal::c(0);
  bool operator==(const State&) const = default;
};

/// One recorded memory access window of a hart (scalar, stream, or DMA).
struct FootRec {
  u64 lo = 0;
  u64 hi = 0;
  bool write = false;
  u32 idx = 0;       // instruction index that established the window
  const char* what;  // "store", "ssr read stream", "dma write", ...
};

struct HartFootprint {
  std::vector<FootRec> recs;
  bool overflow = false;  // capped; cross-hart verdicts are best-effort
};

constexpr u32 kMaxFootRecs = 4096;
/// Hard ceiling on abstract steps; the instruction-granularity merge makes
/// real programs converge in a few visits per instruction, so only a
/// pathological input can get near this.
constexpr u32 kMaxSteps = 2'000'000;

bool overlaps(u64 alo, u64 ahi, u64 blo, u64 bhi) {
  return alo < bhi && blo < ahi;
}

std::string hex(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

/// "[0x10000000,0x10000100) (x[] in tcdm)" -- window plus any declared
/// kernel regions it touches plus the address-map region.
std::string describe_window(u64 lo, u64 hi,
                            const std::vector<MemRegion>* regions) {
  std::string out = "[" + hex(lo) + "," + hex(hi) + ")";
  std::string names;
  if (regions != nullptr) {
    for (const MemRegion& r : *regions) {
      if (overlaps(lo, hi, r.base, r.base + r.bytes)) {
        if (!names.empty()) names += "+";
        names += r.name;
      }
    }
  }
  const char* map = "unmapped";
  if (lo >= memmap::kTcdmBase && hi <= memmap::kTcdmBase + memmap::kTcdmSize) {
    map = "tcdm";
  } else if (lo >= memmap::kMainBase &&
             hi <= memmap::kMainBase + memmap::kMainSize) {
    map = "main";
  }
  out += " (";
  if (!names.empty()) out += names + " in ";
  out += map;
  out += ")";
  return out;
}

bool window_mapped(u64 lo, u64 hi) {
  if (lo >= hi) return false;
  if (lo >= memmap::kTcdmBase && hi <= memmap::kTcdmBase + memmap::kTcdmSize) {
    return true;
  }
  return lo >= memmap::kMainBase && hi <= memmap::kMainBase + memmap::kMainSize;
}

/// Relative chain-FIFO trace of one register across one FREP body iteration.
struct ChainTrace {
  i64 cur = 0;
  i64 minp = 0;
  i64 maxp = 0;
  bool used = false;
};

/// Deferred producer-saturation event inside an FREP body (evaluated once
/// the entry level and repetition count are known).
struct SatEvent {
  u32 idx = 0;
  u8 reg = 0;
  i64 pre_rel = 0;  // level relative to iteration entry, before the push
};

/// Collects chain effects of an FREP body so they can be extrapolated across
/// the repetition count instead of unrolled.
struct FrepTracker {
  std::array<ChainTrace, 32> t{};
  std::vector<SatEvent> sat;
};

class HartAnalyzer {
 public:
  HartAnalyzer(const Program& p, const sim::SimConfig& cfg,
               const std::vector<MemRegion>* regions, u32 hart, u32 nharts,
               Report& rep, HartFootprint& foot)
      : p_(p), cfg_(cfg), regions_(regions), hart_(hart), nharts_(nharts),
        cap_(cfg.fpu_depth + 1), rep_(rep), foot_(foot) {}

  void run() {
    const u32 n = static_cast<u32>(p_.instrs.size());
    if (n == 0) return;
    in_.assign(n, std::nullopt);
    State init;
    for (auto& r : init.x) r = AbsVal::c(0);
    structural_frep_scan();
    merge_into(0, init, /*report_imbalance=*/false);
    u32 steps = 0;
    while (!wl_.empty()) {
      if (++steps > kMaxSteps) {
        emit(FindingKind::kAnalysisLimit, Severity::kWarning, wl_.front(), -1,
             "abstract-interpretation step budget exhausted; remaining paths "
             "unanalyzed");
        rep_.complete = false;
        return;
      }
      const u32 i = wl_.front();
      wl_.pop_front();
      on_wl_[i] = false;
      step(i);
    }
  }

 private:
  // --- findings -------------------------------------------------------------

  void emit(FindingKind kind, Severity sev, u32 idx, i32 reg,
            std::string msg) {
    // One finding per (kind, site, register); the gated-saturation diagnosis
    // additionally collapses to one per register so an unrolled producer run
    // reads as a single story.
    const u32 site = kind == FindingKind::kChainGatedSaturation ? 0 : idx;
    if (!emitted_.insert({static_cast<u8>(kind), site, reg}).second) return;
    Finding f;
    f.kind = kind;
    f.severity = sev;
    f.hart = static_cast<i32>(hart_);
    f.pc = idx < p_.instrs.size()
               ? static_cast<i64>(p_.text_base) + static_cast<i64>(idx) * 4
               : -1;
    f.reg = reg;
    f.message = std::move(msg);
    rep_.findings.push_back(std::move(f));
  }

  // --- footprints -----------------------------------------------------------

  void record_foot(u64 lo, u64 hi, bool write, u32 idx, const char* what) {
    if (lo >= hi) return;
    if (foot_.recs.size() >= kMaxFootRecs) {
      if (!foot_.overflow) {
        foot_.overflow = true;
        emit(FindingKind::kAnalysisLimit, Severity::kWarning, idx, -1,
             "memory-footprint table full; cross-hart race checking is "
             "best-effort past this point");
      }
      return;
    }
    if (foot_seen_.insert({lo, hi, write}).second) {
      foot_.recs.push_back({lo, hi, write, idx, what});
    }
  }

  // --- state plumbing -------------------------------------------------------

  static AbsVal rd_x(const State& s, u8 r) {
    return r == 0 ? AbsVal::c(0) : s.x[r];
  }
  static void wr_x(State& s, u8 r, AbsVal v) {
    if (r != 0) s.x[r] = v;
  }

  void merge_into(u32 idx, const State& s, bool report_imbalance = true) {
    if (!in_[idx].has_value()) {
      in_[idx] = s;
    } else {
      State& cur = *in_[idx];
      State merged = cur;
      for (u32 r = 0; r < 32; ++r) merged.x[r] = join(cur.x[r], s.x[r]);
      merged.ssr_en = join(cur.ssr_en, s.ssr_en);
      merged.chain_mask = join(cur.chain_mask, s.chain_mask);
      for (u32 r = 0; r < 32; ++r) {
        if (cur.lvl[r] != s.lvl[r]) {
          if (report_imbalance && chain_enabled(merged, static_cast<u8>(r))) {
            emit(FindingKind::kChainPathImbalance, Severity::kError, idx,
                 static_cast<i32>(r),
                 std::string("converging paths disagree on the chain-FIFO "
                             "occupancy of ") +
                     std::string(isa::fp_reg_name(static_cast<u8>(r))) + " (" +
                     std::to_string(cur.lvl[r]) + " vs " +
                     std::to_string(s.lvl[r]) +
                     " in-flight values): token balance depends on which "
                     "path executed");
          }
          merged.lvl[r] = std::max(cur.lvl[r], s.lvl[r]);
        }
      }
      for (u32 k = 0; k < ssr::kNumSsrs; ++k) {
        StreamCfg& mc = merged.cfg[k];
        const StreamCfg& sc = s.cfg[k];
        mc.repeat = join(mc.repeat, sc.repeat);
        mc.idx_cfg = join(mc.idx_cfg, sc.idx_cfg);
        mc.idx_base = join(mc.idx_base, sc.idx_base);
        for (u32 d = 0; d < ssr::kMaxDims; ++d) {
          mc.bounds[d] = join(mc.bounds[d], sc.bounds[d]);
          mc.strides[d] = join(mc.strides[d], sc.strides[d]);
        }
        if (!(merged.ssr[k] == s.ssr[k])) {
          Stream& ms = merged.ssr[k];
          if (ms.dir != s.ssr[k].dir) ms.dir = Dir::kTop;
          ms.window_known = false;
          ms.indirect = ms.indirect || s.ssr[k].indirect;
        }
      }
      merged.dma_src = join(cur.dma_src, s.dma_src);
      merged.dma_dst = join(cur.dma_dst, s.dma_dst);
      merged.dma_sstr = join(cur.dma_sstr, s.dma_sstr);
      merged.dma_dstr = join(cur.dma_dstr, s.dma_dstr);
      if (merged == cur) return;  // no change: fixpoint here
      cur = merged;
    }
    if (!on_wl_[idx]) {
      on_wl_[idx] = true;
      wl_.push_back(idx);
    }
  }

  // --- chain helpers --------------------------------------------------------

  bool chain_enabled(const State& s, u8 r) {
    if (chain_unknown_) return false;
    return s.chain_mask.known && ((s.chain_mask.v >> r) & 1u) != 0;
  }

  void chain_unknown_now(u32 idx) {
    if (chain_unknown_) return;
    chain_unknown_ = true;
    rep_.complete = false;
    emit(FindingKind::kAnalysisLimit, Severity::kWarning, idx, -1,
         "chain mask became statically unknown; chain token-balance checks "
         "disabled from here on");
  }

  std::string freg(u8 r) { return std::string(isa::fp_reg_name(r)); }

  // --- SSR helpers ----------------------------------------------------------

  /// Resolve the byte window of a stream armed with `dims` dimensions from
  /// base pointer `base`. Affine streams walk base + sum(stride_d * i_d);
  /// indirect streams walk the *index array* (the gathered data addresses
  /// are data-dependent and stay unknown -- a documented analysis limit).
  Stream resolve_window(const State& s, u32 k, u32 dims, AbsVal base,
                        Dir dir) {
    Stream out;
    out.dir = dir;
    const StreamCfg& c = s.cfg[k];
    out.indirect = c.idx_cfg.known && ((c.idx_cfg.v >> 16) & 1u) != 0;
    // In indirect mode the affine generator walks the *index array* (base
    // comes from the rptr/wptr write as usual); each fetched index is scaled
    // and added to idx_base to form the data address
    // (FunctionalStream::current_addr). The window below is therefore the
    // index-array window; the gathered data addresses are data-dependent and
    // stay unknown -- a documented analysis limit.
    const u64 elem = out.indirect ? 1ull << (c.idx_cfg.v & 0x3u) : 8;  // f64
    if (!base.known) return out;
    // The address generator uses *relative* stride semantics: a dim-d wrap
    // does not rewind the inner dims' travel, it only adds stride_d. The
    // pointer offset at logical index (i0..i3) is therefore sum(i_d * A_d)
    // with the effective per-tick advance A_d = stride_d +
    // sum_{e<d} bound_e * A_e (one dim-d tick follows a complete sweep of
    // the inner dims, wraps included; see AddrGen::advance).
    i64 lo = 0;
    i64 hi = 0;
    i64 inner_travel = 0;  // sum_{e<d} bound_e * A_e
    for (u32 d = 0; d < dims; ++d) {
      if (!c.bounds[d].known || !c.strides[d].known) return out;
      const i64 stride = static_cast<i64>(static_cast<i32>(c.strides[d].v));
      const i64 ticks = static_cast<i64>(c.bounds[d].v);
      const i64 advance = stride + inner_travel;  // A_d
      const i64 span = ticks * advance;
      if (span >= 0) {
        hi += span;
      } else {
        lo += span;
      }
      inner_travel += span;
    }
    out.window_known = true;
    out.lo = static_cast<u64>(static_cast<i64>(base.v) + lo);
    out.hi = static_cast<u64>(static_cast<i64>(base.v) + hi) + elem;
    return out;
  }

  /// Whether a stream's recorded window is written. An indirect stream's
  /// window covers its *index array*, which is only ever read -- the
  /// scattered/gathered data addresses are unknown.
  static bool window_written(const Stream& w) {
    return w.dir == Dir::kWrite && !w.indirect;
  }

  void arm_stream(State& s, u32 k, u32 dims, AbsVal base, Dir dir, u32 idx) {
    Stream w = resolve_window(s, k, dims, base, dir);
    const char* rw = window_written(w) ? "write" : "read";
    if (w.window_known) {
      if (!window_mapped(w.lo, w.hi)) {
        emit(FindingKind::kSsrOutOfBounds, Severity::kError, idx,
             static_cast<i32>(k),
             "ssr" + std::to_string(k) + " " + rw +
                 " stream window " + describe_window(w.lo, w.hi, regions_) +
                 " is not contained in a single mapped region "
                 "(tcdm " + describe_window(memmap::kTcdmBase,
                                            memmap::kTcdmBase +
                                                memmap::kTcdmSize, nullptr) +
                 ", main " + describe_window(memmap::kMainBase,
                                             memmap::kMainBase +
                                                 memmap::kMainSize, nullptr) +
                 ")");
      }
      for (u32 o = 0; o < ssr::kNumSsrs; ++o) {
        if (o == k) continue;
        const Stream& other = s.ssr[o];
        if (other.dir != Dir::kRead && other.dir != Dir::kWrite) continue;
        if (!other.window_known) continue;
        if (!window_written(other) && !window_written(w)) continue;
        if (overlaps(w.lo, w.hi, other.lo, other.hi)) {
          emit(FindingKind::kSsrOverlap, Severity::kError, idx,
               static_cast<i32>(k),
               "ssr" + std::to_string(k) + " " + rw +
                   " window " + describe_window(w.lo, w.hi, regions_) +
                   " overlaps concurrently armed ssr" + std::to_string(o) +
                   " " + (window_written(other) ? "write" : "read") +
                   " window " + describe_window(other.lo, other.hi, regions_) +
                   ": element order between the streams is timing-defined");
        }
      }
      record_foot(w.lo, w.hi, window_written(w), idx,
                  window_written(w) ? "ssr write stream" : "ssr read stream");
    }
    s.ssr[k] = w;
  }

  bool ssr_live(const State& s) { return s.ssr_en.known && s.ssr_en.v == 1; }

  // --- FP instruction effects ----------------------------------------------

  /// Chain/SSR effects of one FP-domain instruction. When `ft` is non-null
  /// the instruction executes inside an FREP body: chain levels update the
  /// relative trace instead of the state, and saturation events are deferred
  /// until the repetition count is applied.
  void fp_instr(u32 i, State& s, FrepTracker* ft = nullptr) {
    const Instr& in = p_.instrs[i];
    const PredecodedInstr& pr = p_.pre[i];

    // The predecoded plan lists each FP source once (an instruction naming
    // one register in several slots pops it once -- Snitch semantics).
    bool gathers = false;  // any source is a live indirect read stream
    std::array<bool, 32> popped{};
    for (u32 k = 0; k < pr.n_fp_srcs; ++k) {
      const u8 r = pr.fp_srcs[k];
      if (ssr_live(s) && r < ssr::kNumSsrs && s.ssr[r].dir != Dir::kNone) {
        if (s.ssr[r].dir == Dir::kWrite) {
          emit(FindingKind::kSsrDirectionMismatch, Severity::kError, i,
               static_cast<i32>(r),
               "reads " + freg(r) +
                   " while it is armed as a write stream: the FP subsystem "
                   "faults on this at issue");
        } else if (s.ssr[r].dir == Dir::kRead) {
          gathers = gathers || s.ssr[r].indirect;
        }
        continue;  // Dir::kTop: conservatively no chain accounting either
      }
      if (!chain_enabled(s, r)) continue;
      popped[r] = true;
      if (ft != nullptr) {
        ChainTrace& t = ft->t[r];
        t.used = true;
        t.cur -= 1;
        t.minp = std::min(t.minp, t.cur);
      } else {
        if (s.lvl[r] == 0) {
          emit(FindingKind::kChainUnderflow, Severity::kError, i,
               static_cast<i32>(r),
               "pops chained " + freg(r) +
                   " with no value in flight on some path: this consumer "
                   "precedes every producer and stalls chain-empty forever "
                   "(guaranteed deadlock)");
        } else {
          s.lvl[r] -= 1;
        }
      }
    }

    if (!isa::writes_fp_rd(in.mn)) return;
    const u8 rd = in.rd;
    if (ssr_live(s) && rd < ssr::kNumSsrs && s.ssr[rd].dir != Dir::kNone) {
      if (s.ssr[rd].dir == Dir::kRead) {
        emit(FindingKind::kSsrDirectionMismatch, Severity::kError, i,
             static_cast<i32>(rd),
             "writes " + freg(rd) +
                 " while it is armed as a read stream: the FP subsystem "
                 "faults on this at issue");
      }
      return;
    }
    if (!chain_enabled(s, rd)) return;

    // Push into rd's chain FIFO at writeback.
    const bool push_only = !popped[rd];
    if (ft != nullptr) {
      ChainTrace& t = ft->t[rd];
      if (push_only && gathers) {
        ft->sat.push_back({i, rd, t.cur});
      }
      t.used = true;
      t.cur += 1;
      t.maxp = std::max(t.maxp, t.cur);
      return;
    }
    const u32 before = s.lvl[rd];
    if (push_only && gathers && before >= 2) {
      emit_gated_saturation(i, rd, before);
    }
    if (before + 1 > cap_) {
      emit(FindingKind::kChainOverflow, Severity::kError, i,
           static_cast<i32>(rd),
           "pushes value " + std::to_string(before + 1) +
               " into chained " + freg(rd) + " whose FIFO holds " +
               std::to_string(cap_) + " (fpu_depth+1) with no intervening "
               "pop: the writeback blocks chain-full, the frozen pipeline "
               "holds the issue latch, and no consumer can ever issue to "
               "drain it (guaranteed deadlock)");
      s.lvl[rd] = static_cast<u8>(cap_);
    } else {
      s.lvl[rd] = static_cast<u8>(before + 1);
    }
  }

  void emit_gated_saturation(u32 i, u8 rd, u64 before) {
    emit(FindingKind::kChainGatedSaturation, Severity::kWarning, i,
         static_cast<i32>(rd),
         "producer pushes into chained " + freg(rd) + " with " +
             std::to_string(before) +
             " values already in flight while its issue is gated on an "
             "indirect SSR gather. If the gather lags (cross-core TCDM "
             "contention), an earlier producer reaches writeback against a "
             "full FIFO; the blocked writeback freezes the FPU pipeline with "
             "this producer holding the single-entry issue latch, and the "
             "stream-gated consumer that would pop can then never issue. "
             "Chain-wait cycle: producer writeback -> chain-full -> "
             "pipeline freeze -> issue latch held -> consumer cannot issue "
             "-> no pop ever frees the FIFO. Whether the wedge closes "
             "depends on gather timing (schedule-dependent deadlock; the "
             "pinned 4-core box3d1r/star3d1r Chaining+ failures are this "
             "shape)");
  }

  // --- FREP -----------------------------------------------------------------

  /// Collect the body ranges of statically valid freps once, for the
  /// branch-into-body check.
  void structural_frep_scan() {
    for (u32 i = 0; i < p_.pre.size(); ++i) {
      if (p_.pre[i].handler != ExecHandler::kFrep) continue;
      if ((p_.pre[i].flags & isa::preflag::kFrepBodyOk) == 0) continue;
      const u32 body = static_cast<u32>(p_.instrs[i].imm);
      frep_bodies_.emplace_back(i + 1, i + body);
    }
    for (u32 i = 0; i < p_.pre.size(); ++i) {
      const ExecHandler h = p_.pre[i].handler;
      if (h != ExecHandler::kJal && h != ExecHandler::kBranch) continue;
      const u32 t = p_.pre[i].target_idx;
      if (t == Program::kNoIndex) continue;
      for (const auto& [lo, hi] : frep_bodies_) {
        if (t >= lo && t <= hi) {
          emit(FindingKind::kFrepBranchIntoBody, Severity::kError, i,
               -1,
               "branch/jump targets pc " + hex(p_.text_base + t * 4ull) +
                   ", the interior of the frep body at pc " +
                   hex(p_.text_base + (lo - 1) * 4ull) +
                   ": entering a body without the sequencer replaying it "
                   "executes the tail with unbalanced chain/stream traffic");
        }
      }
    }
  }

  /// Closed-form FREP interpretation: walk the body once collecting relative
  /// chain traces, then extrapolate across the repetition count.
  void do_frep(u32 i, State& s) {
    const Instr& in = p_.instrs[i];
    const u32 body = static_cast<u32>(in.imm);
    if ((p_.pre[i].flags & isa::preflag::kFrepBodyOk) == 0) {
      std::string why = "malformed frep body (";
      if (body == 0) {
        why += "empty body";
      } else if (i + body >= p_.instrs.size()) {
        why += "body runs past the end of the text segment";
      } else {
        why += "contains a non-FP-domain instruction or a nested frep";
      }
      why += "): both engines fault when this executes";
      emit(FindingKind::kFrepIllegalBody, Severity::kError, i, -1,
           std::move(why));
      return;  // runtime faults here; the path ends
    }
    if (body > cfg_.seq_buffer_depth) {
      emit(FindingKind::kFrepIllegalBody, Severity::kError, i, -1,
           "frep body of " + std::to_string(body) +
               " instructions exceeds seq_buffer_depth=" +
               std::to_string(cfg_.seq_buffer_depth) +
               ": the sequencer rejects it (sticky error) on the cycle "
               "engine");
      return;
    }
    const AbsVal reps_v = rd_x(s, in.rs1);
    const bool reps_known = reps_v.known;
    const u64 reps = reps_known ? static_cast<u64>(reps_v.v) + 1 : 0;
    const bool is_frep_i = in.mn == Mnemonic::kFrepI;

    FrepTracker ft;
    for (u32 b = i + 1; b <= i + body; ++b) {
      // frep.i replays each instruction `reps` times in place; frep.o
      // replays the whole body, which the relative-trace extrapolation
      // below models. For frep.i the per-instruction repetition factors
      // into the trace directly.
      if (is_frep_i && reps_known && reps > 1) {
        // Model: instr replayed reps times back to back.
        fp_instr_repeat_trace(b, s, ft, reps);
      } else if (is_frep_i && !reps_known) {
        fp_instr_repeat_trace(b, s, ft, 0);  // 0 = unknown
      } else {
        fp_instr(b, s, &ft);
      }
      // FP compares inside a body write integer registers.
      if (isa::writes_int_rd(p_.instrs[b].mn)) {
        wr_x(s, p_.instrs[b].rd, AbsVal::top());
      }
      // FP loads/stores in a body still touch memory.
      record_fp_mem(b, s);
    }

    const u64 iters = is_frep_i ? 1 : reps;  // frep.i trace already scaled
    const std::array<u8, 32> entry_lvl = s.lvl;
    for (u32 r = 0; r < 32; ++r) {
      const ChainTrace& t = ft.t[r];
      if (!t.used) continue;
      const i64 entry = s.lvl[r];
      const i64 d = t.cur;
      if (!reps_known) {
        if (d != 0) {
          emit(FindingKind::kChainFrepImbalance, Severity::kError, i,
               static_cast<i32>(r),
               "frep body changes the chain-FIFO occupancy of " + freg(r) +
                   " by " + std::to_string(d) +
                   " per iteration with a statically unknown repetition "
                   "count: the imbalance accumulates into " +
                   (d > 0 ? "overflow (wedged pipeline)"
                          : "underflow (chain-empty deadlock)"));
          s.lvl[r] = static_cast<u8>(d > 0 ? cap_ : 0);
          continue;
        }
        check_iter_extremes(i, r, entry, t);
        continue;
      }
      if (iters > 1 && d != 0) {
        emit(FindingKind::kChainFrepImbalance, Severity::kError, i,
             static_cast<i32>(r),
             "frep body changes the chain-FIFO occupancy of " + freg(r) +
                 " by " + std::to_string(d) + " per iteration across " +
                 std::to_string(iters) +
                 " iterations: token balance must be zero per iteration");
      }
      // Extremes over iteration j: level(j) = entry + j*d + prefix.
      const u64 jmax = iters > 0 ? iters - 1 : 0;
      const i64 jlo = d >= 0 ? 0 : static_cast<i64>(jmax);
      const i64 jhi = d >= 0 ? static_cast<i64>(jmax) : 0;
      if (entry + jlo * d + t.minp < 0) {
        emit(FindingKind::kChainUnderflow, Severity::kError, i,
             static_cast<i32>(r),
             "frep body pops chained " + freg(r) +
                 " below zero in-flight values: the consumer stalls "
                 "chain-empty forever (guaranteed deadlock)");
      }
      if (entry + jhi * d + t.maxp > static_cast<i64>(cap_)) {
        emit(FindingKind::kChainOverflow, Severity::kError, i,
             static_cast<i32>(r),
             "frep body pushes chained " + freg(r) + " beyond the " +
                 std::to_string(cap_) +
                 "-deep FIFO (fpu_depth+1) with no intervening pop: the "
                 "blocked writeback freezes the pipeline (guaranteed "
                 "deadlock)");
      }
      const i64 fin = entry + static_cast<i64>(iters) * d;
      s.lvl[r] = static_cast<u8>(std::clamp<i64>(fin, 0, cap_));
    }
    for (const SatEvent& e : ft.sat) {
      const i64 entry = entry_lvl[e.reg];
      const i64 d = ft.t[e.reg].cur;
      i64 worst = entry + e.pre_rel;
      if (reps_known && iters > 1) {
        worst = std::max(worst, entry + static_cast<i64>(iters - 1) * d +
                                    e.pre_rel);
      }
      if (worst >= 2) {
        emit_gated_saturation(e.idx, e.reg, static_cast<u64>(worst));
      }
    }
  }

  /// frep.i relative-trace helper: instruction at `b` replayed `reps` times
  /// (0 = statically unknown count).
  void fp_instr_repeat_trace(u32 b, State& s, FrepTracker& ft, u64 reps) {
    const Instr& in = p_.instrs[b];
    const PredecodedInstr& pr = p_.pre[b];
    std::array<bool, 32> pops{};
    for (u32 k = 0; k < pr.n_fp_srcs; ++k) {
      if (chain_src(s, pr.fp_srcs[k])) pops[pr.fp_srcs[k]] = true;
    }
    const bool pushes = isa::writes_fp_rd(in.mn) && chain_dest(s, in.rd);
    for (u32 r = 0; r < 32; ++r) {
      if (!pops[r]) continue;
      ChainTrace& t = ft.t[r];
      t.used = true;
      if (pushes && in.rd == r) {
        // pop+push per replay: needs >= 1 token, net zero.
        t.cur -= 1;
        t.minp = std::min(t.minp, t.cur);
        t.cur += 1;
        continue;
      }
      if (reps == 0) {
        emit(FindingKind::kChainFrepImbalance, Severity::kError, b,
             static_cast<i32>(r),
             "frep.i replays a pop-only consumer of chained " + freg(r) +
                 " an unknown number of times");
        continue;
      }
      t.cur -= static_cast<i64>(reps);
      t.minp = std::min(t.minp, t.cur);
    }
    if (pushes && !pops[in.rd]) {
      ChainTrace& t = ft.t[in.rd];
      t.used = true;
      if (reps == 0) {
        emit(FindingKind::kChainFrepImbalance, Severity::kError, b,
             static_cast<i32>(in.rd),
             "frep.i replays a push-only producer of chained " +
                 freg(in.rd) + " an unknown number of times");
        return;
      }
      t.cur += static_cast<i64>(reps);
      t.maxp = std::max(t.maxp, t.cur);
    }
  }

  bool chain_src(State& s, u8 r) {
    if (ssr_live(s) && r < ssr::kNumSsrs && s.ssr[r].dir != Dir::kNone) {
      return false;
    }
    return chain_enabled(s, r);
  }
  bool chain_dest(State& s, u8 r) { return chain_src(s, r); }

  void check_iter_extremes(u32 i, u32 r, i64 entry, const ChainTrace& t) {
    if (entry + t.minp < 0) {
      emit(FindingKind::kChainUnderflow, Severity::kError, i,
           static_cast<i32>(r),
           "frep body pops chained " + freg(static_cast<u8>(r)) +
               " below zero in-flight values (guaranteed deadlock)");
    }
    if (entry + t.maxp > static_cast<i64>(cap_)) {
      emit(FindingKind::kChainOverflow, Severity::kError, i,
           static_cast<i32>(r),
           "frep body pushes chained " + freg(static_cast<u8>(r)) +
               " beyond the FIFO capacity (guaranteed deadlock)");
    }
  }

  /// Record the memory window of an FP load/store when its address is known.
  void record_fp_mem(u32 b, State& s) {
    const PredecodedInstr& pr = p_.pre[b];
    if (pr.handler != ExecHandler::kFpLoad &&
        pr.handler != ExecHandler::kFpStore) {
      return;
    }
    const Instr& in = p_.instrs[b];
    const AbsVal base = rd_x(s, in.rs1);
    if (!base.known) return;
    const u64 lo = static_cast<u64>(
        static_cast<i64>(base.v) + static_cast<i64>(pr.aux));
    record_foot(lo, lo + pr.mem_bytes, pr.handler == ExecHandler::kFpStore, b,
                pr.handler == ExecHandler::kFpStore ? "fp store" : "fp load");
  }

  // --- DMA ------------------------------------------------------------------

  void do_dma_copy(u32 i, State& s, bool two_d) {
    const Instr& in = p_.instrs[i];
    const AbsVal bytes_v = rd_x(s, in.rs1);
    const AbsVal rows_v = two_d ? rd_x(s, in.rs2) : AbsVal::c(1);
    wr_x(s, in.rd, AbsVal::top());  // transfer id
    if (!bytes_v.known || !rows_v.known) return;
    const u64 bytes = bytes_v.v;
    const u64 rows = rows_v.v;
    if (bytes == 0 || rows == 0) return;  // engines fault with a message
    auto window = [&](AbsVal base, AbsVal stride) -> std::optional<std::pair<u64, u64>> {
      if (!base.known) return std::nullopt;
      const i64 str = rows > 1
                          ? (stride.known
                                 ? static_cast<i64>(static_cast<i32>(stride.v))
                                 : 0)
                          : static_cast<i64>(bytes);
      if (rows > 1 && !stride.known) return std::nullopt;
      const i64 b0 = static_cast<i64>(base.v);
      const i64 span = static_cast<i64>(rows - 1) * str;
      const i64 lo = span >= 0 ? b0 : b0 + span;
      const i64 hi = (span >= 0 ? b0 + span : b0) + static_cast<i64>(bytes);
      return std::make_pair(static_cast<u64>(lo), static_cast<u64>(hi));
    };
    const auto src = window(s.dma_src, s.dma_sstr);
    const auto dst = window(s.dma_dst, s.dma_dstr);
    auto check = [&](const std::optional<std::pair<u64, u64>>& w, bool write) {
      if (!w.has_value()) return;
      const auto [lo, hi] = *w;
      if (!window_mapped(lo, hi)) {
        emit(FindingKind::kDmaRace, Severity::kError, i, -1,
             std::string("dma ") + (write ? "destination" : "source") +
                 " window " + describe_window(lo, hi, regions_) +
                 " is not contained in a single mapped region");
      }
      for (u32 k = 0; ssr_live(s) && k < ssr::kNumSsrs; ++k) {
        const Stream& st = s.ssr[k];
        if ((st.dir != Dir::kRead && st.dir != Dir::kWrite) ||
            !st.window_known) {
          continue;
        }
        if (!write && !window_written(st)) continue;  // read/read is fine
        if (overlaps(lo, hi, st.lo, st.hi)) {
          emit(FindingKind::kDmaRace, Severity::kError, i,
               static_cast<i32>(k),
               std::string("dma ") + (write ? "write" : "read") + " window " +
                   describe_window(lo, hi, regions_) +
                   " overlaps the live ssr" + std::to_string(k) + " " +
                   (window_written(st) ? std::string("write") :
                                         std::string("read")) +
                   " stream window " + describe_window(st.lo, st.hi, regions_) +
                   ": DMA completion order against the stream is "
                   "timing-defined");
        }
      }
      record_foot(lo, hi, write, i, write ? "dma write" : "dma read");
    };
    check(src, false);
    check(dst, true);
  }

  // --- CSR ------------------------------------------------------------------

  void do_csr(u32 i, State& s) {
    const Instr& in = p_.instrs[i];
    const u32 addr = static_cast<u32>(p_.pre[i].aux);
    AbsVal operand;
    const bool reg_form = in.mn == Mnemonic::kCsrrw ||
                          in.mn == Mnemonic::kCsrrs ||
                          in.mn == Mnemonic::kCsrrc;
    operand = reg_form ? rd_x(s, in.rs1) : AbsVal::c(in.rs1);

    AbsVal old = AbsVal::top();
    switch (addr) {
      case isa::csr::kMhartid: old = AbsVal::c(hart_); break;
      case isa::csr::kMnumharts: old = AbsVal::c(nharts_); break;
      case isa::csr::kChainMask: old = s.chain_mask; break;
      case isa::csr::kSsrEnable: old = s.ssr_en; break;
      default: break;
    }

    // Write side (csrrw always; csrrs/csrrc only for a nonzero operand,
    // mirroring Iss::h_csr; an unknown operand may or may not write).
    AbsVal newv = AbsVal::top();
    bool writes = false;
    bool maybe_writes = false;
    switch (in.mn) {
      case Mnemonic::kCsrrw:
      case Mnemonic::kCsrrwi:
        writes = true;
        newv = operand;
        break;
      case Mnemonic::kCsrrs:
      case Mnemonic::kCsrrsi:
        if (operand.known) {
          writes = operand.v != 0;
          if (writes && old.known) newv = AbsVal::c(old.v | operand.v);
        } else {
          maybe_writes = true;
        }
        break;
      default:  // csrrc / csrrci
        if (operand.known) {
          writes = operand.v != 0;
          if (writes && old.known) newv = AbsVal::c(old.v & ~operand.v);
        } else {
          maybe_writes = true;
        }
        break;
    }
    if (addr == isa::csr::kChainMask) {
      if (writes) {
        if (!newv.known) {
          chain_unknown_now(i);
          s.chain_mask = AbsVal::top();
        } else {
          if (s.chain_mask.known && !chain_unknown_) {
            const u32 cleared = s.chain_mask.v & ~newv.v;
            for (u32 r = 0; r < 32; ++r) {
              if (((cleared >> r) & 1u) != 0 && s.lvl[r] > 0) {
                emit(FindingKind::kChainLeftover, Severity::kWarning, i,
                     static_cast<i32>(r),
                     "disables chaining for " + freg(static_cast<u8>(r)) +
                         " with " + std::to_string(s.lvl[r]) +
                         " value(s) still in flight: leftover tokens are "
                         "dropped and the architectural register value is "
                         "timing-defined");
                s.lvl[r] = 0;
              }
            }
          }
          s.chain_mask = newv;
        }
      } else if (maybe_writes) {
        chain_unknown_now(i);
        s.chain_mask = AbsVal::top();
      }
    } else if (addr == isa::csr::kSsrEnable) {
      if (writes) {
        s.ssr_en = newv.known ? AbsVal::c(newv.v & 1u) : AbsVal::top();
      } else if (maybe_writes) {
        s.ssr_en = AbsVal::top();
      }
    }
    wr_x(s, in.rd, old);
  }

  // --- main transfer function ----------------------------------------------

  void step(u32 i) {
    const Instr& in = p_.instrs[i];
    const PredecodedInstr& pr = p_.pre[i];
    State s = *in_[i];
    const u32 n = static_cast<u32>(p_.instrs.size());
    const auto linear_succ = [&]() {
      if (i + 1 < n) {
        merge_into(i + 1, s);
      } else {
        emit(FindingKind::kAnalysisLimit, Severity::kWarning, i, -1,
             "control reaches the end of the text segment without ecall");
      }
    };

    switch (pr.handler) {
      case ExecHandler::kInvalid:
        emit(FindingKind::kAnalysisLimit, Severity::kWarning, i, -1,
             "invalid instruction word: execution faults when this is "
             "reached");
        return;
      case ExecHandler::kLui:
        wr_x(s, in.rd, AbsVal::c(static_cast<u32>(pr.aux)));
        linear_succ();
        return;
      case ExecHandler::kAuipc:
        wr_x(s, in.rd,
             AbsVal::c(static_cast<u32>(p_.text_base + i * 4) +
                       static_cast<u32>(pr.aux)));
        linear_succ();
        return;
      case ExecHandler::kIntAluImm: {
        const AbsVal a = rd_x(s, in.rs1);
        wr_x(s, in.rd,
             a.known
                 ? AbsVal::c(exec::int_op(in.mn, a.v, static_cast<u32>(pr.aux)))
                 : AbsVal::top());
        linear_succ();
        return;
      }
      case ExecHandler::kIntAluReg:
      case ExecHandler::kIntMul:
      case ExecHandler::kIntDiv: {
        const AbsVal a = rd_x(s, in.rs1);
        const AbsVal b = rd_x(s, in.rs2);
        wr_x(s, in.rd, a.known && b.known
                           ? AbsVal::c(exec::int_op(in.mn, a.v, b.v))
                           : AbsVal::top());
        linear_succ();
        return;
      }
      case ExecHandler::kLoad:
      case ExecHandler::kLoadSext8:
      case ExecHandler::kLoadSext16: {
        const AbsVal base = rd_x(s, in.rs1);
        if (base.known) {
          const u64 lo = static_cast<u64>(static_cast<i64>(base.v) +
                                          static_cast<i64>(pr.aux));
          record_foot(lo, lo + pr.mem_bytes, false, i, "load");
        }
        wr_x(s, in.rd, AbsVal::top());
        linear_succ();
        return;
      }
      case ExecHandler::kStore: {
        const AbsVal base = rd_x(s, in.rs1);
        if (base.known) {
          const u64 lo = static_cast<u64>(static_cast<i64>(base.v) +
                                          static_cast<i64>(pr.aux));
          record_foot(lo, lo + pr.mem_bytes, true, i, "store");
        }
        linear_succ();
        return;
      }
      case ExecHandler::kCsr:
        do_csr(i, s);
        linear_succ();
        return;
      case ExecHandler::kEcall:
        if (!chain_unknown_ && s.chain_mask.known) {
          for (u32 r = 0; r < 32; ++r) {
            if (chain_enabled(s, static_cast<u8>(r)) && s.lvl[r] > 0) {
              emit(FindingKind::kChainLeftover, Severity::kWarning, i,
                   static_cast<i32>(r),
                   "program halts with " + std::to_string(s.lvl[r]) +
                       " unconsumed value(s) in chained " +
                       freg(static_cast<u8>(r)) +
                       ": a producer ran without its consumer");
            }
          }
        }
        return;  // clean halt: path ends
      case ExecHandler::kEbreak:
        return;  // debug halt: path ends
      case ExecHandler::kFence:
        linear_succ();
        return;
      case ExecHandler::kFpLoad:
      case ExecHandler::kFpStore:
        fp_instr(i, s);
        record_fp_mem(i, s);
        linear_succ();
        return;
      case ExecHandler::kFpMac:
      case ExecHandler::kFpDiv:
      case ExecHandler::kFpSqrt:
      case ExecHandler::kFpCvtI2F:
        fp_instr(i, s);
        linear_succ();
        return;
      case ExecHandler::kFpCmp:
      case ExecHandler::kFpCvtF2I:
        fp_instr(i, s);
        wr_x(s, in.rd, AbsVal::top());
        linear_succ();
        return;
      case ExecHandler::kFrep: {
        do_frep(i, s);
        const u32 body = static_cast<u32>(in.imm);
        if ((p_.pre[i].flags & isa::preflag::kFrepBodyOk) != 0 &&
            body <= cfg_.seq_buffer_depth) {
          const u32 next = i + 1 + body;
          if (next < n) {
            merge_into(next, s);
          } else {
            emit(FindingKind::kAnalysisLimit, Severity::kWarning, i, -1,
                 "control reaches the end of the text segment without ecall");
          }
        }
        return;
      }
      case ExecHandler::kJal: {
        wr_x(s, in.rd, AbsVal::c(static_cast<u32>(p_.text_base + i * 4 + 4)));
        if (pr.target_idx == Program::kNoIndex) {
          emit(FindingKind::kAnalysisLimit, Severity::kWarning, i, -1,
               "jump target leaves the text segment");
          rep_.complete = false;
          return;
        }
        merge_into(pr.target_idx, s);
        return;
      }
      case ExecHandler::kJalr: {
        const AbsVal base = rd_x(s, in.rs1);
        wr_x(s, in.rd, AbsVal::c(static_cast<u32>(p_.text_base + i * 4 + 4)));
        if (!base.known) {
          emit(FindingKind::kAnalysisLimit, Severity::kWarning, i, -1,
               "indirect jump with statically unknown target; paths beyond "
               "it are unanalyzed");
          rep_.complete = false;
          return;
        }
        const u32 target =
            (base.v + static_cast<u32>(pr.aux)) & ~1u;
        if (target < p_.text_base || target >= p_.text_base + n * 4 ||
            (target % 4) != 0) {
          emit(FindingKind::kAnalysisLimit, Severity::kWarning, i, -1,
               "indirect jump target " + hex(target) +
                   " leaves the text segment");
          rep_.complete = false;
          return;
        }
        merge_into((target - static_cast<u32>(p_.text_base)) / 4, s);
        return;
      }
      case ExecHandler::kBranch: {
        const AbsVal a = rd_x(s, in.rs1);
        const AbsVal b = rd_x(s, in.rs2);
        const auto take = [&]() {
          if (pr.target_idx == Program::kNoIndex) {
            emit(FindingKind::kAnalysisLimit, Severity::kWarning, i, -1,
                 "branch target leaves the text segment");
            rep_.complete = false;
            return;
          }
          merge_into(pr.target_idx, s);
        };
        if (a.known && b.known) {
          if (exec::branch_taken(in.mn, a.v, b.v)) {
            take();
          } else {
            linear_succ();
          }
        } else {
          take();
          linear_succ();
        }
        return;
      }
      case ExecHandler::kScfgW: {
        const i32 index = static_cast<i32>(pr.aux);
        const u32 ssr_id = ssr::cfg_ssr_of(index);
        const u32 reg = ssr::cfg_reg_of(index);
        const AbsVal v = rd_x(s, in.rs1);
        if (ssr_id < ssr::kNumSsrs && reg < ssr::kNumCfgRegs) {
          StreamCfg& c = s.cfg[ssr_id];
          const auto cr = static_cast<ssr::CfgReg>(reg);
          if (cr == ssr::CfgReg::kRepeat) {
            c.repeat = v;
          } else if (cr >= ssr::CfgReg::kBound0 &&
                     cr <= static_cast<ssr::CfgReg>(5)) {
            c.bounds[reg - static_cast<u32>(ssr::CfgReg::kBound0)] = v;
          } else if (cr >= ssr::CfgReg::kStride0 &&
                     cr <= static_cast<ssr::CfgReg>(9)) {
            c.strides[reg - static_cast<u32>(ssr::CfgReg::kStride0)] = v;
          } else if (cr == ssr::CfgReg::kIdxCfg) {
            c.idx_cfg = v;
          } else if (cr == ssr::CfgReg::kIdxBase) {
            c.idx_base = v;
          } else if (cr >= ssr::CfgReg::kRptr0 &&
                     cr <= static_cast<ssr::CfgReg>(15)) {
            arm_stream(s, ssr_id,
                       reg - static_cast<u32>(ssr::CfgReg::kRptr0) + 1, v,
                       Dir::kRead, i);
          } else if (cr >= ssr::CfgReg::kWptr0 &&
                     cr <= static_cast<ssr::CfgReg>(19)) {
            arm_stream(s, ssr_id,
                       reg - static_cast<u32>(ssr::CfgReg::kWptr0) + 1, v,
                       Dir::kWrite, i);
          }
        }
        linear_succ();
        return;
      }
      case ExecHandler::kScfgR:
        wr_x(s, in.rd, AbsVal::top());
        linear_succ();
        return;
      case ExecHandler::kDmaSrc:
        s.dma_src = rd_x(s, in.rs1);
        linear_succ();
        return;
      case ExecHandler::kDmaDst:
        s.dma_dst = rd_x(s, in.rs1);
        linear_succ();
        return;
      case ExecHandler::kDmaStr:
        s.dma_sstr = rd_x(s, in.rs1);
        s.dma_dstr = rd_x(s, in.rs2);
        linear_succ();
        return;
      case ExecHandler::kDmaCpy:
        do_dma_copy(i, s, false);
        linear_succ();
        return;
      case ExecHandler::kDmaCpy2d:
        do_dma_copy(i, s, true);
        linear_succ();
        return;
      case ExecHandler::kDmaStat:
        wr_x(s, in.rd, AbsVal::top());
        linear_succ();
        return;
      case ExecHandler::kCount:
        break;
    }
  }

  const Program& p_;
  const sim::SimConfig& cfg_;
  const std::vector<MemRegion>* regions_;
  u32 hart_;
  u32 nharts_;
  u32 cap_;
  Report& rep_;
  HartFootprint& foot_;

  std::vector<std::optional<State>> in_;
  std::deque<u32> wl_;
  std::vector<bool> on_wl_ = std::vector<bool>(p_.instrs.size(), false);
  std::set<std::tuple<u8, u32, i32>> emitted_;
  std::set<std::tuple<u64, u64, bool>> foot_seen_;
  std::vector<std::pair<u32, u32>> frep_bodies_;
  bool chain_unknown_ = false;
};

/// Whether the program ever reads mhartid (identical replicas that never do
/// execute identically on every hart).
bool reads_mhartid(const Program& p) {
  for (u32 i = 0; i < p.pre.size(); ++i) {
    if (p.pre[i].handler == ExecHandler::kCsr &&
        static_cast<u32>(p.pre[i].aux) == isa::csr::kMhartid) {
      return true;
    }
  }
  return false;
}

bool inside_shared_region(u64 lo, u64 hi,
                          const std::vector<MemRegion>* regions) {
  if (regions == nullptr) return false;
  for (const MemRegion& r : *regions) {
    if (r.shared && lo >= r.base && hi <= r.base + r.bytes) return true;
  }
  return false;
}

void cross_hart_races(const std::vector<const Program*>& prog_of,
                      const std::vector<HartFootprint>& foot,
                      const std::vector<bool>& hartid_dependent,
                      const std::vector<MemRegion>* regions, Report& rep) {
  const u32 n = static_cast<u32>(foot.size());
  u32 emitted = 0;
  constexpr u32 kMaxRaceFindings = 8;
  for (u32 h1 = 0; h1 < n && emitted < kMaxRaceFindings; ++h1) {
    for (u32 h2 = h1 + 1; h2 < n && emitted < kMaxRaceFindings; ++h2) {
      // Identical replicas with no mhartid dependence execute the same
      // access sequence: overlap is total but benign (deterministic
      // arbitration, identical values). Skip the pair.
      if (prog_of[h1] == prog_of[h2] && !hartid_dependent[h1]) continue;
      for (const FootRec& a : foot[h1].recs) {
        if (emitted >= kMaxRaceFindings) break;
        for (const FootRec& b : foot[h2].recs) {
          if (!a.write && !b.write) continue;
          if (!overlaps(a.lo, a.hi, b.lo, b.hi)) continue;
          const u64 olo = std::max(a.lo, b.lo);
          const u64 ohi = std::min(a.hi, b.hi);
          if (inside_shared_region(olo, ohi, regions)) continue;
          Finding f;
          f.kind = FindingKind::kInterHartRace;
          f.severity = Severity::kError;
          f.hart = static_cast<i32>(h1);
          f.pc = static_cast<i64>(prog_of[h1]->text_base) +
                 static_cast<i64>(a.idx) * 4;
          f.reg = -1;
          f.message = "hart " + std::to_string(h1) + " " + a.what + " " +
                      describe_window(a.lo, a.hi, regions) +
                      " overlaps hart " + std::to_string(h2) + " " + b.what +
                      " " + describe_window(b.lo, b.hi, regions) + " at " +
                      describe_window(olo, ohi, regions) +
                      " with at least one writer: the access order across "
                      "harts is timing-defined";
          rep.findings.push_back(std::move(f));
          if (++emitted >= kMaxRaceFindings) break;
        }
      }
    }
  }
}

} // namespace

Report analyze(const std::vector<Program>& programs,
               const sim::SimConfig& cfg,
               const std::vector<MemRegion>* regions) {
  Report rep;
  if (programs.empty()) return rep;
  const u32 n = cfg.num_cores;
  rep.harts_analyzed = n;

  // Programs must be predecoded; copy-and-predecode any that are not.
  std::vector<Program> predecoded_storage;
  predecoded_storage.reserve(programs.size());
  std::vector<const Program*> resolved(programs.size());
  for (usize k = 0; k < programs.size(); ++k) {
    if (programs[k].pre.size() == programs[k].instrs.size()) {
      resolved[k] = &programs[k];
    } else {
      predecoded_storage.push_back(programs[k]);
      predecoded_storage.back().predecode();
      resolved[k] = &predecoded_storage.back();
    }
  }

  std::vector<const Program*> prog_of(n);
  for (u32 h = 0; h < n; ++h) {
    prog_of[h] = resolved[std::min<usize>(h, resolved.size() - 1)];
  }

  std::vector<HartFootprint> foot(n);
  std::vector<bool> hartid_dependent(n, false);
  std::vector<bool> analyzed(n, false);
  for (u32 h = 0; h < n; ++h) {
    if (analyzed[h]) continue;
    const bool hid = reads_mhartid(*prog_of[h]);
    hartid_dependent[h] = hid;
    HartAnalyzer a(*prog_of[h], cfg, regions, h, n, rep, foot[h]);
    a.run();
    analyzed[h] = true;
    if (!hid) {
      // Identical replicas: findings and footprints are hart-independent.
      for (u32 h2 = h + 1; h2 < n; ++h2) {
        if (prog_of[h2] == prog_of[h] && !analyzed[h2]) {
          foot[h2] = foot[h];
          hartid_dependent[h2] = false;
          analyzed[h2] = true;
        }
      }
    } else {
      for (u32 h2 = h + 1; h2 < n; ++h2) {
        if (prog_of[h2] == prog_of[h]) hartid_dependent[h2] = true;
      }
    }
  }

  if (n > 1) {
    cross_hart_races(prog_of, foot, hartid_dependent, regions, rep);
  }
  return rep;
}

Report analyze(const Program& program, const sim::SimConfig& cfg,
               const std::vector<MemRegion>* regions) {
  return analyze(std::vector<Program>{program}, cfg, regions);
}

} // namespace sch::verify
