#include "kernels/stencil.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "asm/builder.hpp"
#include "isa/csr.hpp"
#include "isa/reg.hpp"
#include "kernels/registry.hpp"
#include "ssr/ssr_config.hpp"

namespace sch::kernels {

using isa::FpReg;
using ssr::CfgReg;

namespace {

constexpr u32 kBoxNbr = 27;

// FP register map (see header table). f0..f2 are ft0..ft2.
constexpr u8 kAcc0 = 3;      // f3..f6: accumulators (non-chained variants)
constexpr u8 kChainReg = 3;  // ft3: the chained accumulator
constexpr u8 kOmega = 7;     // j3d27pt relaxation factor
constexpr u8 kTransient0 = 8; // f8..f11: rotating reload slots (Base--/Base-)

// Integer register map.
constexpr u8 kCfgTmp = isa::kT0;
constexpr u8 kCfgTmp2 = isa::kT1;
constexpr u8 kGroupCnt = isa::kT2;
constexpr u8 kFrepReps = isa::kT3;
constexpr u8 kStorePtr = isa::kS1;
constexpr u8 kCoefPtr = isa::kS2;
constexpr u8 kAddrTmp = isa::kA0;

struct Layout {
  u32 nx, ny, nz;
  u32 points;          // interior points
  u32 groups;          // points / unroll
  Addr in_base = 0;
  Addr out_base = 0;
  Addr coef_base = 0;
  Addr idx_even_base = 0;
  Addr idx_odd_base = 0;

  [[nodiscard]] u32 lin(u32 x, u32 y, u32 z) const { return x + nx * (y + ny * z); }
};

/// Neighbor offsets in canonical k order. Box stencils enumerate the full
/// 3x3x3 cube (dx fastest); the star control uses center + 6 faces.
void neighbor(StencilKind kind, u32 k, i32& dx, i32& dy, i32& dz) {
  if (kind == StencilKind::kStar3d1r) {
    static constexpr i32 kStar[7][3] = {{0, 0, 0},  {-1, 0, 0}, {1, 0, 0},
                                        {0, -1, 0}, {0, 1, 0},  {0, 0, -1},
                                        {0, 0, 1}};
    dx = kStar[k][0];
    dy = kStar[k][1];
    dz = kStar[k][2];
    return;
  }
  dx = static_cast<i32>(k % 3) - 1;
  dy = static_cast<i32>((k / 3) % 3) - 1;
  dz = static_cast<i32>(k / 9) - 1;
}

/// Grid index of every interior point, in row-major interior order (x
/// fastest): the order of the output, the golden and the index arrays.
std::vector<i32> interior_cells(const Layout& lay) {
  std::vector<i32> cells;
  cells.reserve(lay.points);
  for (u32 z = 1; z + 1 < lay.nz; ++z) {
    for (u32 y = 1; y + 1 < lay.ny; ++y) {
      for (u32 x = 1; x + 1 < lay.nx; ++x) {
        cells.push_back(static_cast<i32>(lay.lin(x, y, z)));
      }
    }
  }
  return cells;
}

/// Grid-index offset of each neighbor (canonical k order) from its point.
std::vector<i32> neighbor_offsets(StencilKind kind, const Layout& lay) {
  std::vector<i32> off(stencil_neighbors(kind));
  for (u32 k = 0; k < off.size(); ++k) {
    i32 dx, dy, dz;
    neighbor(kind, k, dx, dy, dz);
    off[k] = dx + static_cast<i32>(lay.nx) * (dy + static_cast<i32>(lay.ny) * dz);
  }
  return off;
}

/// Exactly-representable input pattern.
double input_value(u32 i) {
  return static_cast<double>((i * 31 + 7) % 257) * 0.0078125 - 1.0;
}

std::vector<double> make_coefficients(StencilKind kind) {
  const u32 nbr = stencil_neighbors(kind);
  std::vector<double> c(nbr);
  if (kind == StencilKind::kBox3d1r || kind == StencilKind::kStar3d1r) {
    // Distinct dyadic weights per offset (a general filter).
    for (u32 k = 0; k < nbr; ++k) {
      c[k] = 0.015625 * static_cast<double>(k + 1) - 0.125;
    }
  } else {
    // Jacobi 27-point: distance-class weights.
    for (u32 k = 0; k < nbr; ++k) {
      i32 dx, dy, dz;
      neighbor(kind, k, dx, dy, dz);
      const int dist = std::abs(dx) + std::abs(dy) + std::abs(dz);
      switch (dist) {
        case 0: c[k] = 0.25; break;      // center
        case 1: c[k] = 0.0625; break;    // 6 faces
        case 2: c[k] = 0.03125; break;   // 12 edges
        default: c[k] = 0.015625; break; // 8 corners
      }
    }
  }
  return c;
}

constexpr double kOmegaValue = 0.75;

/// Maximum coefficients the RF can keep resident for Base--/Base- under the
/// fixed register map (the honest arithmetic behind "register-limited"):
/// resident coefficients occupy a contiguous high block f(32-R)..f31 above
/// the accumulators (f3..f6), omega (f7), transient reload slots (f8..f11)
/// and, for j3d27pt with explicit stores, the drain scratches (f12..f14 +
/// ft2). The remaining low registers are the pointer/staging margin the
/// SARIS kernels keep.
u32 max_resident_coefs(StencilKind kind, StencilVariant variant) {
  const bool ssr_writeback = variant == StencilVariant::kBaseM;
  if (kind == StencilKind::kJ3d27pt && !ssr_writeback) return 17; // f15..f31
  return 20;                                                      // f12..f31
}

struct GoldenResult {
  std::vector<double> out;
  u64 flops;
};

GoldenResult golden(StencilKind kind, const std::vector<i32>& cells,
                    const std::vector<i32>& nbr_off,
                    const std::vector<double>& in,
                    const std::vector<double>& coef) {
  GoldenResult g;
  g.out.resize(cells.size());
  g.flops = 0;
  for (usize p = 0; p < cells.size(); ++p) {
    double acc = 0.0;
    for (usize k = 0; k < nbr_off.size(); ++k) {
      const double v = in[static_cast<usize>(cells[p] + nbr_off[k])];
      acc = std::fma(v, coef[k], acc); // k=0: fma(v,c,0) == fmul, bit-exact
      ++g.flops;
    }
    if (kind == StencilKind::kJ3d27pt) {
      acc *= kOmegaValue;
      ++g.flops;
    }
    g.out[p] = acc;
  }
  return g;
}

/// Build the even/odd 16-bit gather index arrays: per group, k-major, two
/// entries per k per array (points {0,2} even, {1,3} odd).
void build_index_arrays(const std::vector<i32>& cells,
                        const std::vector<i32>& nbr_off,
                        std::vector<u16>& even, std::vector<u16>& odd) {
  const usize entries = cells.size() / 4 * nbr_off.size() * 2;
  even.resize(entries);
  odd.resize(entries);
  usize e = 0;
  for (usize p0 = 0; p0 < cells.size(); p0 += 4) {
    for (const i32 off : nbr_off) {
      const auto at = [&](usize p) { return static_cast<u16>(cells[p] + off); };
      even[e] = at(p0 + 0);
      even[e + 1] = at(p0 + 2);
      odd[e] = at(p0 + 1);
      odd[e + 1] = at(p0 + 3);
      e += 2;
    }
  }
}

/// Arm an indirect 1-D u16-index gather stream on `ssr_id`.
void arm_gather(ProgramBuilder& b, u32 ssr_id, Addr idx_array, u32 n_elems,
                Addr data_base) {
  b.li(kCfgTmp, static_cast<i64>(n_elems - 1));
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, CfgReg::kBound0));
  b.li(kCfgTmp, 2); // u16 index array
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, CfgReg::kStride0));
  // idx cfg: indirection enable | shift=3 (f64 elements) | idx size log2 = 1.
  b.li(kCfgTmp, (1 << 16) | (3 << 4) | 1);
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, CfgReg::kIdxCfg));
  b.li(kCfgTmp2, static_cast<i64>(data_base));
  b.scfgw(kCfgTmp2, ssr::cfg_index(ssr_id, CfgReg::kIdxBase));
  b.li(kCfgTmp2, static_cast<i64>(idx_array));
  b.scfgw(kCfgTmp2, ssr::cfg_index(ssr_id, CfgReg::kRptr0));
}

/// Arm the coefficient stream (Base): `nbr` coefficients, each repeated 4x,
/// looping back for every group.
void arm_coef_stream(ProgramBuilder& b, u32 ssr_id, Addr coef_base, u32 groups,
                     u32 nbr) {
  b.li(kCfgTmp, 3); // repeat = 3 -> 4 pops per element
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, CfgReg::kRepeat));
  b.li(kCfgTmp, nbr - 1);
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, CfgReg::kBound0));
  b.li(kCfgTmp, 8);
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, CfgReg::kStride0));
  b.li(kCfgTmp, static_cast<i64>(groups - 1));
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, static_cast<CfgReg>(
                       static_cast<u32>(CfgReg::kBound0) + 1)));
  b.li(kCfgTmp, -static_cast<i64>((nbr - 1) * 8)); // wrap to coef[0]
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, static_cast<CfgReg>(
                       static_cast<u32>(CfgReg::kStride0) + 1)));
  b.li(kCfgTmp2, static_cast<i64>(coef_base));
  b.scfgw(kCfgTmp2, ssr::cfg_index(ssr_id, static_cast<CfgReg>(
                        static_cast<u32>(CfgReg::kRptr0) + 1))); // 2-D
}

/// Arm the compacted output write stream.
void arm_write_stream(ProgramBuilder& b, u32 ssr_id, Addr out_base, u32 n) {
  b.li(kCfgTmp, static_cast<i64>(n - 1));
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, CfgReg::kBound0));
  b.li(kCfgTmp, 8);
  b.scfgw(kCfgTmp, ssr::cfg_index(ssr_id, CfgReg::kStride0));
  b.li(kCfgTmp2, static_cast<i64>(out_base));
  b.scfgw(kCfgTmp2, ssr::cfg_index(ssr_id, CfgReg::kWptr0));
}

} // namespace

const char* stencil_kind_name(StencilKind kind) {
  switch (kind) {
    case StencilKind::kBox3d1r: return "box3d1r";
    case StencilKind::kJ3d27pt: return "j3d27pt";
    case StencilKind::kStar3d1r: return "star3d1r";
  }
  return "?";
}

u32 stencil_neighbors(StencilKind kind) {
  return kind == StencilKind::kStar3d1r ? 7u : kBoxNbr;
}

const char* stencil_variant_name(StencilVariant v) {
  switch (v) {
    case StencilVariant::kBaseMM: return "Base--";
    case StencilVariant::kBaseM: return "Base-";
    case StencilVariant::kBase: return "Base";
    case StencilVariant::kChaining: return "Chaining";
    case StencilVariant::kChainingPlus: return "Chaining+";
  }
  return "?";
}

u32 stencil_interior_points(const StencilParams& p) {
  return (p.nx - 2) * (p.ny - 2) * (p.nz - 2);
}

BuiltKernel build_stencil(StencilKind kind, StencilVariant variant,
                          const StencilParams& p) {
  if (p.unroll != 4) {
    throw std::invalid_argument("stencil: only unroll=4 is implemented "
                                "(= FPU depth + 1, the chain FIFO capacity)");
  }
  if (p.nx < 3 || p.ny < 3 || p.nz < 3) {
    throw std::invalid_argument("stencil: grid too small for radius 1");
  }
  Layout lay;
  lay.nx = p.nx;
  lay.ny = p.ny;
  lay.nz = p.nz;
  lay.points = stencil_interior_points(p);
  if (lay.points % 4 != 0) {
    throw std::invalid_argument("stencil: interior points must be a multiple of 4");
  }
  lay.groups = lay.points / 4;
  const u32 cells = p.nx * p.ny * p.nz;
  if (cells > 0xFFFF) {
    throw std::invalid_argument("stencil: grid exceeds 16-bit index range");
  }

  const u32 nbr = stencil_neighbors(kind);
  const bool j3d = kind == StencilKind::kJ3d27pt;
  const bool chained = variant == StencilVariant::kChaining ||
                       variant == StencilVariant::kChainingPlus;
  const bool ssr_writeback = variant == StencilVariant::kBaseM ||
                             variant == StencilVariant::kChainingPlus;
  const bool coef_streamed = variant == StencilVariant::kBase;
  const bool coef_resident_all = chained;

  // --- data segment ---------------------------------------------------------
  ProgramBuilder b;
  std::vector<double> in(cells);
  for (u32 i = 0; i < cells; ++i) in[i] = input_value(i);
  const std::vector<double> coef = make_coefficients(kind);
  const std::vector<i32> interior = interior_cells(lay);
  const std::vector<i32> nbr_off = neighbor_offsets(kind, lay);
  std::vector<u16> idx_even, idx_odd;
  build_index_arrays(interior, nbr_off, idx_even, idx_odd);

  lay.in_base = b.data_f64(in);
  lay.out_base = b.data_zero(lay.points * 8);
  lay.coef_base = b.data_f64(coef);
  const Addr omega_addr = b.data_f64({kOmegaValue});
  lay.idx_even_base = b.data_u16(idx_even);
  lay.idx_odd_base = b.data_u16(idx_odd);

  const usize data_bytes = b.data_here() - memmap::kTcdmBase;
  if (data_bytes > memmap::kTcdmSize) {
    throw std::invalid_argument("stencil: working set exceeds the TCDM");
  }

  BuiltKernel out;
  out.name = std::string(stencil_kind_name(kind)) + "/" +
             stencil_variant_name(variant);
  out.out_base = lay.out_base;
  out.regions = {{"in", lay.in_base, cells * 8ull},
                 {"out", lay.out_base, lay.points * 8ull, /*written=*/true},
                 {"coef", lay.coef_base, coef.size() * 8ull},
                 {"omega", omega_addr, 8},
                 {"idx_even", lay.idx_even_base, idx_even.size() * 2ull},
                 {"idx_odd", lay.idx_odd_base, idx_odd.size() * 2ull}};
  GoldenResult g = golden(kind, interior, nbr_off, in, coef);
  out.expected = std::move(g.out);
  out.useful_flops = g.flops;

  // --- streams --------------------------------------------------------------
  const u32 gather_elems = lay.groups * nbr * 2;
  if (coef_streamed) {
    // Base: SSR0 = even gather, SSR1 = coef stream, SSR2 = odd gather.
    arm_gather(b, 0, lay.idx_even_base, gather_elems, lay.in_base);
    arm_coef_stream(b, 1, lay.coef_base, lay.groups, nbr);
    arm_gather(b, 2, lay.idx_odd_base, gather_elems, lay.in_base);
  } else {
    arm_gather(b, 0, lay.idx_even_base, gather_elems, lay.in_base);
    arm_gather(b, 1, lay.idx_odd_base, gather_elems, lay.in_base);
    if (ssr_writeback) arm_write_stream(b, 2, lay.out_base, lay.points);
  }
  const u8 even_reg = isa::kFt0;
  const u8 odd_reg = coef_streamed ? isa::kFt2 : isa::kFt1;
  const u8 coef_stream_reg = isa::kFt1; // Base only

  // --- coefficient residency -------------------------------------------------
  // Chained variants keep all 27 in f5..f31; Base--/Base- keep the maximum
  // the register map allows (tail coefficients reload through f8..f11).
  u32 resident = 0;
  u8 resident_first = 0;
  if (coef_resident_all) {
    resident = nbr;
    resident_first = 5;
  } else if (!coef_streamed) {
    const u32 max_resident = max_resident_coefs(kind, variant);
    resident = p.resident_coefs == 0 ? max_resident
                                     : std::min(p.resident_coefs, max_resident);
    resident = std::min(resident, nbr);
    resident_first = static_cast<u8>(32 - resident);
  }
  const u32 reloaded = coef_streamed ? 0 : nbr - resident;

  b.la(kCoefPtr, lay.coef_base);
  auto coef_reg_of = [&](u32 k) -> u8 {
    // Resident tail-first: coefficients [0, resident) live in registers;
    // [resident, 27) rotate through the transient slots.
    if (k < resident) return static_cast<u8>(resident_first + k);
    return static_cast<u8>(kTransient0 + (k - resident) % 4);
  };
  if (!coef_streamed) {
    for (u32 k = 0; k < resident; ++k) {
      b.fld(coef_reg_of(k), kCoefPtr, static_cast<i32>(8 * k));
    }
  }
  // Omega lives in f7 for the accumulator-register variants; the chained
  // variants dedicate f5..f31 to coefficients, leaving f4 for omega.
  const u8 omega_reg = chained ? u8{4} : kOmega;
  if (j3d) {
    b.la(kAddrTmp, omega_addr);
    b.fld(omega_reg, kAddrTmp, 0);
  }

  b.csrwi(isa::csr::kSsrEnable, 1);
  if (chained) {
    u32 mask = 1u << kChainReg;
    // j3d27pt/Chaining also chains ft2 for the scale+store drain.
    if (j3d && variant == StencilVariant::kChaining) mask |= 1u << isa::kFt2;
    b.li(kCfgTmp, static_cast<i64>(mask));
    b.csrs(isa::csr::kChainMask, kCfgTmp);
    out.regs.chained_regs = (j3d && variant == StencilVariant::kChaining) ? 2 : 1;
  }

  const bool explicit_store = !ssr_writeback;
  if (explicit_store) b.la(kStorePtr, lay.out_base);
  b.li(kGroupCnt, static_cast<i64>(lay.groups));
  if (coef_streamed) b.li(kFrepReps, static_cast<i64>(nbr) - 1);

  // --- the group loop ---------------------------------------------------------
  b.label("group");

  if (coef_streamed) {
    // Base: zero the four accumulators, then a FREP-replayed 4-instruction
    // body (one fmadd per interleaved point) runs 27 times while the integer
    // core prepares the next group.
    for (u32 j = 0; j < 4; ++j) b.fcvt_d_w(static_cast<u8>(kAcc0 + j), 0);
    b.frep_o(kFrepReps, 4);
    b.fmadd_d(kAcc0 + 0, even_reg, coef_stream_reg, kAcc0 + 0);
    b.fmadd_d(kAcc0 + 1, odd_reg, coef_stream_reg, kAcc0 + 1);
    b.fmadd_d(kAcc0 + 2, even_reg, coef_stream_reg, kAcc0 + 2);
    b.fmadd_d(kAcc0 + 3, odd_reg, coef_stream_reg, kAcc0 + 3);
  } else if (chained) {
    // k-major interleave through the single chained accumulator: the FIFO
    // holds the four in-flight partial sums in the FPU pipeline registers.
    for (u32 k = 0; k < nbr; ++k) {
      const u8 ck = coef_reg_of(k);
      for (u32 jj = 0; jj < 4; ++jj) {
        const u8 gsrc = (jj % 2 == 0) ? even_reg : odd_reg;
        if (k == 0) {
          b.fmul_d(kChainReg, gsrc, ck); // push: no accumulator input yet
        } else if (k == nbr - 1 && variant == StencilVariant::kChainingPlus &&
                   !j3d) {
          // box3d1r/Chaining+: final fmadd writes the stream directly.
          b.fmadd_d(isa::kFt2, gsrc, ck, kChainReg);
        } else {
          b.fmadd_d(kChainReg, gsrc, ck, kChainReg);
        }
      }
    }
  } else {
    // Base--/Base-: integer-core-issued unrolled body with four accumulator
    // registers; tail coefficients stream through the transient slots via
    // fld one k-step ahead of use.
    for (u32 k = 0; k < nbr; ++k) {
      if (k + 1 < nbr && k + 1 >= resident) {
        b.fld(coef_reg_of(k + 1), kCoefPtr, static_cast<i32>(8 * (k + 1)));
      }
      const u8 ck = coef_reg_of(k);
      for (u32 jj = 0; jj < 4; ++jj) {
        const u8 gsrc = (jj % 2 == 0) ? even_reg : odd_reg;
        const u8 acc = static_cast<u8>(kAcc0 + jj);
        if (k == 0) {
          b.fmul_d(acc, gsrc, ck);
        } else {
          b.fmadd_d(acc, gsrc, ck, acc);
        }
      }
    }
  }

  // --- drain / writeback -------------------------------------------------------
  if (chained) {
    if (j3d) {
      // Scale by omega while draining. Chaining+: fmul pops ft3 and pushes
      // the write stream; Chaining: fmul pushes the *chained* ft2, popped by
      // the stores -- no scratch registers needed either way.
      for (u32 jj = 0; jj < 4; ++jj) b.fmul_d(isa::kFt2, kChainReg, omega_reg);
      if (explicit_store) {
        for (u32 jj = 0; jj < 4; ++jj) {
          b.fsd(isa::kFt2, kStorePtr, static_cast<i32>(8 * jj));
        }
      }
    } else if (explicit_store) {
      for (u32 jj = 0; jj < 4; ++jj) {
        b.fsd(kChainReg, kStorePtr, static_cast<i32>(8 * jj));
      }
    }
    // box3d1r/Chaining+ folded the drain into the last fmadd.
  } else {
    if (j3d) {
      if (ssr_writeback) {
        for (u32 jj = 0; jj < 4; ++jj) {
          b.fmul_d(isa::kFt2, static_cast<u8>(kAcc0 + jj), kOmega);
        }
      } else {
        // Scale into scratches, then store (interleaved to hide the FMA
        // latency). Base-- frees ft2 (no third stream) and keeps f12..f14
        // below the resident block; Base (all three SSRs busy, no resident
        // coefficients) uses the free mid registers f8..f11 instead.
        const bool ft2_free = !coef_streamed;
        const std::array<u8, 4> scratch =
            ft2_free ? std::array<u8, 4>{isa::kFt2, 12, 13, 14}
                     : std::array<u8, 4>{8, 9, 10, 11};
        for (u32 jj = 0; jj < 4; ++jj) {
          b.fmul_d(scratch[jj], static_cast<u8>(kAcc0 + jj), kOmega);
        }
        for (u32 jj = 0; jj < 4; ++jj) {
          b.fsd(scratch[jj], kStorePtr, static_cast<i32>(8 * jj));
        }
      }
    } else {
      if (ssr_writeback) {
        for (u32 jj = 0; jj < 4; ++jj) {
          b.fmv_d(isa::kFt2, static_cast<u8>(kAcc0 + jj));
        }
      } else {
        for (u32 jj = 0; jj < 4; ++jj) {
          b.fsd(static_cast<u8>(kAcc0 + jj), kStorePtr, static_cast<i32>(8 * jj));
        }
      }
    }
  }

  if (explicit_store) b.addi(kStorePtr, kStorePtr, 32);
  b.addi(kGroupCnt, kGroupCnt, -1);
  b.bnez(kGroupCnt, "group");

  if (chained) b.csrw(isa::csr::kChainMask, 0);
  b.csrwi(isa::csr::kSsrEnable, 0);
  b.ecall();

  // --- register report ----------------------------------------------------------
  out.regs.ssr_regs = coef_streamed || ssr_writeback ? 3 : 2;
  out.regs.accumulator_regs = chained ? 1 : 4;
  out.regs.coefficient_regs = coef_streamed ? 0 : resident;
  u32 used = out.regs.ssr_regs + out.regs.accumulator_regs +
             out.regs.coefficient_regs + (j3d ? 1 : 0);
  if (reloaded > 0) used += 4;                          // transient slots
  if (!chained && j3d && !ssr_writeback) used += 4;     // drain scratches
  out.regs.fp_regs_used = used;

  out.program = b.build();
  return out;
}

void register_stencil_kernels(Registry& r) {
  struct Kind {
    StencilKind kind;
    const char* description;
  };
  for (const Kind& k :
       {Kind{StencilKind::kBox3d1r,
             "SARIS 27-point box stencil (Fig. 3), indirect-gather streams"},
        Kind{StencilKind::kJ3d27pt,
             "SARIS 27-point Jacobi stencil (Fig. 3) with omega scaling"},
        Kind{StencilKind::kStar3d1r,
             "7-point star stencil, the not-register-limited negative control"}}) {
    r.add(KernelEntry{
        .name = stencil_kind_name(k.kind),
        .description = k.description,
        .variants = {"Base--", "Base-", "Base", "Chaining", "Chaining+"},
        .baseline_variant = "Base--",
        .chained_variant = "Chaining+",
        .params = {{"nx", 12, "grid x incl. radius-1 halo"},
                   {"ny", 12, "grid y incl. radius-1 halo"},
                   {"nz", 12, "grid z incl. radius-1 halo"}},
        .build = [kind = k.kind](const std::string& variant,
                                 const SizeMap& sizes) {
          StencilParams p;
          p.nx = static_cast<u32>(size_or(sizes, "nx", p.nx));
          p.ny = static_cast<u32>(size_or(sizes, "ny", p.ny));
          p.nz = static_cast<u32>(size_or(sizes, "nz", p.nz));
          for (StencilVariant v :
               {StencilVariant::kBaseMM, StencilVariant::kBaseM,
                StencilVariant::kBase, StencilVariant::kChaining,
                StencilVariant::kChainingPlus}) {
            if (variant == stencil_variant_name(v)) {
              return build_stencil(kind, v, p);
            }
          }
          throw std::invalid_argument(std::string(stencil_kind_name(kind)) +
                                      ": unknown variant '" + variant + "'");
        }});
  }
}

} // namespace sch::kernels
