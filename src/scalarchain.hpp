// Umbrella header for the scalar-chaining reproduction library.
//
// Subsystems (see DESIGN.md for the full inventory):
//   isa/      RV32IMFD + Zicsr + Xssr/Xfrep/Xchain encodings and metadata
//   asm/      two-pass assembler + ProgramBuilder emission API
//   mem/      functional memory + banked-TCDM timing model
//   ssr/      stream semantic registers (affine + SARIS-style indirect)
//   core/     the paper's contribution: scalar chaining (CSR 0x7C3)
//   iss/      functional golden-reference ISS
//   sim/      cycle-level Snitch-like core model
//   energy/   calibrated event-based power model
//   kernels/  the paper's evaluation kernels (Fig. 1 vecop, Fig. 3 stencils)
//   api/      the unified execution engine every front-end routes through
//             (RunRequest -> Engine -> RunReport, with pluggable Observers)
//   fuzz/     differential fuzzing: constrained random programs, ISS-vs-
//             cycle lockstep execution, ddmin reproducer minimization
#pragma once

#include "api/build_cache.hpp"
#include "api/engine.hpp"
#include "asm/assembler.hpp"
#include "asm/builder.hpp"
#include "asm/program.hpp"
#include "core/arch_chain.hpp"
#include "core/chain_config.hpp"
#include "core/chain_unit.hpp"
#include "core/cost_model.hpp"
#include "energy/activity.hpp"
#include "energy/energy_model.hpp"
#include "fuzz/fuzz.hpp"
#include "isa/csr.hpp"
#include "isa/decode.hpp"
#include "isa/disasm.hpp"
#include "isa/encode.hpp"
#include "isa/reg.hpp"
#include "iss/iss.hpp"
#include "kernels/axpy.hpp"
#include "kernels/conv2d.hpp"
#include "kernels/dot.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gemv.hpp"
#include "kernels/registry.hpp"
#include "kernels/stencil.hpp"
#include "kernels/vecop.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_runner.hpp"
#include "serve/rollup.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "ssr/ssr_file.hpp"
#include "verify/verify.hpp"
