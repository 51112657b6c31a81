// Performance counters with stall attribution. The FPU-utilization metric
// (Fig. 3 left) is fpu_ops / cycles; the stall taxonomy feeds EXPERIMENTS.md
// and the energy model's activity factors.
#pragma once

#include <iterator>

#include "common/types.hpp"

namespace sch::sim {

/// The one list of counters, in declaration order: X(member, stalls_key).
/// `stalls_key` is the counter's key in a report's "stalls" object, or
/// nullptr when reports leave it out. PerfCounters' members, operator+=,
/// kPerfFields (report stalls, `schsim sim`, the timing-oracle pins) all
/// expand this list.
#define SCH_PERF_COUNTERS(X)                                                  \
  X(cycles, nullptr)                                                          \
  /* Retire counts. */                                                        \
  X(int_instrs, nullptr)    /* on the int core (not offloaded) */             \
  X(fp_instrs, nullptr)     /* FP subsystem: compute + fld/fsd */             \
  X(offloads, nullptr)      /* instructions pushed into the FP queue */       \
  X(fpu_ops, nullptr)       /* FP compute operations entering the FPU */      \
  /* Instruction mix (for the energy model). */                               \
  X(int_alu_ops, nullptr)                                                     \
  X(int_mul_ops, nullptr)                                                     \
  X(int_div_ops, nullptr)                                                     \
  X(int_loads, nullptr)                                                       \
  X(int_stores, nullptr)                                                      \
  X(branches, nullptr)                                                        \
  X(csr_ops, nullptr)                                                         \
  X(fp_mac_ops, nullptr)    /* pipelined FP compute */                        \
  X(fp_div_ops, nullptr)    /* div + sqrt */                                  \
  X(fp_loads, nullptr)                                                        \
  X(fp_stores, nullptr)                                                       \
  /* Register-file activity (energy model). */                                \
  X(rf_int_reads, nullptr)                                                    \
  X(rf_int_writes, nullptr)                                                   \
  X(rf_fp_reads, nullptr)                                                     \
  X(rf_fp_writes, nullptr)                                                    \
  /* FP issue-stall attribution (cycles where an FP instruction was */        \
  /* available but could not issue). */                                       \
  X(stall_fp_raw, "fp_raw")           /* scoreboard RAW, normal register */   \
  X(stall_fp_waw, "fp_waw")           /* scoreboard WAW, normal register */   \
  X(stall_chain_empty, "chain_empty") /* chain FIFO empty (consumer early) */ \
  X(stall_chain_full, "chain_full")   /* writeback backpressure */            \
  X(stall_ssr_empty, "ssr_empty")     /* read-stream FIFO empty */            \
  X(stall_ssr_wfull, "ssr_wfull")     /* write-stream FIFO full */            \
  X(stall_fpu_busy, "fpu_busy")       /* div unit / frozen pipeline */        \
  X(stall_fp_lsu, "fp_lsu")           /* fld/fsd TCDM port or bank denied */  \
  X(fp_queue_empty, nullptr)          /* FP issue idle, nothing queued */     \
  /* Integer-core stalls. */                                                  \
  X(stall_offload_full, "offload_full") /* FP queue full */                   \
  X(stall_int_raw, "int_raw")     /* load-use / FP->int / mul in flight */    \
  X(stall_int_lsu, "int_lsu")     /* TCDM port or bank denied */              \
  X(stall_csr_barrier, "csr_barrier") /* stream CSR awaits FP quiescence */   \
  X(stall_dma_full, "dma_full")   /* dmcpy retrying a full DMA queue */       \
  X(branch_bubbles, "branch_bubbles")                                         \
  X(int_div_busy, nullptr)        /* blocking divider cycles */

struct PerfCounters {
#define SCH_PERF_MEMBER(member, stalls_key) u64 member = 0;
  SCH_PERF_COUNTERS(SCH_PERF_MEMBER)
#undef SCH_PERF_MEMBER

  [[nodiscard]] double fpu_utilization() const {
    return cycles == 0 ? 0.0 : static_cast<double>(fpu_ops) / static_cast<double>(cycles);
  }
  [[nodiscard]] u64 total_retired() const { return int_instrs + fp_instrs; }

  /// Field-wise sum (cluster aggregation). `cycles` is summed too — the
  /// cluster overwrites it with its own cycle count afterwards.
  PerfCounters& operator+=(const PerfCounters& o) {
#define SCH_PERF_ADD(member, stalls_key) member += o.member;
    SCH_PERF_COUNTERS(SCH_PERF_ADD)
#undef SCH_PERF_ADD
    return *this;
  }

  /// Field-wise equality (defaulted, so a new counter is included
  /// automatically). The fast-path equivalence suite pins reports produced
  /// with the host-speed fast paths off vs on bit-identical through this.
  [[nodiscard]] bool operator==(const PerfCounters&) const = default;
};

/// One row of the counter list, for code that walks every counter.
struct PerfField {
  const char* name;        // member name (the timing-oracle key)
  const char* stalls_key;  // key in a report's "stalls" object, or nullptr
  u64 PerfCounters::*member;
};

inline constexpr PerfField kPerfFields[] = {
#define SCH_PERF_FIELD(member, stalls_key) \
  PerfField{#member, stalls_key, &PerfCounters::member},
    SCH_PERF_COUNTERS(SCH_PERF_FIELD)
#undef SCH_PERF_FIELD
};
static_assert(sizeof(PerfCounters) == std::size(kPerfFields) * sizeof(u64),
              "every PerfCounters member must come from SCH_PERF_COUNTERS");

} // namespace sch::sim
