// Microarchitectural parameters of the cycle-level core model. Defaults
// reproduce the Snitch configuration of the paper (3-stage FPU, 32-bank
// TCDM, 3 SSRs, FREP sequencer, pseudo dual-issue). Every timing-relevant
// field is also one row of kSimFields (below the struct): its "sim" key,
// member path and legal range, the single source that validation, scenario
// and serve parsing, the cache key and the CLI all iterate.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/bitfield.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "mem/tcdm.hpp"
#include "sim/fault_plan.hpp"
#include "ssr/streamer.hpp"

namespace sch::sim {

struct SimConfig {
  /// Pipelined FP compute depth (paper: 3 stages; "chaining benefits are
  /// increased for functional units with deeper pipelines").
  u32 fpu_depth = 3;
  /// Iterative (unpipelined) FP operation latencies.
  u32 fdiv_latency = 11;
  u32 fsqrt_latency = 21;

  /// Integer multiplier latency (pipelined).
  u32 int_mul_latency = 2;
  /// Integer divider latency (blocking).
  u32 int_div_latency = 20;

  /// Offload queue depth between the integer core and the FP subsystem.
  u32 fp_queue_depth = 8;
  /// FREP sequencer ring-buffer capacity (instructions).
  u32 seq_buffer_depth = 16;

  /// Extra cycles from TCDM grant to loaded data (1 = data next cycle,
  /// usable the cycle after: 2-cycle load-to-use).
  u32 load_latency = 1;
  /// Fixed latency of non-TCDM (bulk) memory accesses. Also the startup
  /// latency of every DMA transfer touching main memory.
  u32 main_mem_latency = 10;
  /// Main-memory bandwidth: bytes the DMA engine can stream per cycle once
  /// a transfer is past its startup latency.
  u32 main_mem_bytes_per_cycle = 8;
  /// Descriptor-FIFO depth of the cluster DMA engine; a dmcpy against a
  /// full queue retries (stall_dma_full) until a slot frees up.
  u32 dma_queue_depth = 4;

  /// Taken-branch fetch bubble.
  u32 taken_branch_penalty = 1;

  /// Forbid same-cycle chain-FIFO pop->push handoff (ablation A3).
  bool strict_chain_handoff = false;

  /// Cores in the cluster, all sharing the banked TCDM (each contributes its
  /// LSU port + three SSR ports to the arbiter). 1 reproduces the paper's
  /// single-core configuration bit-exactly.
  u32 num_cores = 1;
  /// Upper bound on num_cores (requester bookkeeping stays sane).
  static constexpr u32 kMaxCores = 64;

  TcdmConfig tcdm{};
  ssr::StreamerConfig ssr{};

  u64 max_cycles = 200'000'000;
  /// Abort when no instruction retires for this many cycles (deadlock
  /// detector for chain-FIFO underflow / exhausted-stream stalls).
  u64 deadlock_cycles = 50'000;
  /// Host wall-clock budget per run in milliseconds (0 = unlimited). Checked
  /// every few thousand cycles/steps by both engines; exceeding it halts
  /// with a failed budget_exceeded report, never an abort. Off by default so
  /// reports stay bit-identical across hosts; the fuzz harness sets it.
  u64 max_wall_ms = 0;

  /// Deliberate state corruptions applied by the cycle engine (see
  /// sim/fault_plan.hpp). Null = no faults; the ISS never applies them.
  std::shared_ptr<const FaultPlan> faults;

  /// Forwarded into IssConfig::fast_dispatch by api::Engine: the functional
  /// ISS half of a run executes through the threaded superblock loop.
  /// Architecturally invisible; exposed here so the equivalence suite can
  /// force the portable step loop through one RunRequest knob.
  bool fast_dispatch = true;

  /// Range check of every kSimFields row (below): a zero depth on any
  /// queue does not fail loudly at runtime -- it deadlocks the scoreboard or
  /// indexes an empty ring buffer -- and an absurd one costs minutes of host
  /// time, so both are rejected up front with a message naming the member
  /// path (e.g. "tcdm.num_banks"). Called by api::Engine before every run and
  /// by the Simulator constructor (which throws std::invalid_argument on
  /// failure).
  [[nodiscard]] Status validate() const;
};

/// One row of the SimConfig field table. A field is settable (scenario and
/// serve "sim" key, `schsim --set key=value`), range-checked (validate() and
/// scenario::apply_sim_overrides) and part of the build/report cache key if
/// and only if it is a row of kSimFields. The host-side knobs max_wall_ms
/// and faults are deliberately not rows: no build depends on them.
struct SimField {
  enum Kind : u8 { kInt, kPow2, kBool };

  const char* key;     // "sim" key and `--set` name
  const char* member;  // SimConfig member path, named by validate()
  Kind kind;           // kPow2: an integer that must be a power of two
  u64 min;
  u64 max;
  u64 (*get)(const SimConfig&);
  void (*set)(SimConfig&, u64);

  [[nodiscard]] constexpr bool accepts(u64 v) const {
    return v >= min && v <= max && (kind != kPow2 || is_pow2(v));
  }
  /// What the field accepts: "a bool", "an integer in 1..64", ...
  [[nodiscard]] std::string expected() const;
};

inline constexpr u64 kMaxLatency = u64{1} << 20;  // also bandwidth, penalty
inline constexpr u64 kMaxQueueDepth = 1024;
inline constexpr u64 kMaxFpuDepth = 64;  // host time grows with depth^2

// The setter's static_asserts tie each row's kind and range to its member's
// type, so a row can neither truncate nor mistype its field.
#define SCH_SIM_FIELD(key, member, kind, lo, hi)                         \
  SimField{key, #member, SimField::kind, lo, hi,                        \
           [](const SimConfig& c) { return static_cast<u64>(c.member); }, \
           [](SimConfig& c, u64 v) {                                    \
             using T = decltype(c.member);                              \
             static_assert(std::is_same_v<T, bool> ==                   \
                           (SimField::kind == SimField::kBool));        \
             static_assert((hi) <= std::numeric_limits<T>::max());      \
             c.member = static_cast<T>(v);                              \
           }}

/// The table: one row per timing-relevant SimConfig field.
inline constexpr SimField kSimFields[] = {
    SCH_SIM_FIELD("fpu_depth", fpu_depth, kInt, 1, kMaxFpuDepth),
    SCH_SIM_FIELD("fdiv_latency", fdiv_latency, kInt, 1, kMaxLatency),
    SCH_SIM_FIELD("fsqrt_latency", fsqrt_latency, kInt, 1, kMaxLatency),
    SCH_SIM_FIELD("int_mul_latency", int_mul_latency, kInt, 1, kMaxLatency),
    SCH_SIM_FIELD("int_div_latency", int_div_latency, kInt, 1, kMaxLatency),
    SCH_SIM_FIELD("fp_queue_depth", fp_queue_depth, kInt, 1, kMaxQueueDepth),
    SCH_SIM_FIELD("seq_buffer_depth", seq_buffer_depth, kInt, 1, kMaxQueueDepth),
    SCH_SIM_FIELD("load_latency", load_latency, kInt, 1, kMaxLatency),
    SCH_SIM_FIELD("main_mem_latency", main_mem_latency, kInt, 1, kMaxLatency),
    SCH_SIM_FIELD("main_mem_bytes_per_cycle", main_mem_bytes_per_cycle, kInt, 1,
                  kMaxLatency),
    SCH_SIM_FIELD("dma_queue_depth", dma_queue_depth, kInt, 1, kMaxQueueDepth),
    SCH_SIM_FIELD("taken_branch_penalty", taken_branch_penalty, kInt, 0,
                  kMaxLatency),
    SCH_SIM_FIELD("strict_handoff", strict_chain_handoff, kBool, 0, 1),
    SCH_SIM_FIELD("cores", num_cores, kInt, 1, SimConfig::kMaxCores),
    SCH_SIM_FIELD("tcdm_banks", tcdm.num_banks, kPow2, 1, TcdmConfig::kMaxBanks),
    SCH_SIM_FIELD("ssr_data_fifo_depth", ssr.data_fifo_depth, kInt, 1,
                  kMaxQueueDepth),
    SCH_SIM_FIELD("ssr_idx_queue_depth", ssr.idx_queue_depth, kInt, 1,
                  kMaxQueueDepth),
    SCH_SIM_FIELD("ssr_write_fifo_depth", ssr.write_fifo_depth, kInt, 1,
                  kMaxQueueDepth),
    SCH_SIM_FIELD("max_cycles", max_cycles, kInt, 1, ~u64{0}),
    SCH_SIM_FIELD("deadlock_cycles", deadlock_cycles, kInt, 1, ~u64{0}),
    SCH_SIM_FIELD("fast_dispatch", fast_dispatch, kBool, 0, 1),
};

#undef SCH_SIM_FIELD

/// The row whose key is `key`, or null.
const SimField* find_sim_field(std::string_view key);

} // namespace sch::sim
