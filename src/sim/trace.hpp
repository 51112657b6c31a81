// Per-cycle trace recording for the Fig. 1c-style issue trace and the
// Fig. 2-style dataflow snapshot (FPU pipeline occupancy + chain register
// state + SSR FIFO levels, with issue sequence numbers as the paper's
// numbered tokens).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace sch::sim {

struct TraceEntry {
  Cycle cycle = 0;
  std::string int_issue;  // integer-core action ("" = bubble/stall)
  std::string fp_issue;   // FP issue-stage action ("" = none)
  std::string fp_stall;   // FP stall cause ("" = none)

  // Fig. 2 snapshot: issue sequence number occupying each FPU stage
  // (0 = empty), taken at end of cycle; stage[0] is the youngest.
  std::array<u64, 8> fpu_stage_seq{};
  u32 fpu_depth = 0;

  // First chaining-enabled register's state (the paper tracks ft3).
  bool chain_tracked = false;
  u8 chain_reg = 0;
  bool chain_valid = false;
  u64 chain_value = 0;

  std::array<u32, 3> ssr_read_fifo{};  // visible read-FIFO entries
  std::array<u32, 3> ssr_write_fifo{}; // pending write-FIFO entries
};

class Trace {
 public:
  void record(TraceEntry entry) { entries_.push_back(std::move(entry)); }
  [[nodiscard]] const std::vector<TraceEntry>& entries() const { return entries_; }

  /// Render the issue trace as a Fig. 1c-style table.
  [[nodiscard]] std::string format_issue_table() const;
  /// Render pipeline/chain occupancy over time (Fig. 2 tokens).
  [[nodiscard]] std::string format_dataflow(usize max_rows = 64) const;

 private:
  std::vector<TraceEntry> entries_;
};

} // namespace sch::sim
