// Cluster DMA engine (Xdma). One engine per cluster moves blocks between
// main memory and the banked TCDM so kernels can stage working sets instead
// of assuming data magically lives in L1.
//
// Programming model (custom instructions, see docs/ISA.md):
//   dmsrc rs1          latch the source base address (per-hart front-end)
//   dmdst rs1          latch the destination base address
//   dmstr rs1, rs2     latch 2-D row strides (rs1 = source, rs2 = dest)
//   dmcpy rd, rs1      start a 1-D copy of rs1 bytes; rd <- transfer id
//   dmcpy2d rd, rs1, rs2
//                      start a 2-D copy: rs2 rows of rs1 bytes, advancing
//                      each base by its latched stride per row
//   dmstat rd, imm     imm=0: rd <- this hart's completed-transfer count
//                      imm=1: rd <- this hart's outstanding-transfer count
//
// Every hart owns a private set of front-end latches and a private id
// sequence (ids count 1, 2, ... per hart), so cores never race on the
// configuration registers; descriptors funnel into one shared FIFO that the
// cluster ticks once per cycle in the rotating arbitration slot.
//
// Timing model (cycle engine): the engine is a multi-context block mover
// (like Snitch's iDMA with multiple outstanding transfers) -- one channel
// per hart, each with a private descriptor FIFO:
//   * a channel's head transfer pays `main_mem_latency` startup cycles when
//     either end touches main memory, then streams up to
//     `main_mem_bytes_per_cycle` bytes per cycle in 8-byte beats (the
//     per-channel main-memory streaming bandwidth);
//   * every beat whose source or destination lies in the TCDM window must
//     win that bank for the cycle -- the engine is an extra requester in the
//     cluster's rotating bank arbitration, so transfers contend with (but
//     cannot starve) the cores' LSU and SSR ports; channels are served in a
//     rotating order so no hart's transfers are statically favored;
//   * bytes are committed to the functional Memory beat by beat; programs
//     must poll `dmstat` (or rely on per-hart FIFO completion order) before
//     touching a destination, exactly like real double-buffering code.
//
// The functional ISS uses FunctionalDma instead: copies complete instantly
// at issue, `dmstat` reports everything completed -- which matches the
// cycle engine's architectural state at every well-synchronized poll, so
// lockstep cross-checks still close.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"

namespace sch::dma {

/// Per-hart front-end latches (dmsrc/dmdst/dmstr state).
struct FrontEnd {
  Addr src = 0;
  Addr dst = 0;
  i32 src_stride = 0;
  i32 dst_stride = 0;
  u32 issued = 0;     // per-hart transfer ids handed out so far
  u32 completed = 0;  // per-hart transfers fully committed
};

/// One queued copy descriptor (front-end state snapshotted at issue).
struct Transfer {
  u32 hart = 0;
  u32 id = 0;  // per-hart sequence number (1-based)
  Addr src = 0;
  Addr dst = 0;
  i32 src_stride = 0;
  i32 dst_stride = 0;
  u32 row_bytes = 0;
  u32 rows = 1;
};

struct EngineStats {
  u64 transfers_issued = 0;
  u64 transfers_completed = 0;
  u64 bytes_moved = 0;
  u64 busy_cycles = 0;      // cycles with at least one channel active
  u64 startup_cycles = 0;   // channel-cycles spent in main-memory latency
  u64 tcdm_conflicts = 0;   // beats denied by the bank arbiter
  u64 queue_full_stalls = 0;  // dmcpy retries against a full channel queue

  [[nodiscard]] double achieved_bytes_per_cycle() const {
    return busy_cycles == 0
               ? 0.0
               : static_cast<double>(bytes_moved) / static_cast<double>(busy_cycles);
  }
};

/// Validate a copy footprint against the memory map. Returns a kBusError
/// status naming the offending end when any row falls outside mapped
/// memory, and a kValidation status when the shape is degenerate (zero
/// rows / zero row bytes).
[[nodiscard]] Status validate_copy(const Memory& mem, const Transfer& t);

/// Shared config knobs, mirrored from sim::SimConfig (kept here so the
/// dma module does not depend on the sim layer).
struct EngineConfig {
  u32 main_mem_latency = 10;
  u32 main_mem_bytes_per_cycle = 8;
  u32 queue_depth = 4;
};

class Engine {
 public:
  /// `memory` must outlive the engine. `num_harts` sizes the per-hart
  /// front-end array; `tcdm_requester` is this engine's global requester id
  /// in the shared bank arbiter (Tcdm::dma_requester_id).
  Engine(const EngineConfig& config, Memory& memory, u32 num_harts,
         u32 tcdm_requester);

  // --- front-end (executed by the cores' dm* instructions) -----------------
  void set_src(u32 hart, Addr addr) { fe_[hart].src = addr; }
  void set_dst(u32 hart, Addr addr) { fe_[hart].dst = addr; }
  void set_strides(u32 hart, i32 src_stride, i32 dst_stride) {
    fe_[hart].src_stride = src_stride;
    fe_[hart].dst_stride = dst_stride;
  }

  /// Room in hart `hart`'s descriptor FIFO? A dmcpy against a full queue
  /// retries the issue next cycle (counted in stats().queue_full_stalls by
  /// note_queue_full()).
  [[nodiscard]] bool can_issue(u32 hart) const {
    return ch_[hart].queue.size() < cfg_.queue_depth;
  }
  void note_queue_full() { ++stats_.queue_full_stalls; }

  /// Descriptor hart `hart`'s latches would produce for a copy of `rows`
  /// rows of `row_bytes` (1-D copies ignore the stride latches). Used by
  /// issue() and by callers that validate before issuing.
  [[nodiscard]] Transfer snapshot(u32 hart, u32 row_bytes, u32 rows) const;

  /// Snapshot hart `hart`'s latches into a descriptor and enqueue it on the
  /// hart's channel. Returns the per-hart transfer id (1-based). Caller
  /// validates the footprint first (validate_copy) and checks can_issue().
  u32 issue(u32 hart, u32 row_bytes, u32 rows);

  [[nodiscard]] u32 completed(u32 hart) const { return fe_[hart].completed; }
  [[nodiscard]] u32 outstanding(u32 hart) const {
    return fe_[hart].issued - fe_[hart].completed;
  }

  /// No transfer queued or in flight on any channel.
  [[nodiscard]] bool idle() const {
    for (const Channel& ch : ch_) {
      if (!ch.queue.empty()) return false;
    }
    return true;
  }

  /// Advance every channel's head transfer by one cycle: startup latency
  /// first, then up to main_mem_bytes_per_cycle bytes in 8-byte beats, each
  /// TCDM-side beat arbitrated through `tcdm`. Channels are served in a
  /// rotating order. Call once per cluster cycle.
  void tick(Cycle now, Tcdm& tcdm);

  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  /// Fault injection (sim::FaultKind::kTruncateDmaBeat): the next `n` beats
  /// skip their memory commit -- the transfer's progress bookkeeping runs as
  /// normal but the bytes never land at the destination.
  void inject_beat_drop(u32 n) { drop_beats_ += n; }

 private:
  /// In-flight progress of a channel's head transfer.
  struct Active {
    bool started = false;
    u32 startup_left = 0;
    u32 row = 0;
    u32 col = 0;       // byte offset within the current row
    Addr src_row = 0;  // current row base addresses
    Addr dst_row = 0;
    /// A beat whose read was granted but whose destination bank was denied
    /// stages its bytes here and retries just the write next cycle (this
    /// also resolves same-bank TCDM-to-TCDM copies, which would otherwise
    /// self-conflict forever).
    u8 pending[8] = {};
    u32 pending_len = 0;
    Addr pending_dst = 0;
  };

  /// One per-hart transfer context.
  struct Channel {
    std::deque<Transfer> queue;
    Active active;
  };

  void begin_head(Channel& ch);
  void finish_head(Channel& ch);
  bool advance_beat(Channel& ch, u32 beat);
  void tick_channel(Channel& ch, Tcdm& tcdm);

  EngineConfig cfg_;
  Memory& mem_;
  const u32 tcdm_requester_;
  std::vector<FrontEnd> fe_;
  std::vector<Channel> ch_;
  EngineStats stats_;
  u32 drop_beats_ = 0;  // armed beat-commit drops (fault injection)
};

/// Instant-copy functional model for the ISS: dmcpy commits the whole block
/// at issue and dmstat always reports zero outstanding transfers.
class FunctionalDma {
 public:
  void set_src(Addr addr) { fe_.src = addr; }
  void set_dst(Addr addr) { fe_.dst = addr; }
  void set_strides(i32 src_stride, i32 dst_stride) {
    fe_.src_stride = src_stride;
    fe_.dst_stride = dst_stride;
  }

  /// Validate and perform the copy instantly. On success returns the
  /// per-hart transfer id; on failure returns validate_copy's status.
  [[nodiscard]] Result<u32> copy(Memory& mem, u32 row_bytes, u32 rows);

  [[nodiscard]] u32 completed() const { return fe_.issued; }
  [[nodiscard]] u32 outstanding() const { return 0; }

 private:
  FrontEnd fe_;
};

} // namespace sch::dma
