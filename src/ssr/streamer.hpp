// Cycle-level stream register unit: prefetching read streams and draining
// write streams through a dedicated TCDM port, with bank-conflict retries.
//
// Timing model:
//  * one TCDM request per streamer per cycle (index fetch or data access);
//  * a granted access delivers data usable the following cycle;
//  * read data buffers in a small FIFO (default 4 entries); element
//    repetition replays a buffered entry without refetching;
//  * indirect streams fetch packed indices (8-byte words holding 8/4/2
//    indices) and translate data addresses as base + (idx << shift);
//  * write data buffers in a FIFO filled by FPU writeback; a full write
//    FIFO backpressures the FPU.
#pragma once

#include <cassert>

#include "common/fixed_queue.hpp"
#include "common/types.hpp"
#include "mem/memory.hpp"
#include "mem/tcdm.hpp"
#include "ssr/addr_gen.hpp"
#include "ssr/ssr_config.hpp"

namespace sch::ssr {

struct StreamerConfig {
  u32 data_fifo_depth = 4;
  u32 idx_queue_depth = 8;
  u32 write_fifo_depth = 4;
};

class Streamer {
 public:
  explicit Streamer(const StreamerConfig& config = {});

  void arm(const SsrRawConfig& cfg, Addr ptr, u32 dims, StreamDir dir);
  void disarm();

  [[nodiscard]] StreamDir dir() const { return dir_; }
  [[nodiscard]] bool armed() const { return dir_ != StreamDir::kNone; }

  /// All elements fetched and consumed (read) or drained to memory (write).
  [[nodiscard]] bool idle() const;

  // --- consumer interface (FP issue / writeback stages) ---
  [[nodiscard]] bool can_pop() const {
    return dir_ == StreamDir::kRead && !data_fifo_.empty() &&
           data_fifo_.front().available_at <= now_;
  }
  u64 pop() {
    assert(can_pop());
    DataEntry& e = data_fifo_.front();
    const u64 v = e.value;
    ++stats_.elements_popped;
    if (--e.copies == 0) data_fifo_.pop();
    return v;
  }
  [[nodiscard]] bool can_push() const {
    return dir_ == StreamDir::kWrite &&
           write_fifo_.size() < scfg_.write_fifo_depth;
  }
  void push(u64 value) {
    assert(can_push());
    write_fifo_.push(value);
    ++stats_.elements_pushed;
  }

  // --- simulation loop interface ---
  /// Commit data that became visible this cycle. Call before the FP stage.
  void begin_cycle(Cycle now) { now_ = now; }
  /// Issue at most one TCDM request as `requester` (a global requester id;
  /// see Tcdm::requester_id). Call after the FP stage.
  void tick_fetch(Cycle now, Tcdm& tcdm, Memory& mem, u32 requester);
  void tick_fetch(Cycle now, Tcdm& tcdm, Memory& mem, TcdmPortId port) {
    tick_fetch(now, tcdm, mem, static_cast<u32>(port));
  }

  struct Stats {
    u64 data_reads = 0;   // granted data fetches
    u64 idx_reads = 0;    // granted index-word fetches
    u64 data_writes = 0;  // granted write drains
    u64 conflict_retries = 0;
    u64 elements_popped = 0;
    u64 elements_pushed = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Occupancy views for traces (entry counts, staged entries included).
  [[nodiscard]] u32 read_fifo_level() const { return static_cast<u32>(data_fifo_.size()); }
  [[nodiscard]] u32 write_fifo_level() const { return static_cast<u32>(write_fifo_.size()); }

 private:
  struct DataEntry {
    u64 value;
    u32 copies;        // remaining pops this entry serves (repetition)
    Cycle available_at;
  };
  struct IdxEntry {
    Addr data_addr;
    Cycle available_at;
  };

  [[nodiscard]] bool fifo_has_room() const;
  [[nodiscard]] bool data_addr_known(Cycle now) const;
  [[nodiscard]] Addr next_data_addr() const;
  void consume_data_addr();
  void fetch_index_word(Cycle now, Tcdm& tcdm, Memory& mem, u32 requester);

  StreamerConfig scfg_;
  SsrRawConfig cfg_;
  AddrGen gen_;       // data addresses (affine) or index-array addresses (indirect)
  StreamDir dir_ = StreamDir::kNone;
  bool indirect_ = false;  // cfg_.indirect(), cached at arm()

  // Ring buffers over preallocated storage (hardware queues; the fetch loop
  // runs every cycle and must never allocate).
  FixedQueue<DataEntry> data_fifo_; // staged + visible entries (read side)
  FixedQueue<IdxEntry> idx_q_;      // translated data addresses (indirect)
  FixedQueue<u64> write_fifo_;

  Cycle now_ = 0;
  Stats stats_;
};

} // namespace sch::ssr
