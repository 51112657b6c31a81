#include "dma/dma.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace sch::dma {

namespace {

/// True when any byte of the transfer touches the bulk-memory region (such
/// transfers pay the main-memory startup latency).
bool touches_main(const Transfer& t) {
  Addr src = t.src;
  Addr dst = t.dst;
  for (u32 r = 0; r < t.rows; ++r) {
    if (!memmap::in_tcdm(src) || !memmap::in_tcdm(src + t.row_bytes - 1) ||
        !memmap::in_tcdm(dst) || !memmap::in_tcdm(dst + t.row_bytes - 1)) {
      return true;
    }
    src += static_cast<Addr>(t.src_stride);
    dst += static_cast<Addr>(t.dst_stride);
  }
  return false;
}

} // namespace

Status validate_copy(const Memory& mem, const Transfer& t) {
  if (t.row_bytes == 0) {
    return Status::error("dma: zero-byte copy (dmcpy size register is 0)");
  }
  if (t.rows == 0) {
    return Status::error("dma: zero-row 2-D copy (dmcpy2d row register is 0)");
  }
  Addr src = t.src;
  Addr dst = t.dst;
  for (u32 r = 0; r < t.rows; ++r) {
    if (!mem.valid(src, t.row_bytes)) {
      std::ostringstream os;
      os << "bus error: dma source row " << r << " [0x" << std::hex << src
         << ", 0x" << src + t.row_bytes << ") is unmapped";
      return Status::error(os.str(), FailureKind::kBusError);
    }
    if (!mem.valid(dst, t.row_bytes)) {
      std::ostringstream os;
      os << "bus error: dma destination row " << r << " [0x" << std::hex << dst
         << ", 0x" << dst + t.row_bytes << ") is unmapped";
      return Status::error(os.str(), FailureKind::kBusError);
    }
    src += static_cast<Addr>(t.src_stride);
    dst += static_cast<Addr>(t.dst_stride);
  }
  return Status::ok();
}

Engine::Engine(const EngineConfig& config, Memory& memory, u32 num_harts,
               u32 tcdm_requester)
    : cfg_(config), mem_(memory), tcdm_requester_(tcdm_requester) {
  assert(num_harts >= 1);
  fe_.resize(num_harts);
  ch_.resize(num_harts);
}

Transfer Engine::snapshot(u32 hart, u32 row_bytes, u32 rows) const {
  assert(hart < fe_.size());
  const FrontEnd& fe = fe_[hart];
  Transfer t;
  t.hart = hart;
  t.src = fe.src;
  t.dst = fe.dst;
  t.src_stride = rows > 1 ? fe.src_stride : static_cast<i32>(row_bytes);
  t.dst_stride = rows > 1 ? fe.dst_stride : static_cast<i32>(row_bytes);
  t.row_bytes = row_bytes;
  t.rows = rows;
  return t;
}

u32 Engine::issue(u32 hart, u32 row_bytes, u32 rows) {
  assert(can_issue(hart));
  Transfer t = snapshot(hart, row_bytes, rows);
  t.id = ++fe_[hart].issued;
  ch_[hart].queue.push_back(t);
  ++stats_.transfers_issued;
  return t.id;
}

void Engine::begin_head(Channel& ch) {
  const Transfer& t = ch.queue.front();
  ch.active = Active{};
  ch.active.started = true;
  ch.active.startup_left = touches_main(t) ? cfg_.main_mem_latency : 0;
  ch.active.src_row = t.src;
  ch.active.dst_row = t.dst;
}

void Engine::finish_head(Channel& ch) {
  const Transfer& t = ch.queue.front();
  FrontEnd& fe = fe_[t.hart];
  // A hart's transfers drain through its own channel in issue order, so
  // per-hart completion in id order holds by construction.
  assert(t.id == fe.completed + 1);
  fe.completed = t.id;
  ++stats_.transfers_completed;
  ch.queue.pop_front();
  ch.active = Active{};
}

// Commit one beat's worth of progress (the bytes have already landed in
// the functional memory). Returns true when the whole transfer finished.
bool Engine::advance_beat(Channel& ch, u32 beat) {
  stats_.bytes_moved += beat;
  const Transfer& t = ch.queue.front();
  ch.active.col += beat;
  if (ch.active.col == t.row_bytes) {
    ch.active.col = 0;
    ++ch.active.row;
    if (ch.active.row == t.rows) {
      finish_head(ch);
      return true;
    }
    ch.active.src_row += static_cast<Addr>(t.src_stride);
    ch.active.dst_row += static_cast<Addr>(t.dst_stride);
  }
  return false;
}

void Engine::tick_channel(Channel& ch, Tcdm& tcdm) {
  if (ch.queue.empty()) return;
  if (!ch.active.started) begin_head(ch);

  if (ch.active.startup_left > 0) {
    --ch.active.startup_left;
    ++stats_.startup_cycles;
    return;
  }

  u32 budget = cfg_.main_mem_bytes_per_cycle;

  // A beat whose destination bank was denied last cycle already holds its
  // read data; retry just the write (this also breaks the self-conflict of
  // TCDM-to-TCDM copies whose source and destination share a bank).
  if (ch.active.pending_len > 0) {
    if (!tcdm.request(tcdm_requester_, ch.active.pending_dst, true)) {
      ++stats_.tcdm_conflicts;
      return;
    }
    if (drop_beats_ > 0) {
      --drop_beats_;  // fault injection: the staged bytes never land
    } else {
      for (u32 i = 0; i < ch.active.pending_len; ++i) {
        mem_.store(ch.active.pending_dst + i, ch.active.pending[i], 1);
      }
    }
    const u32 len = ch.active.pending_len;
    ch.active.pending_len = 0;
    budget -= len;
    if (advance_beat(ch, len)) return;
  }

  while (budget > 0) {
    const Transfer& t = ch.queue.front();
    const u32 row_left = t.row_bytes - ch.active.col;
    const u32 beat = std::min({8u, row_left, budget});
    const Addr src = ch.active.src_row + ch.active.col;
    const Addr dst = ch.active.dst_row + ch.active.col;
    // TCDM-side beats must win their bank this cycle; a source denial ends
    // the channel's beats for the cycle (in-order mover).
    if (memmap::in_tcdm(src) && !tcdm.request(tcdm_requester_, src, false)) {
      ++stats_.tcdm_conflicts;
      return;
    }
    if (memmap::in_tcdm(dst) && !tcdm.request(tcdm_requester_, dst, true)) {
      // The read was granted but the write bank is taken: stage the bytes
      // and commit them next cycle.
      ++stats_.tcdm_conflicts;
      for (u32 i = 0; i < beat; ++i) {
        ch.active.pending[i] = static_cast<u8>(mem_.load(src + i, 1));
      }
      ch.active.pending_len = beat;
      ch.active.pending_dst = dst;
      return;
    }
    if (drop_beats_ > 0) {
      --drop_beats_;  // fault injection: this beat's bytes never land
    } else {
      for (u32 i = 0; i < beat; ++i) {
        mem_.store(dst + i, mem_.load(src + i, 1), 1);
      }
    }
    budget -= beat;
    if (advance_beat(ch, beat)) return;
  }
}

void Engine::tick(Cycle now, Tcdm& tcdm) {
  if (idle()) return;
  ++stats_.busy_cycles;
  // Rotate the channel service order so no hart's transfers are statically
  // favored at the banks.
  const u32 n = static_cast<u32>(ch_.size());
  const u32 start = static_cast<u32>(now % n);
  for (u32 k = 0; k < n; ++k) {
    tick_channel(ch_[(start + k) % n], tcdm);
  }
}

Result<u32> FunctionalDma::copy(Memory& mem, u32 row_bytes, u32 rows) {
  Transfer t;
  t.src = fe_.src;
  t.dst = fe_.dst;
  t.src_stride = rows > 1 ? fe_.src_stride : static_cast<i32>(row_bytes);
  t.dst_stride = rows > 1 ? fe_.dst_stride : static_cast<i32>(row_bytes);
  t.row_bytes = row_bytes;
  t.rows = rows;
  const Status s = validate_copy(mem, t);
  if (!s.is_ok()) return s;
  Addr src = t.src;
  Addr dst = t.dst;
  for (u32 r = 0; r < rows; ++r) {
    for (u32 i = 0; i < row_bytes; ++i) {
      mem.store(dst + i, mem.load(src + i, 1), 1);
    }
    src += static_cast<Addr>(t.src_stride);
    dst += static_cast<Addr>(t.dst_stride);
  }
  return ++fe_.issued;
}

} // namespace sch::dma
