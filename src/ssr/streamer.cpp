#include "ssr/streamer.hpp"

#include "mem/memory.hpp"

namespace sch::ssr {

namespace {

/// Arbitrate `addr` for `requester` when it lies in the TCDM window; an
/// address outside the window (user-settable stream pointers can leave it)
/// bypasses the banks un-arbitrated and is counted instead of wrapping
/// into a bogus bank index. Returns false when the bank denied the access.
bool request_or_bypass(Tcdm& tcdm, u32 requester, Addr addr, bool is_write) {
  if (!Memory::in_tcdm(addr)) {
    tcdm.count_out_of_range();
    return true;
  }
  return tcdm.request(requester, addr, is_write);
}

} // namespace

Streamer::Streamer(const StreamerConfig& config)
    : scfg_(config),
      data_fifo_(config.data_fifo_depth),
      idx_q_(config.idx_queue_depth),
      write_fifo_(config.write_fifo_depth) {}

void Streamer::arm(const SsrRawConfig& cfg, Addr ptr, u32 dims, StreamDir dir) {
  cfg_ = cfg;
  dir_ = dir;
  indirect_ = cfg.indirect();
  // Repetition replays buffered data; the generator runs repeat-free.
  gen_.arm(ptr, dims, cfg.bounds, cfg.strides, 0);
  data_fifo_.clear();
  idx_q_.clear();
  write_fifo_.clear();
}

void Streamer::disarm() {
  dir_ = StreamDir::kNone;
  indirect_ = false;
  gen_.reset();
  data_fifo_.clear();
  idx_q_.clear();
  write_fifo_.clear();
}

bool Streamer::idle() const {
  if (dir_ == StreamDir::kNone) return true;
  if (dir_ == StreamDir::kRead) {
    return gen_.done() && idx_q_.empty() && data_fifo_.empty();
  }
  return write_fifo_.empty();
}

bool Streamer::fifo_has_room() const {
  return data_fifo_.size() < scfg_.data_fifo_depth;
}

void Streamer::fetch_index_word(Cycle now, Tcdm& tcdm, Memory& mem,
                                u32 requester) {
  const Addr word_addr = gen_.peek() & ~Addr{7};
  if (!request_or_bypass(tcdm, requester, word_addr, /*is_write=*/false)) {
    ++stats_.conflict_retries;
    return;
  }
  ++stats_.idx_reads;
  const u32 idx_bytes = 1u << cfg_.idx_size_log2();
  const u64 idx_mask = idx_bytes == 8 ? ~u64{0} : (u64{1} << (8 * idx_bytes)) - 1;
  // Decode every index the fetched word covers (packed-index amortization),
  // slicing each out of one load of the word. An index that straddles into
  // the next word, or a word outside the address map, is loaded on its own,
  // so its bytes and a BusError's address are those of the index itself.
  const bool word_mapped = mem.valid(word_addr, 8);
  const u64 word = word_mapped ? mem.load(word_addr, 8) : 0;
  while (!gen_.done() && (gen_.peek() & ~Addr{7}) == word_addr &&
         idx_q_.size() < scfg_.idx_queue_depth) {
    const Addr idx_addr = gen_.peek();
    const u32 offset = idx_addr & 7u;
    const u64 idx = word_mapped && offset + idx_bytes <= 8
                        ? (word >> (8 * offset)) & idx_mask
                        : mem.load(idx_addr, idx_bytes);
    const Addr data_addr =
        cfg_.idx_base + static_cast<Addr>(idx << cfg_.idx_shift());
    idx_q_.push(IdxEntry{data_addr, now + 1});
    gen_.advance();
  }
}

bool Streamer::data_addr_known(Cycle now) const {
  if (!indirect_) return !gen_.done();
  return !idx_q_.empty() && idx_q_.front().available_at <= now;
}

Addr Streamer::next_data_addr() const {
  return indirect_ ? idx_q_.front().data_addr : gen_.peek();
}

void Streamer::consume_data_addr() {
  if (indirect_) {
    idx_q_.pop();
  } else {
    gen_.advance();
  }
}

void Streamer::tick_fetch(Cycle now, Tcdm& tcdm, Memory& mem, u32 requester) {
  if (dir_ == StreamDir::kNone) return;

  if (dir_ == StreamDir::kRead) {
    // Prefer a data fetch; fall back to an index-word fetch.
    if (data_addr_known(now) && fifo_has_room()) {
      const Addr addr = next_data_addr();
      if (!request_or_bypass(tcdm, requester, addr, /*is_write=*/false)) {
        ++stats_.conflict_retries;
        return;
      }
      ++stats_.data_reads;
      data_fifo_.push(DataEntry{mem.load(addr, 8), cfg_.repeat + 1, now + 1});
      consume_data_addr();
      return;
    }
    if (indirect_ && !gen_.done() && idx_q_.size() < scfg_.idx_queue_depth) {
      fetch_index_word(now, tcdm, mem, requester);
    }
    return;
  }

  // Write stream: drain the FIFO head.
  if (write_fifo_.empty()) return;
  if (indirect_ && !data_addr_known(now)) {
    if (!gen_.done() && idx_q_.size() < scfg_.idx_queue_depth) {
      fetch_index_word(now, tcdm, mem, requester);
    }
    return;
  }
  if (!data_addr_known(now)) return; // affine stream exhausted: drop nothing, program bug
  const Addr addr = next_data_addr();
  if (!request_or_bypass(tcdm, requester, addr, /*is_write=*/true)) {
    ++stats_.conflict_retries;
    return;
  }
  ++stats_.data_writes;
  mem.store(addr, write_fifo_.front(), 8);
  write_fifo_.pop();
  consume_data_addr();
}

} // namespace sch::ssr
