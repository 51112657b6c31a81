// FP offload queue + FREP hardware-loop sequencer.
//
// The integer core pushes FP-domain instructions (with integer operands
// captured at offload time) into a bounded queue. The sequencer presents a
// front() instruction to the FP issue stage. A frep.o/frep.i marker puts the
// sequencer into capture mode: the next `body` instructions are copied into
// a ring buffer as they flow through, then replayed without integer-core
// involvement -- which is how SARIS-style kernels hide loop overhead.
// Bodies larger than the buffer are rejected (model error), which matters:
// chaining variants keep coefficients in named registers and their unrolled
// bodies exceed the buffer, so they cannot use FREP (see DESIGN.md §5).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/fixed_queue.hpp"
#include "common/types.hpp"
#include "isa/instr.hpp"
#include "isa/predecode.hpp"

namespace sch::sim {

/// An offloaded FP-domain instruction with captured integer operands. It
/// points at its instruction and predecoded record in the offloading
/// core's Program, which outlives every op in flight.
struct FpOp {
  const isa::Instr* in = nullptr;
  const isa::PredecodedInstr* pre = nullptr;
  /// For fld/fsd: effective address; for int->FP ops and frep: rs1 value.
  u32 int_operand = 0;
  /// Address the op was offloaded from (its failures report it).
  Addr pc = 0;
};

class Sequencer {
 public:
  Sequencer(u32 queue_depth, u32 buffer_depth)
      : queue_(queue_depth), buffer_depth_(buffer_depth) {}

  [[nodiscard]] bool queue_full() const { return queue_.full(); }

  /// Push from the integer core (offload). frep markers configure the
  /// sequencer when they reach the queue head.
  void push(FpOp op) { queue_.push(std::move(op)); }

  /// Next instruction for the FP issue stage (replay takes priority),
  /// consuming frep markers on the way. nullptr when nothing is available.
  /// Sets `error` (sticky) when a frep body exceeds the buffer. The pointer
  /// is valid until the next push/pop_front.
  const FpOp* peek();

  /// Copying convenience wrapper around peek() (tests).
  std::optional<FpOp> front() {
    const FpOp* op = peek();
    return op != nullptr ? std::optional<FpOp>(*op) : std::nullopt;
  }

  /// Consume the instruction returned by peek()/front().
  void pop_front();

  /// No queued work, no replay in progress.
  [[nodiscard]] bool idle() const {
    return queue_.empty() && state_ == State::kIdle;
  }

  /// True when a not-yet-executed FP memory op overlaps [addr, addr+bytes)
  /// and at least one side writes. Queued fld/fsd carry their effective
  /// address (captured at offload); a frep body in capture or replay will
  /// re-execute its memory ops on the remaining passes, so the ring buffer
  /// counts as pending too. This is the int-LSU ordering interlock: the
  /// integer core consults it before a load/store so that same-address
  /// accesses commit in program order across the offload boundary.
  [[nodiscard]] bool pending_mem_overlap(u32 addr, u32 bytes,
                                         bool int_is_write) const {
    const auto hazard = [&](const FpOp& op) {
      const isa::ExecHandler h = op.pre->handler;
      const bool is_store = h == isa::ExecHandler::kFpStore;
      if (h != isa::ExecHandler::kFpLoad && !is_store) return false;
      if (!int_is_write && !is_store) return false;  // read vs read
      return op.int_operand < addr + bytes &&
             addr < op.int_operand + op.pre->mem_bytes;
    };
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (hazard(queue_.at(i))) return true;
    }
    if (state_ != State::kIdle) {
      for (const FpOp& op : buffer_) {
        if (hazard(op)) return true;
      }
    }
    return false;
  }

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] bool has_error() const { return failed_; }
  /// pc of the frep marker behind error().
  [[nodiscard]] Addr error_pc() const { return error_pc_; }

  struct Stats {
    u64 replayed_ops = 0; // ops issued from the ring buffer (passes 2..N)
    u64 freps_executed = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  enum class State : u8 { kIdle, kCapturing, kReplaying };

  void start_frep(const FpOp& marker);
  /// Record a frep error (sticky) against the marker at `pc`.
  void fail(std::string message, Addr pc) {
    error_ = std::move(message);
    error_pc_ = pc;
    failed_ = true;
  }

  FixedQueue<FpOp> queue_;
  u32 buffer_depth_;

  State state_ = State::kIdle;
  bool inner_mode_ = false;     // frep.i: repeat each instruction in place
  std::vector<FpOp> buffer_;
  u32 body_len_ = 0;
  u32 total_passes_ = 0;        // rs1 + 1
  u32 capture_left_ = 0;
  u32 replay_pass_ = 0;         // current pass (0 = capture pass)
  u32 replay_idx_ = 0;
  u32 inner_rep_ = 0;           // frep.i repetition counter for current instr

  bool failed_ = false;
  std::string error_;
  Addr error_pc_ = 0;
  Stats stats_;
};

} // namespace sch::sim
