#include "sim/sequencer.hpp"

#include <cassert>

namespace sch::sim {

using isa::Mnemonic;

void Sequencer::start_frep(const FpOp& marker) {
  // The integer core offloads only markers whose body predecode validated
  // (isa::preflag::kFrepBodyOk): non-empty, FP-domain only, so no nesting.
  const u32 body = static_cast<u32>(marker.in->imm);
  assert(state_ == State::kIdle && body != 0);
  if (body > buffer_depth_) {
    fail("frep body of " + std::to_string(body) + " instructions exceeds the " +
             std::to_string(buffer_depth_) + "-entry sequencer buffer",
         marker.pc);
    return;
  }
  inner_mode_ = marker.in->mn == Mnemonic::kFrepI;
  body_len_ = body;
  total_passes_ = marker.int_operand + 1;
  capture_left_ = body;
  buffer_.clear();
  replay_pass_ = 0;
  replay_idx_ = 0;
  inner_rep_ = 0;
  state_ = State::kCapturing;
  ++stats_.freps_executed;
}

const FpOp* Sequencer::peek() {
  if (has_error()) return nullptr;
  if (state_ == State::kReplaying) return &buffer_[replay_idx_];
  // Consume frep markers at the queue head.
  while (!queue_.empty() &&
         queue_.front().pre->handler == isa::ExecHandler::kFrep) {
    const FpOp marker = queue_.pop();
    start_frep(marker);
    if (has_error()) return nullptr;
  }
  if (queue_.empty()) return nullptr;
  return &queue_.front();
}

void Sequencer::pop_front() {
  if (state_ == State::kReplaying) {
    ++stats_.replayed_ops;
    if (inner_mode_) {
      ++inner_rep_;
      if (inner_rep_ >= total_passes_) {
        // Done repeating this instruction; capture the next or finish.
        state_ = capture_left_ > 0 ? State::kCapturing : State::kIdle;
      }
      return;
    }
    ++replay_idx_;
    if (replay_idx_ >= body_len_) {
      replay_idx_ = 0;
      ++replay_pass_;
      if (replay_pass_ >= total_passes_) state_ = State::kIdle;
    }
    return;
  }

  const FpOp op = queue_.pop();
  if (state_ == State::kCapturing) {
    buffer_.push_back(op);
    --capture_left_;
    if (inner_mode_) {
      if (total_passes_ > 1) {
        state_ = State::kReplaying;
        replay_idx_ = static_cast<u32>(buffer_.size()) - 1;
        inner_rep_ = 1;
      } else if (capture_left_ == 0) {
        state_ = State::kIdle;
      }
      return;
    }
    if (capture_left_ == 0) {
      if (total_passes_ > 1) {
        state_ = State::kReplaying;
        replay_pass_ = 1;
        replay_idx_ = 0;
      } else {
        state_ = State::kIdle;
      }
    }
  }
}

} // namespace sch::sim
