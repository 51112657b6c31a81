// FpuPipeline keeps its stages in a ring (advance() rotates the start
// instead of copying slots). Pin it against the straightforward shift-array
// model at every depth SimConfig allows in practice, not only the default
// fpu_depth of 3 that the timing oracle and the trace golden exercise.
#include <gtest/gtest.h>

#include <vector>

#include "sim/fpu.hpp"

namespace sch::sim {
namespace {

/// Reference: stage i is element i; advance() shifts every slot forward.
struct ShiftModel {
  std::vector<FpuSlot> stages;

  void insert(const FpuSlot& slot) { stages.front() = slot; }
  void advance() {
    for (usize i = stages.size(); i-- > 1;) stages[i] = stages[i - 1];
    stages.front() = FpuSlot{};
  }
  void clear_last() { stages.back() = FpuSlot{}; }
  [[nodiscard]] bool empty() const {
    for (const FpuSlot& s : stages) {
      if (s.busy) return false;
    }
    return true;
  }
};

bool same(const FpuSlot& a, const FpuSlot& b) {
  return a.busy == b.busy && a.mn == b.mn && a.rd == b.rd && a.dest == b.dest &&
         a.result == b.result && a.seq == b.seq;
}

void expect_matches(const FpuPipeline& pipe, const ShiftModel& model,
                    u32 step) {
  const u32 depth = static_cast<u32>(model.stages.size());
  ASSERT_EQ(pipe.depth(), depth);
  for (u32 i = 0; i < depth; ++i) {
    EXPECT_TRUE(same(pipe.stage(i), model.stages[i]))
        << "depth " << depth << " step " << step << " stage " << i;
  }
  EXPECT_TRUE(same(pipe.last(), model.stages.back()))
      << "depth " << depth << " step " << step;
  EXPECT_EQ(pipe.stage0_free(), !model.stages.front().busy)
      << "depth " << depth << " step " << step;
  EXPECT_EQ(pipe.empty(), model.empty()) << "depth " << depth << " step " << step;
}

TEST(FpuPipeline, RingMatchesShiftModelAtDepthsOneToFour) {
  for (u32 depth = 1; depth <= 4; ++depth) {
    FpuPipeline pipe(depth);
    ShiftModel model{std::vector<FpuSlot>(depth)};
    expect_matches(pipe, model, 0);
    u32 rng = 12345 + depth; // fixed LCG: the op sequence is deterministic
    u64 seq = 0;
    bool was_full = false;
    for (u32 step = 1; step <= 400; ++step) {
      rng = rng * 1664525u + 1013904223u;
      switch ((rng >> 24) % 5) {
        case 0: // issue into a free stage 0
        case 1:
          if (pipe.stage0_free()) {
            FpuSlot slot;
            slot.busy = true;
            slot.mn = isa::Mnemonic::kFaddD;
            slot.rd = static_cast<u8>(seq % 32);
            slot.dest = static_cast<DestKind>(1 + seq % 4);
            slot.result = 0x4000'0000'0000'0000ull + seq;
            slot.seq = ++seq;
            pipe.insert(slot);
            model.insert(slot);
          }
          break;
        case 2: // writeback done: clear the last stage, then advance
          pipe.clear_last();
          model.clear_last();
          pipe.advance();
          model.advance();
          break;
        case 3: // last stage empty (or dropped): advance only
          pipe.advance();
          model.advance();
          break;
        default: // writeback done, pipeline held this cycle
          pipe.clear_last();
          model.clear_last();
          break;
      }
      expect_matches(pipe, model, step);
      if (testing::Test::HasFailure()) return;
      bool full = true;
      for (u32 i = 0; i < depth; ++i) full = full && pipe.stage(i).busy;
      was_full = was_full || full;
    }
    EXPECT_TRUE(was_full) << "depth " << depth
                          << ": the sequence never filled every stage";
  }
}

} // namespace
} // namespace sch::sim
