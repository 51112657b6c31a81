// Span tracing for the traced run. Spans are recorded by the benchmark
// around its calls into each layer's public functions (nothing inside
// src/ is instrumented), kept in memory per thread, and reduced to
// per-layer self times when the run ends.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

enum class Layer : sch::u8 {
  kOp,         // root span of one replayed operation (replay glue)
  kParse,      // scenario.parse: Json::parse + parse_run_spec + expand
  kServeCache, // serve.cache: report-cache key + lookup
  kBuild,      // kernels.build: KernelEntry::build (+ predecode when cached)
  kPredecode,  // asm.predecode: Program::predecode() re-run (off the path)
  kVerify,     // verify.analyze
  kMem,        // mem.setup: Memory construct + load_image
  kIss,        // iss.run: Iss construct + run
  kSimSetup,   // sim.setup: Simulator construct
  kSimRun,     // sim.run: Simulator::run
  kEnergy,     // energy.evaluate: energy::evaluate_run
  kToJson,     // api.to_json: to_json + report_line + dump
  kGenerate,   // fuzz.generate: generate_spec + materialize
  kTeardown,   // teardown: Simulator and Memory destruction
  kCount,
};
inline constexpr usize kLayers = static_cast<usize>(Layer::kCount);

const char* layer_name(Layer layer);

/// Whether the layer's time lies inside the engine's own clock (a report's
/// wall_s). asm.predecode re-runs a pass the build already did, and the
/// engine destroys its simulator and memories after it stops the clock, so
/// neither is subtracted from wall_s.
inline bool in_engine_clock(Layer layer) {
  return layer != Layer::kPredecode && layer != Layer::kTeardown;
}

struct Span {
  Layer layer = Layer::kOp;
  u32 op = 0;       // operation index within the pass (spans of one op share it)
  sch::i32 parent = -1;  // index of the enclosing span in the same recorder
  Clock::time_point start{};
  Clock::time_point end{};
};

/// One recorder per replay thread; no locking.
class Tracer {
 public:
  explicit Tracer(u32 tid) : tid_(tid) {}

  sch::i32 begin(Layer layer, u32 op);
  void end(sch::i32 index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] u32 tid() const { return tid_; }

 private:
  std::vector<Span> spans_;
  sch::i32 top_ = -1;
  u32 tid_;
};

/// RAII span: begins on construction, ends on destruction.
class Scoped {
 public:
  Scoped(Tracer& tracer, Layer layer, u32 op)
      : tracer_(tracer), index_(tracer.begin(layer, op)) {}
  ~Scoped() { tracer_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
  sch::i32 index_;
};

using LayerTimes = std::array<double, kLayers>;

/// Per-layer self times (seconds) per operation, best over traced passes.
/// A span's self time is its duration minus the time its children cover.
class LayerProfile {
 public:
  explicit LayerProfile(usize ops) : best_(ops), calls_{} {}

  /// Fold in one traced pass (the spans of every replay thread).
  void add_pass(const std::vector<const Tracer*>& tracers);

  [[nodiscard]] usize passes() const { return passes_; }
  [[nodiscard]] usize ops() const { return best_.size(); }
  /// Calls of `layer` in one pass (identical in every pass).
  [[nodiscard]] u64 calls(Layer layer) const {
    return calls_[static_cast<usize>(layer)];
  }
  /// Best self time of `layer` within operation `op`.
  [[nodiscard]] double best(usize op, Layer layer) const {
    return best_[op][static_cast<usize>(layer)];
  }
  /// Σ best self time of `op`'s layers inside the engine's clock, kOp excluded.
  [[nodiscard]] double child_sum(usize op) const;
  /// Mean best self time per call in microseconds (0 when never called).
  [[nodiscard]] double us_per_call(Layer layer) const;

 private:
  std::vector<LayerTimes> best_;
  std::array<u64, kLayers> calls_;
  usize passes_ = 0;
};

/// A traced run's accumulated passes. Traced passes are interleaved with
/// untraced ones so both see the same host phases.
struct TracedRun {
  explicit TracedRun(usize ops) : profile(ops) {}

  /// Fold in one traced pass: its recorders (the first pass's are kept for
  /// the trace file) and each operation's replay time.
  void add_pass(std::vector<std::unique_ptr<Tracer>> tracers, std::vector<double> times);
  /// Write the first pass's spans as Chrome trace JSON, print the table and
  /// add every per-layer metric (`extras` filled in by the workload).
  void report(const Options& opt, double untraced_rps, double traced_rps, Outcome& out);

  LayerProfile profile;
  LayerExtras extras;
  std::vector<std::vector<double>> op_time;  // [pass][op]
  std::vector<std::unique_ptr<Tracer>> first_pass;
  Clock::time_point origin = Clock::now();
};

} // namespace perfbench
