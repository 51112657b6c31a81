#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kParse: return "scenario.parse";
    case Layer::kServeCache: return "serve.cache";
    case Layer::kBuild: return "kernels.build";
    case Layer::kPredecode: return "asm.predecode";
    case Layer::kVerify: return "verify.analyze";
    case Layer::kMem: return "mem.setup";
    case Layer::kIss: return "iss.run";
    case Layer::kSimSetup: return "sim.setup";
    case Layer::kSimRun: return "sim.run";
    case Layer::kEnergy: return "energy.evaluate";
    case Layer::kToJson: return "api.to_json";
    case Layer::kGenerate: return "fuzz.generate";
    case Layer::kTeardown: return "teardown";
    case Layer::kCount: break;
  }
  return "?";
}

sch::i32 Tracer::begin(Layer layer, u32 op) {
  Span s;
  s.layer = layer;
  s.op = op;
  s.parent = top_;
  spans_.push_back(s);
  top_ = static_cast<sch::i32>(spans_.size() - 1);
  spans_.back().start = Clock::now();
  return top_;
}

void Tracer::end(sch::i32 index) {
  Span& s = spans_[static_cast<usize>(index)];
  s.end = Clock::now();
  top_ = s.parent;
}

void LayerProfile::add_pass(const std::vector<const Tracer*>& tracers) {
  std::vector<LayerTimes> pass(best_.size());
  for (LayerTimes& t : pass) t.fill(0);
  std::array<u64, kLayers> calls{};
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    // Self time = own duration minus the durations of direct children.
    std::vector<double> self(spans.size());
    for (usize i = 0; i < spans.size(); ++i) {
      self[i] = seconds_between(spans[i].start, spans[i].end);
    }
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        self[static_cast<usize>(s.parent)] -= seconds_between(s.start, s.end);
      }
    }
    for (usize i = 0; i < spans.size(); ++i) {
      const usize layer = static_cast<usize>(spans[i].layer);
      pass[spans[i].op][layer] += self[i];
      ++calls[layer];
    }
  }
  if (passes_ == 0) {
    best_ = std::move(pass);
    calls_ = calls;
  } else {
    for (usize op = 0; op < best_.size(); ++op) {
      for (usize l = 0; l < kLayers; ++l) {
        best_[op][l] = std::min(best_[op][l], pass[op][l]);
      }
    }
  }
  ++passes_;
}

double LayerProfile::child_sum(usize op) const {
  double sum = 0;
  for (usize l = 0; l < kLayers; ++l) {
    const Layer layer = static_cast<Layer>(l);
    if (layer != Layer::kOp && in_engine_clock(layer)) sum += best_[op][l];
  }
  return sum;
}

double LayerProfile::us_per_call(Layer layer) const {
  const usize l = static_cast<usize>(layer);
  if (calls_[l] == 0) return 0;
  double sum = 0;
  for (const LayerTimes& t : best_) sum += t[l];
  return sum / static_cast<double>(calls_[l]) * 1e6;
}

namespace {

/// Spans as Chrome trace-event JSON (viewable in Perfetto); false when the
/// file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers,
                        Clock::time_point origin, const std::string& label) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"benchmark\":\"" << label
      << "\"},\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    for (usize i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double ts = seconds_between(origin, s.start) * 1e6;
      const double dur = seconds_between(s.start, s.end) * 1e6;
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,\"parent\":%d}}",
                    first ? "" : ",", layer_name(s.layer), tracer->tid(), ts,
                    dur, s.op, s.parent);
      out << buf;
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

/// The per-layer self-time table every traced run prints.
void print_layer_table(const LayerProfile& profile) {
  std::printf("# per-layer self time, best of %zu traced passes (us per call)\n",
              profile.passes());
  std::printf("#   %-18s %10s %12s %14s\n", "layer", "calls", "us/call",
              "us/pass");
  for (usize l = 0; l < kLayers; ++l) {
    const Layer layer = static_cast<Layer>(l);
    const u64 calls = profile.calls(layer);
    if (calls == 0) continue;
    const double per_call = profile.us_per_call(layer);
    std::printf("#   %-18s %10llu %12.3f %14.1f%s\n",
                layer == Layer::kOp ? "replay.glue" : layer_name(layer),
                static_cast<unsigned long long>(calls), per_call,
                per_call * static_cast<double>(calls),
                layer == Layer::kPredecode  ? "  (re-run estimate, off the path)"
                : layer == Layer::kTeardown ? "  (after the engine's clock stops)"
                                            : "");
  }
}

} // namespace

void TracedRun::add_pass(std::vector<std::unique_ptr<Tracer>> tracers,
                         std::vector<double> times) {
  std::vector<const Tracer*> views;
  for (const auto& t : tracers) views.push_back(t.get());
  profile.add_pass(views);
  op_time.push_back(std::move(times));
  if (first_pass.empty()) first_pass = std::move(tracers);
}

void TracedRun::report(const Options& opt, double untraced_rps, double traced_rps,
                       Outcome& out) {
  extras.overhead_ratio = traced_rps / untraced_rps;
  std::vector<const Tracer*> views;
  for (const auto& t : first_pass) views.push_back(t.get());
  const std::string path = opt.out_dir + "/trace-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  if (write_chrome_trace(path, views, origin, opt.workload)) {
    out.notes.push_back("chrome trace (first traced pass): " + path);
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "reports_per_s untraced %.1f, traced %.1f",
                untraced_rps, traced_rps);
  out.notes.push_back(buf);
  print_layer_table(profile);
  add_layer_metrics(out, profile, extras);
}

} // namespace perfbench
