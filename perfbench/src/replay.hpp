// The traced replay: one job executed again layer by layer through each
// layer's public functions, in the order api::Engine::execute calls them,
// with one span per call. The replay's deterministic results must equal
// the untraced run's report job by job; its host times give the per-layer
// metrics.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/run_report.hpp"
#include "api/run_request.hpp"
#include "kernels/registry.hpp"
#include "trace.hpp"

namespace perfbench {

/// One job as the engine sees it after workload resolution: a built
/// registry kernel (replicated on every core) or one raw program per core.
struct ReplayJob {
  const sch::kernels::BuiltKernel* built = nullptr;
  const std::vector<sch::Program>* programs = nullptr;
  sch::sim::SimConfig config{};
  sch::api::EngineSel engine = sch::api::EngineSel::kCycle;
  sch::api::VerifyPolicy verify = sch::api::VerifyPolicy::kOff;
  /// kBoth: also compare every byte of TCDM and main memory (fuzz::run_spec).
  bool compare_memory = false;
  std::string name;
};

/// Execute `job` layer by layer under `op`'s spans and assemble a report
/// from the layer results (cycles, counters, TCDM, DMA, energy, ISS count).
/// The engine's glue -- the golden output check for built kernels and the
/// kBoth lockstep compare -- is replayed too, outside any layer span, so the
/// replayed operation does the same work as the real one.
sch::api::RunReport replay_execute(const ReplayJob& job, Tracer& tracer, u32 op);

/// Registry build under a kernels.build span, then the asm.predecode
/// re-run estimate on a copy of the built program.
/// `like_cache` predecodes inside the build span, as api::BuildCache does.
std::shared_ptr<const sch::kernels::BuiltKernel> replay_build(
    const sch::kernels::KernelEntry& entry, const std::string& variant,
    const sch::kernels::SizeMap& sizes, bool like_cache, Tracer& tracer, u32 op);

/// Stand-in for api::BuildCache in the replay: the first request for a key
/// builds (and counts), later ones reuse the kernel. One per replay pass;
/// safe to share between replay threads.
class BuildMirror {
 public:
  std::shared_ptr<const sch::kernels::BuiltKernel> get(
      const sch::kernels::KernelEntry& entry, const std::string& variant,
      const sch::kernels::SizeMap& sizes, const sch::sim::SimConfig& config,
      Tracer& tracer, u32 op);

 private:
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const sch::kernels::BuiltKernel>> built_;
};

} // namespace perfbench
