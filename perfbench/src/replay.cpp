#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "api/build_cache.hpp"
#include "energy/activity.hpp"
#include "isa/reg.hpp"
#include "iss/iss.hpp"
#include "mem/memory.hpp"
#include "sim/simulator.hpp"
#include "verify/verify.hpp"

namespace perfbench {

using namespace sch;

namespace {

bool clean_halt(HaltReason halt) {
  return halt == HaltReason::kEcall || halt == HaltReason::kEbreak;
}

bool same_f64(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

u64 golden_mismatches(const Memory& mem, const kernels::BuiltKernel& k) {
  u64 bad = 0;
  for (u32 i = 0; i < k.expected.size(); ++i) {
    if (!same_f64(mem.load_f64(k.out_base + 8 * i), k.expected[i])) ++bad;
  }
  return bad;
}

/// Bytes that differ between the two images, counted per 8-byte word.
u64 region_mismatches(const Memory& a, const Memory& b, Addr base, u32 size) {
  const std::vector<u8> x = a.read_block(base, size);
  const std::vector<u8> y = b.read_block(base, size);
  u64 bad = 0;
  for (u32 off = 0; off < size; off += 8) {
    const u32 chunk = std::min<u32>(8, size - off);
    if (std::memcmp(x.data() + off, y.data() + off, chunk) != 0) ++bad;
  }
  return bad;
}

} // namespace

std::shared_ptr<const kernels::BuiltKernel> replay_build(
    const kernels::KernelEntry& entry, const std::string& variant,
    const kernels::SizeMap& sizes, bool like_cache, Tracer& tracer, u32 op) {
  std::shared_ptr<kernels::BuiltKernel> built;
  {
    const Scoped span(tracer, Layer::kBuild, op);
    built = std::make_shared<kernels::BuiltKernel>(
        entry.build(variant, entry.resolve_sizes(sizes)));
    if (like_cache) built->program.predecode();
  }
  Program copy = built->program;
  {
    const Scoped span(tracer, Layer::kPredecode, op);
    copy.predecode();
  }
  return built;
}

std::shared_ptr<const kernels::BuiltKernel> BuildMirror::get(
    const kernels::KernelEntry& entry, const std::string& variant,
    const kernels::SizeMap& sizes, const sim::SimConfig& config, Tracer& tracer,
    u32 op) {
  const std::string key = api::BuildCache::make_key(
      entry.name, variant, entry.resolve_sizes(sizes), config);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = built_.find(key);
    if (it != built_.end()) return it->second;
  }
  auto built = replay_build(entry, variant, sizes, /*like_cache=*/true, tracer, op);
  const std::lock_guard<std::mutex> lock(mutex_);
  built_.emplace(key, built);
  return built;
}

api::RunReport replay_execute(const ReplayJob& job, Tracer& tracer, u32 op) {
  api::RunReport report;
  report.name = job.name;
  report.engine = job.engine;
  const u32 num_cores = job.config.num_cores;
  report.num_cores = num_cores;
  if (job.built != nullptr) {
    report.regs = job.built->regs;
    report.useful_flops = job.built->useful_flops;
  }
  const auto hart_program = [&](u32 h) -> const Program& {
    return job.programs != nullptr ? (*job.programs)[h] : job.built->program;
  };
  bool ok = true;

  if (job.verify != api::VerifyPolicy::kOff) {
    const Scoped span(tracer, Layer::kVerify, op);
    if (job.programs != nullptr) {
      (void)verify::analyze(*job.programs, job.config);
    } else {
      (void)verify::analyze(job.built->program, job.config, &job.built->regions);
    }
  }

  const bool run_iss =
      job.engine == api::EngineSel::kIss || job.engine == api::EngineSel::kBoth;
  const bool run_cycle =
      job.engine == api::EngineSel::kCycle || job.engine == api::EngineSel::kBoth;

  // The engine constructs both memories on every run, whatever the engine
  // selection; images are loaded only into the ones an engine uses.
  std::optional<Memory> iss_mem;
  {
    const Scoped span(tracer, Layer::kMem, op);
    iss_mem.emplace();
    if (run_iss) {
      const u32 images = job.programs != nullptr ? num_cores : 1;
      for (u32 h = 0; h < images; ++h) {
        iss_mem->load_image(hart_program(h).data_base, hart_program(h).data);
      }
    }
  }
  std::vector<ArchState> iss_states;
  if (run_iss) {
    const Scoped span(tracer, Layer::kIss, op);
    for (u32 h = 0; h < num_cores && ok; ++h) {
      IssConfig cfg;
      cfg.hartid = h;
      cfg.num_harts = num_cores;
      cfg.load_image = false;
      cfg.max_steps = job.config.max_cycles > (~u64{0} >> 1)
                          ? ~u64{0}
                          : 2 * job.config.max_cycles;
      cfg.max_wall_ms = job.config.max_wall_ms;
      cfg.fast_dispatch = job.config.fast_dispatch;
      Iss iss(hart_program(h), *iss_mem, cfg);
      ok = clean_halt(iss.run());
      report.iss_instructions += iss.instret();
      iss_states.push_back(iss.state());
    }
  }
  if (run_iss && ok && job.built != nullptr) {
    report.mismatches += golden_mismatches(*iss_mem, *job.built);
  }

  std::optional<Memory> sim_mem;
  {
    const Scoped span(tracer, Layer::kMem, op);
    sim_mem.emplace();
  }
  std::optional<sim::Simulator> simulator;
  if (run_cycle) {
    {
      const Scoped span(tracer, Layer::kSimSetup, op);
      if (job.programs != nullptr) {
        simulator.emplace(*job.programs, *sim_mem, job.config);
      } else {
        simulator.emplace(job.built->program, *sim_mem, job.config);
      }
    }
    {
      const Scoped span(tracer, Layer::kSimRun, op);
      simulator->run();
    }
    ok = ok && clean_halt(simulator->halt_reason());
    if (ok && job.built != nullptr) {
      report.mismatches += golden_mismatches(*sim_mem, *job.built);
    }
    report.cycles = simulator->cycles();
    report.perf = simulator->perf();
    report.fpu_utilization = report.perf.fpu_utilization() / num_cores;
    for (u32 h = 0; h < num_cores; ++h) {
      const sim::Core& core = simulator->core_at(h);
      api::RunReport::CoreReport cr;
      cr.cycles = core.perf().cycles;
      cr.perf = core.perf();
      cr.fpu_utilization = core.perf().fpu_utilization();
      report.cores.push_back(std::move(cr));
    }
    {
      const Scoped span(tracer, Layer::kEnergy, op);
      report.energy = energy::evaluate_run(*simulator, {});
    }
    const TcdmStats& ts = simulator->tcdm().stats();
    report.tcdm_reads = ts.reads;
    report.tcdm_writes = ts.writes;
    report.tcdm_conflicts = ts.conflicts;
    report.tcdm_out_of_range = ts.out_of_range;
    report.tcdm_top_banks = simulator->tcdm().top_conflict_banks(8);
    const dma::EngineStats& ds = simulator->dma().stats();
    report.dma.transfers = ds.transfers_completed;
    report.dma.bytes = ds.bytes_moved;
    report.dma.busy_cycles = ds.busy_cycles;
    report.dma.startup_cycles = ds.startup_cycles;
    report.dma.tcdm_conflicts = ds.tcdm_conflicts;
    report.dma.queue_full_stalls = ds.queue_full_stalls;
    report.dma.achieved_bytes_per_cycle = ds.achieved_bytes_per_cycle();
  }
  if (job.engine == api::EngineSel::kBoth && ok) {
    for (u32 h = 0; h < num_cores; ++h) {
      const ArchState b = simulator->arch_state(h);
      for (u8 r = 0; r < isa::kNumIntRegs; ++r) {
        report.lockstep_mismatches += iss_states[h].x[r] != b.x[r];
      }
      for (u8 r = 0; r < isa::kNumFpRegs; ++r) {
        report.lockstep_mismatches += iss_states[h].f[r] != b.f[r];
      }
    }
    if (job.built != nullptr) {
      for (u32 i = 0; i < job.built->expected.size(); ++i) {
        const Addr addr = job.built->out_base + 8 * i;
        report.lockstep_mismatches +=
            !same_f64(iss_mem->load_f64(addr), sim_mem->load_f64(addr));
      }
    }
    if (job.compare_memory) {
      report.lockstep_mismatches +=
          region_mismatches(*iss_mem, *sim_mem, memmap::kTcdmBase, memmap::kTcdmSize) +
          region_mismatches(*iss_mem, *sim_mem, memmap::kMainBase, memmap::kMainSize);
    }
  }
  report.ok = ok && report.mismatches == 0 && report.lockstep_mismatches == 0;

  // Teardown in the engine's order: simulator, then the memories.
  {
    const Scoped span(tracer, Layer::kTeardown, op);
    simulator.reset();
    sim_mem.reset();
    iss_mem.reset();
  }
  return report;
}

} // namespace perfbench
