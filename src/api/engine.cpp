#include "api/engine.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "api/build_cache.hpp"
#include "energy/activity.hpp"
#include "isa/reg.hpp"
#include "iss/iss.hpp"
#include "mem/memory.hpp"
#include "sim/simulator.hpp"

namespace sch::api {

namespace {

using Clock = std::chrono::steady_clock;

bool clean_halt(HaltReason halt) {
  return halt == HaltReason::kEcall || halt == HaltReason::kEbreak;
}

/// Count golden-output mismatches in `mem` (NaN-aware bit-exact compare).
u64 count_mismatches(const Memory& mem, const kernels::BuiltKernel& k,
                     std::string& detail) {
  u64 bad = 0;
  for (u32 i = 0; i < k.expected.size(); ++i) {
    const double got = mem.load_f64(k.out_base + 8 * i);
    const double want = k.expected[i];
    const bool equal = (got == want) || (std::isnan(got) && std::isnan(want));
    if (!equal) {
      if (bad == 0) {
        std::ostringstream os;
        os << "first mismatch at element " << i << ": got " << got << ", want "
           << want;
        detail = os.str();
      }
      ++bad;
    }
  }
  return bad;
}

/// Record the first failure (message + structured classification); later
/// calls only clear `ok` so the first cause is the one reported.
void fail(RunReport& report, FailureKind kind, const std::string& message,
          i32 hart = -1, i64 pc = -1, i64 cycle = -1) {
  if (report.error.empty()) {
    report.error = message;
    report.failure.kind = kind;
    report.failure.hart = hart;
    report.failure.pc = pc;
    report.failure.cycle = cycle;
  }
  report.ok = false;
}

/// Step the cycle-level simulator to completion, fanning out observer
/// callbacks. With no observers this is exactly Simulator::run().
void drive_simulator(sim::Simulator& simulator,
                     const std::vector<Observer*>& observers) {
  if (observers.empty()) {
    simulator.run();
    return;
  }
  Cycle notified = 0;
  for (bool running = true; running;) {
    running = simulator.step();
    if (simulator.cycles() > notified) {
      notified = simulator.cycles();
      for (Observer* o : observers) o->on_cycle(simulator);
    }
  }
}

RunReport execute(const RunRequest& request) {
  const auto t0 = Clock::now();
  RunReport report;
  report.engine = request.engine;
  report.kernel = request.kernel;
  report.variant = request.variant;

  // Resolve the report label first so on_run_start fires for every request,
  // including ones that fail during build or validation below.
  if (!request.label.empty()) {
    report.name = request.label;
  } else if (request.built.has_value()) {
    report.name = request.built->name;
  } else if (!request.kernel.empty()) {
    report.name = request.kernel + "/" + request.variant;
  } else {
    report.name = "program";
  }
  for (Observer* o : request.observers) o->on_run_start(request, report.name);

  // Early exits still complete the observer lifecycle (no machine state).
  const auto finish_failed = [&](FailureKind kind, const std::string& message) {
    fail(report, kind, message);
    report.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    for (Observer* o : request.observers) o->on_halt(report, nullptr, nullptr);
    return report;
  };

  // --- resolve the workload -------------------------------------------------
  kernels::BuiltKernel registry_built;  // storage for registry-form builds
  BuildCache::Ptr cached_built;         // keep-alive for cache hits
  const kernels::BuiltKernel* built = nullptr;
  const Program* program = nullptr;          // single program (replicated)
  const std::vector<Program>* programs = nullptr;  // one per core

  if (request.built.has_value()) {
    built = &*request.built;
  } else if (!request.kernel.empty()) {
    const kernels::KernelEntry* entry =
        kernels::Registry::instance().find(request.kernel);
    if (entry == nullptr) {
      return finish_failed(FailureKind::kValidation,
                           report.name + ": unknown kernel \"" + request.kernel +
                               "\" (see `schsim list-kernels`)");
    }
    try {
      if (request.cache != nullptr) {
        cached_built = request.cache->get_or_build(
            *entry, request.variant, entry->resolve_sizes(request.sizes),
            request.config);
        built = cached_built.get();
      } else {
        registry_built =
            entry->build(request.variant, entry->resolve_sizes(request.sizes));
        built = &registry_built;
      }
    } catch (const std::exception& e) {
      return finish_failed(FailureKind::kValidation,
                           report.name + ": " + e.what());
    }
  } else if (!request.programs.empty()) {
    programs = &request.programs;
  } else if (request.program.has_value()) {
    program = &*request.program;
  } else {
    return finish_failed(FailureKind::kValidation,
                         "RunRequest names no workload (kernel, built or program)");
  }

  if (built != nullptr) {
    report.regs = built->regs;
    report.useful_flops = built->useful_flops;
  }

  const Status config_ok = request.config.validate();
  if (!config_ok.is_ok()) {
    return finish_failed(FailureKind::kValidation,
                         report.name + ": " + config_ok.message());
  }
  const u32 num_cores = request.config.num_cores;
  report.num_cores = num_cores;
  if (programs != nullptr && programs->size() != num_cores) {
    return finish_failed(FailureKind::kValidation,
                         report.name + ": " + std::to_string(programs->size()) +
                             " programs for " + std::to_string(num_cores) +
                             " cores (config.num_cores must match)");
  }
  // Program of hart h (one per core, or one replicated across the cluster).
  const auto hart_program = [&](u32 h) -> const Program& {
    if (programs != nullptr) return (*programs)[h];
    return built != nullptr ? built->program : *program;
  };

  // --- static verification --------------------------------------------------
  // Before any engine spins: abstract-interpret every hart's program for
  // chain-FIFO deadlocks, stream windows, FREP legality and cross-hart
  // races. kStrict turns error findings into a failed report here.
  if (request.verify != VerifyPolicy::kOff) {
    verify::Report vr;
    if (programs != nullptr) {
      vr = verify::analyze(*programs, request.config);
    } else {
      vr = verify::analyze(hart_program(0), request.config,
                           built != nullptr ? &built->regions : nullptr);
    }
    const std::string summary = vr.summary();
    const bool strict_fail =
        request.verify == VerifyPolicy::kStrict && !vr.ok();
    if (request.verify_sink != nullptr) {
      *request.verify_sink = std::move(vr);
    }
    if (strict_fail) {
      return finish_failed(FailureKind::kValidation,
                           report.name + ": static verification failed: " +
                               summary);
    }
  }

  // --- functional ISS -------------------------------------------------------
  // Harts run sequentially against one memory: every data image is loaded
  // first, then hart 0..N-1 each execute to completion. This validates any
  // program whose harts communicate only through disjoint memory (the _par
  // kernels); programs that spin on another hart's stores (barriers) are
  // cycle-engine-only and would exhaust the ISS step budget here.
  // Both engine sections run under a catch-all: a stray access to unmapped
  // memory anywhere on the execution path (e.g. an SSR stream pointed at a
  // hole in the address map) throws BusError and surfaces as a failed
  // bus-error report instead of an exception escaping Engine::run
  // mid-batch. Any other exception is an engine bug (kInternal).
  Memory iss_mem;
  std::vector<ArchState> iss_states;
  if (request.engine == EngineSel::kIss || request.engine == EngineSel::kBoth) {
    try {
    iss_mem.load_image(hart_program(0).data_base, hart_program(0).data);
    if (programs != nullptr) {
      for (u32 h = 1; h < num_cores; ++h) {
        iss_mem.load_image(hart_program(h).data_base, hart_program(h).data);
      }
    }
    for (u32 h = 0; h < num_cores; ++h) {
      IssConfig iss_cfg;
      iss_cfg.hartid = h;
      iss_cfg.num_harts = num_cores;
      iss_cfg.load_image = false;  // preloaded above
      // Per-request budgets: the cycle budget bounds the ISS too (pseudo
      // dual-issue retires at most ~2 instructions per cycle, so 2x is the
      // matching step budget), and the wall budget carries over unchanged.
      iss_cfg.max_steps = request.config.max_cycles > (~u64{0} >> 1)
                              ? ~u64{0}
                              : 2 * request.config.max_cycles;
      iss_cfg.max_wall_ms = request.config.max_wall_ms;
      iss_cfg.fast_dispatch = request.config.fast_dispatch;
      Iss iss(hart_program(h), iss_mem, iss_cfg);
      const HaltReason halt = iss.run();
      report.iss_instructions += iss.instret();
      iss_states.push_back(iss.state());
      if (!clean_halt(halt)) {
        const std::string who =
            num_cores == 1 ? "ISS" : "ISS hart " + std::to_string(h);
        fail(report, iss.failure_kind(),
             report.name + ": " + who + " halted abnormally: " + iss.error(),
             static_cast<i32>(h), static_cast<i64>(iss.state().pc));
        break;
      }
    }
    } catch (const BusError& e) {
      fail(report, FailureKind::kBusError, report.name + ": ISS: " + e.what());
    } catch (const std::exception& e) {
      fail(report, FailureKind::kInternal, report.name + ": ISS: " + e.what());
    }
    if (report.error.empty() && built != nullptr) {
      std::string detail;
      const u64 bad = count_mismatches(iss_mem, *built, detail);
      if (bad != 0) {
        report.mismatches += bad;
        std::ostringstream os;
        os << report.name << ": ISS: " << bad << " output mismatches; " << detail;
        fail(report, FailureKind::kGoldenMismatch, os.str());
      }
    }
  }

  // --- cycle-level simulator ------------------------------------------------
  Memory sim_mem;
  std::optional<sim::Simulator> simulator;
  if (request.engine == EngineSel::kCycle || request.engine == EngineSel::kBoth) {
    try {
      if (programs != nullptr) {
        simulator.emplace(*programs, sim_mem, request.config);
      } else {
        simulator.emplace(hart_program(0), sim_mem, request.config);
      }
      drive_simulator(*simulator, request.observers);
    } catch (const std::invalid_argument& e) {
      // Cluster construction rejects bad configurations/program sets.
      return finish_failed(FailureKind::kValidation,
                           report.name + ": simulator: " + e.what());
    } catch (const BusError& e) {
      return finish_failed(FailureKind::kBusError,
                           report.name + ": simulator: " + e.what());
    } catch (const std::exception& e) {
      return finish_failed(FailureKind::kInternal,
                           report.name + ": simulator: " + e.what());
    }
    report.cycles = simulator->cycles();
    report.perf = simulator->perf();
    // Cluster-mean utilization: reduces to fpu_ops / cycles for one core.
    report.fpu_utilization = simulator->perf().fpu_utilization() / num_cores;
    for (u32 h = 0; h < num_cores; ++h) {
      const sim::Core& core = simulator->core_at(h);
      RunReport::CoreReport cr;
      cr.cycles = core.perf().cycles;
      cr.perf = core.perf();
      cr.fpu_utilization = core.perf().fpu_utilization();
      report.cores.push_back(std::move(cr));
    }
    report.energy = energy::evaluate_run(*simulator, request.energy);
    report.tcdm_reads = simulator->tcdm().stats().reads;
    report.tcdm_writes = simulator->tcdm().stats().writes;
    report.tcdm_conflicts = simulator->tcdm().stats().conflicts;
    report.tcdm_out_of_range = simulator->tcdm().stats().out_of_range;
    report.tcdm_top_banks = simulator->tcdm().top_conflict_banks(8);
    const dma::EngineStats& ds = simulator->dma().stats();
    report.dma.transfers = ds.transfers_completed;
    report.dma.bytes = ds.bytes_moved;
    report.dma.busy_cycles = ds.busy_cycles;
    report.dma.startup_cycles = ds.startup_cycles;
    report.dma.tcdm_conflicts = ds.tcdm_conflicts;
    report.dma.queue_full_stalls = ds.queue_full_stalls;
    report.dma.achieved_bytes_per_cycle = ds.achieved_bytes_per_cycle();
    if (!clean_halt(simulator->halt_reason())) {
      fail(report, simulator->failure_kind(),
           report.name + ": simulator halted abnormally: " + simulator->error(),
           simulator->halt_hart(), simulator->halt_pc(),
           static_cast<i64>(simulator->cycles()));
    } else if (built != nullptr) {
      std::string detail;
      const u64 bad = count_mismatches(sim_mem, *built, detail);
      if (bad != 0) {
        report.mismatches += bad;
        std::ostringstream os;
        os << report.name << ": " << bad << " output mismatches; " << detail;
        fail(report, FailureKind::kGoldenMismatch, os.str());
      }
    }
  }

  // --- lockstep cross-check -------------------------------------------------
  if (request.engine == EngineSel::kBoth && report.error.empty()) {
    std::string first;
    for (u32 h = 0; h < num_cores; ++h) {
      const std::string hart_tag =
          num_cores == 1 ? "" : "hart " + std::to_string(h) + " ";
      const ArchState& a = iss_states[h];
      const ArchState b = simulator->arch_state(h);
      for (u8 r = 0; r < isa::kNumIntRegs; ++r) {
        if (a.x[r] != b.x[r]) {
          ++report.lockstep_mismatches;
          if (first.empty()) {
            std::ostringstream os;
            os << hart_tag << "x" << static_cast<int>(r) << ": iss=" << a.x[r]
               << " cycle=" << b.x[r];
            first = os.str();
          }
        }
      }
      for (u8 r = 0; r < isa::kNumFpRegs; ++r) {
        if (a.f[r] != b.f[r]) {
          ++report.lockstep_mismatches;
          if (first.empty()) {
            std::ostringstream os;
            os << hart_tag << "f" << static_cast<int>(r) << ": iss=0x"
               << std::hex << a.f[r] << " cycle=0x" << b.f[r];
            first = os.str();
          }
        }
      }
    }
    if (built != nullptr) {
      for (u32 i = 0; i < built->expected.size(); ++i) {
        const Addr addr = built->out_base + 8 * i;
        if (iss_mem.load_f64(addr) != sim_mem.load_f64(addr) &&
            !(std::isnan(iss_mem.load_f64(addr)) &&
              std::isnan(sim_mem.load_f64(addr)))) {
          ++report.lockstep_mismatches;
          if (first.empty()) {
            std::ostringstream os;
            os << "output element " << i << ": iss=" << iss_mem.load_f64(addr)
               << " cycle=" << sim_mem.load_f64(addr);
            first = os.str();
          }
        }
      }
    }
    if (request.lockstep_compare_memory) {
      // Raw-program fuzzing: no golden region exists, so compare the TCDM
      // and main-memory images bit-exactly over every page either engine
      // wrote (counted per 8-byte word to keep counts sane).
      const auto compare_region = [&](Addr base, u32 size, const char* label) {
        const Memory::WordDiff d = iss_mem.diff_words(sim_mem, base, size);
        if (d.words != 0 && first.empty()) {
          std::ostringstream os;
          os << label << "[0x" << std::hex << d.first << "]: iss=0x"
             << iss_mem.load(d.first, 8) << " cycle=0x"
             << sim_mem.load(d.first, 8);
          first = os.str();
        }
        report.lockstep_mismatches += d.words;
      };
      compare_region(memmap::kTcdmBase, memmap::kTcdmSize, "tcdm");
      compare_region(memmap::kMainBase, memmap::kMainSize, "main");
    }
    if (report.lockstep_mismatches != 0) {
      std::ostringstream os;
      os << report.name << ": lockstep divergence, " << report.lockstep_mismatches
         << " state mismatches between ISS and cycle engine; first: " << first;
      fail(report, FailureKind::kLockstepMismatch, os.str());
    }
  }

  report.ok = report.error.empty();
  report.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  const Memory* final_mem = simulator.has_value() ? &sim_mem
                            : !iss_states.empty() ? &iss_mem
                                                  : nullptr;
  const sim::Simulator* final_sim =
      simulator.has_value() ? &*simulator : nullptr;
  for (Observer* o : request.observers) o->on_halt(report, final_sim, final_mem);
  return report;
}

} // namespace

u32 Engine::default_worker_count() {
  if (const char* env = std::getenv("SCH_SWEEP_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<u32>(n);
  }
  const u32 hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Engine::Engine(EngineConfig config)
    : threads_(config.threads != 0 ? config.threads : default_worker_count()) {}

Engine::~Engine() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : pool_) t.join();
}

RunReport Engine::run(const RunRequest& request) { return execute(request); }

void Engine::ensure_pool() {
  // Callers hold mutex_. The pool grows one worker per submission up to the
  // configured width, so a sync-only engine never pays for threads and a
  // small batch never spawns more workers than it has jobs.
  if (pool_.size() < threads_) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

void Engine::worker_loop() {
  for (;;) {
    std::packaged_task<RunReport()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

std::future<RunReport> Engine::submit(RunRequest request) {
  std::packaged_task<RunReport()> task(
      [request = std::move(request)] { return execute(request); });
  std::future<RunReport> future = task.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ensure_pool();
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

std::vector<RunReport> Engine::run_batch(std::vector<RunRequest> requests) {
  std::vector<std::future<RunReport>> futures;
  futures.reserve(requests.size());
  for (RunRequest& r : requests) futures.push_back(submit(std::move(r)));
  std::vector<RunReport> reports;
  reports.reserve(futures.size());
  for (std::future<RunReport>& f : futures) reports.push_back(f.get());
  return reports;
}

Engine& default_engine() {
  static Engine engine;
  return engine;
}

RunReport run(const RunRequest& request) { return default_engine().run(request); }

RunReport run_built(kernels::BuiltKernel kernel, const sim::SimConfig& config) {
  RunRequest request = RunRequest::for_built(std::move(kernel));
  request.config = config;
  return run(request);
}

RunReport run_built_iss(kernels::BuiltKernel kernel) {
  return run(RunRequest::for_built(std::move(kernel), EngineSel::kIss));
}

} // namespace sch::api
