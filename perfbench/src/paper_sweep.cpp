// paper_sweep: one closed-loop client calling api::Engine::run (1 worker,
// no build cache) over the paper's Fig. 3 sweep -- box3d1r, j3d27pt and
// star3d1r x 5 variants at 12^3 on one core -- plus one large instance of
// every other family x variant at bench/host_throughput.cpp sizes (the
// _par, _dma and _dbuf variants on 4 cores), in a seeded shuffled order
// each pass. Simulation dominates, so the cycle engine shows most. The
// job list does not depend on the seed; only the order does.

#include "api/engine.hpp"
#include "loop.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

using sch::kernels::SizeMap;

constexpr double kPassesPerSecond = 5.0;  // see pass_count
// Host times use each job's 90th percentile over the passes, not its best.
// On a shared host a job's latency is bimodal: short bursts run it about 2x
// faster than its usual speed, and some 10-s runs see no burst at all, so a
// per-job best jumps 2x between runs while the 90th percentile stays at the
// usual speed (perfbench/README.md, Host noise).
constexpr double kOpPercentile = 90;

struct Family {
  const char* kernel;
  SizeMap sizes;  // empty: the registry defaults (the paper's 12^3 grid)
};
const Family kFamilies[] = {
    {"box3d1r", {}},
    {"j3d27pt", {}},
    {"star3d1r", {}},
    {"axpy", {{"n", 1024}, {"tile", 64}}},
    {"conv2d", {{"h", 34}, {"w", 34}}},
    {"dot", {{"n", 4096}}},
    {"gemm", {{"m", 32}, {"k", 32}, {"n", 32}}},
    {"gemv", {{"m", 64}, {"n", 48}, {"rtile", 8}}},
    {"vecop", {{"n", 4096}}},
};

bool multi_core_variant(const std::string& v) {
  return v.find("_par") != std::string::npos || v.find("_dma") != std::string::npos ||
         v.find("_dbuf") != std::string::npos;
}

struct Job {
  const sch::kernels::KernelEntry* entry = nullptr;
  std::string variant;
  SizeMap sizes;
  sch::api::RunRequest request;
};

std::vector<Job> make_jobs(Outcome& out) {
  std::vector<Job> jobs;
  for (const Family& f : kFamilies) {
    const sch::kernels::KernelEntry* entry =
        sch::kernels::Registry::instance().find(f.kernel);
    if (entry == nullptr) {
      out.check(false, std::string("kernel ") + f.kernel + " is not registered");
      continue;
    }
    for (const std::string& v : entry->variants) {
      Job j;
      j.entry = entry;
      j.variant = v;
      j.sizes = f.sizes;
      j.request = sch::api::RunRequest::for_kernel(f.kernel, v, f.sizes);
      j.request.config.num_cores = multi_core_variant(v) ? 4 : 1;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

} // namespace

double paper_sweep_setup(const Options&) {
  Outcome scratch;
  const auto t0 = Clock::now();
  const std::vector<Job> jobs = make_jobs(scratch);
  sch::api::Engine engine(sch::api::EngineConfig{.threads = 1});
  const double s = seconds_between(t0, Clock::now());
  return scratch.errors.empty() && !jobs.empty() ? s : -1;
}

Outcome run_paper_sweep(const Options& opt) {
  Outcome out;
  const std::vector<Job> jobs = make_jobs(out);
  Digest digest;
  for (const Job& j : jobs) {
    std::string key = j.request.kernel + "/" + j.variant + "@" +
                      std::to_string(j.request.config.num_cores);
    for (const auto& [k, v] : j.sizes) key += " " + k + "=" + std::to_string(v);
    digest.add(key);
  }
  for (usize i : pass_order(opt.seed, 1, jobs.size())) digest.add(std::to_string(i));
  out.notes.push_back("traffic: " + std::to_string(jobs.size()) +
                      " jobs/pass, 1 client, order shuffled per pass from the "
                      "seed, digest " + digest.hex());
  if (!out.errors.empty()) return out;

  sch::api::Engine engine(sch::api::EngineConfig{.threads = 1});
  const RunOp run = [&](usize i) { return engine.run(jobs[i].request); };
  const usize passes = pass_count(opt, kPassesPerSecond);
  if (!opt.trace) {
    const Metric setup = measure_setup(opt);
    out.check(setup.samples > 0, "set-up probes failed");
    const LoopResult u = run_loop(jobs.size(), opt.seed, passes, run, out);
    add_loop_metrics(u, setup, kOpPercentile, out);
    // The 10 paper configurations are part of the job list.
    std::vector<double> modelled;
    for (const PaperConfig& c : paper_configs()) {
      for (const sch::api::RunReport& r : u.first) {
        if (r.kernel == c.kernel && r.variant == c.variant) modelled.push_back(r.fpu_utilization);
      }
    }
    const bool complete = modelled.size() == paper_configs().size();
    out.check(complete, "paper configurations missing from the job list");
    out.add("paper_util_err", complete ? paper_util_error(modelled) : 1.0, "ratio",
            modelled.size(), "from the pass's own Fig. 3 reports");
  } else {
    const ReplayOp replay = [&](usize i, Tracer& tracer, u32 op) {
      const Job& job = jobs[i];
      auto built = replay_build(*job.entry, job.variant, job.sizes,
                                /*like_cache=*/false, tracer, op);
      ReplayJob rj;
      rj.built = built.get();
      rj.config = job.request.config;
      rj.name = job.request.kernel + "/" + job.variant;
      return replay_execute(rj, tracer, op);
    };
    TracedRun traced(jobs.size());
    const LoopResult u = run_loop(jobs.size(), opt.seed, passes, run,
                                  out, &replay, &traced);
    if (out.errors.empty()) finish_loop_trace(u, Layer::kCount, opt, traced, out);
  }
  return out;
}

} // namespace perfbench
