// fuzz_lockstep: one closed-loop client calling fuzz::run_spec -- the
// `schsim fuzz` path: ISS and cycle engine in lockstep with the
// full-memory compare -- on programs from fuzz::generate_spec with 1-4
// harts, in a seeded shuffled order each pass. Each spec simulates about
// 140 cycles, so memory set-up, the whole-image compare and the ISS
// dominate while kernels and the cycle engine do little. It reads all of
// memory where serve_mixed touches little of it.
#include <cstdio>

#include "fuzz/fuzz.hpp"
#include "loop.hpp"
#include "replay.hpp"

namespace perfbench {

namespace {

/// The programs are the first kSpecs runs of the CI fuzz smoke campaign
/// (`schsim fuzz --seed 3`); the workload seed orders them. One spec's
/// simulated cycles and FPU ops vary by 60-100% between generator seeds, so
/// a seed-drawn list of any affordable length would move the pass totals by
/// 10% from seed to seed, and the end-to-end bounds could not tell a model
/// change from a different draw.
constexpr usize kSpecs = 128;
constexpr u64 kCampaignSeed = 3;
constexpr double kPassesPerSecond = 0.8;  // see pass_count
// Host times use each spec's 75th percentile over the passes, not its best:
// over ten 10-s runs the best spread 0.15 (IQR/median of reports/s) and the
// 75th percentile 0.07 (perfbench/README.md, Host noise).
constexpr double kOpPercentile = 75;

std::vector<u64> spec_seeds() {
  std::vector<u64> seeds(kSpecs);
  for (usize i = 0; i < kSpecs; ++i) {
    seeds[i] = sch::fuzz::run_seed(kCampaignSeed, static_cast<u32>(i));
  }
  return seeds;
}

std::vector<sch::fuzz::ProgramSpec> generate(const std::vector<u64>& seeds) {
  std::vector<sch::fuzz::ProgramSpec> specs;
  specs.reserve(seeds.size());
  for (u64 s : seeds) specs.push_back(sch::fuzz::generate_spec(s));
  return specs;
}

} // namespace

double fuzz_lockstep_setup(const Options&) {
  const std::vector<u64> seeds = spec_seeds();
  const auto t0 = Clock::now();
  const std::vector<sch::fuzz::ProgramSpec> specs = generate(seeds);
  const double s = seconds_between(t0, Clock::now());
  return specs.size() == kSpecs ? s : -1;
}

Outcome run_fuzz_lockstep(const Options& opt) {
  Outcome out;
  const std::vector<u64> seeds = spec_seeds();
  const std::vector<sch::fuzz::ProgramSpec> specs = generate(seeds);
  Digest digest;
  usize harts = 0;
  for (const sch::fuzz::ProgramSpec& s : specs) {
    digest.add(sch::fuzz::spec_to_json(s).dump());
    harts += s.num_harts;
  }
  for (usize i : pass_order(opt.seed, 1, specs.size())) digest.add(std::to_string(i));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "traffic: %zu specs/pass (%zu harts, schsim fuzz --seed 3 runs), "
                "1 client, order shuffled per pass, digest %s",
                specs.size(), harts, digest.hex().c_str());
  out.notes.push_back(buf);

  const sch::fuzz::FuzzOptions options;
  const RunOp run = [&](usize i) { return sch::fuzz::run_spec(specs[i], options); };
  const usize passes = pass_count(opt, kPassesPerSecond);
  if (!opt.trace) {
    const Metric setup = measure_setup(opt);
    out.check(setup.samples > 0, "set-up probes failed");
    const LoopResult u = run_loop(specs.size(), opt.seed, passes, run, out);
    add_loop_metrics(u, setup, kOpPercentile, out);
    out.add("paper_util_err", measure_paper_util_error(out), "ratio", 10,
            "Fig. 3 configurations, run once outside the timed passes");
  } else {
    const ReplayOp replay = [&](usize i, Tracer& tracer, u32 op) {
      std::vector<sch::Program> programs;
      {
        const Scoped span(tracer, Layer::kGenerate, op);
        programs = sch::fuzz::materialize(sch::fuzz::generate_spec(seeds[i]));
      }
      // run_spec's request: both engines in lockstep, its cycle and wall budgets.
      ReplayJob rj;
      rj.programs = &programs;
      rj.engine = options.engine;
      rj.compare_memory = options.engine == sch::api::EngineSel::kBoth;
      rj.config.max_cycles = options.max_cycles;
      rj.config.deadlock_cycles = options.deadlock_cycles;
      rj.config.max_wall_ms = options.max_wall_ms;
      rj.config.num_cores = static_cast<u32>(programs.size());
      return replay_execute(rj, tracer, op);
    };
    TracedRun traced(specs.size());
    const LoopResult u = run_loop(specs.size(), opt.seed, passes, run,
                                  out, &replay, &traced);
    // materialize runs inside run_spec but outside Engine::run.
    if (out.errors.empty()) finish_loop_trace(u, Layer::kGenerate, opt, traced, out);
  }
  return out;
}

} // namespace perfbench
