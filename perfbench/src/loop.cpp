#include "loop.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::vector<usize> pass_order(u64 seed, usize pass, usize n) {
  std::vector<usize> order(n);
  for (usize i = 0; i < n; ++i) order[i] = i;
  if (pass == 0) return order;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + pass);
  rng.shuffle(order);
  return order;
}

namespace {

/// One traced pass: every operation replayed, checked against pass 0.
void traced_pass(usize n, const LoopResult& u, u64 seed, const ReplayOp& replay,
                 TracedRun& t, Outcome& out) {
  const bool first = t.profile.passes() == 0;
  std::vector<std::unique_ptr<Tracer>> tracers;
  tracers.push_back(std::make_unique<Tracer>(0));
  Tracer& tracer = *tracers.back();
  std::vector<double> times(n);
  for (usize i : pass_order(seed, u.passes + t.profile.passes(), n)) {
    const u32 op = static_cast<u32>(i);
    const auto t0 = Clock::now();
    sch::api::RunReport replayed;
    {
      const Scoped root(tracer, Layer::kOp, op);
      replayed = replay(i, tracer, op);
    }
    times[i] = seconds_between(t0, Clock::now());
    const sch::api::RunReport& ref = u.first[i];
    out.check(replayed.cycles == ref.cycles && replayed.ok == ref.ok,
              "replay of " + ref.name + " differs in cycles or verdict");
    if (!first) continue;
    const std::string diff = first_difference(replayed.to_json(), ref.to_json());
    out.check(diff.empty() && replayed.perf == ref.perf,
              "replay of " + ref.name + " differs in \"" +
                  (diff.empty() ? std::string("perf") : diff) + "\"");
    ++t.extras.executed_jobs;
    t.extras.iss_instructions += replayed.iss_instructions;
    t.extras.sim_cycles += replayed.cycles;
    t.extras.stalls.add(replayed);
  }
  t.add_pass(std::move(tracers), std::move(times));
}

} // namespace

LoopResult run_loop(usize n, u64 seed, usize passes, const RunOp& run,
                    Outcome& out, const ReplayOp* replay, TracedRun* traced) {
  LoopResult u;
  while (u.passes < passes) {
    std::vector<double> lat(n), wall(n);
    std::vector<sch::api::RunReport> reports(n);
    for (usize i : pass_order(seed, u.passes, n)) {
      const auto t0 = Clock::now();
      reports[i] = run(i);
      lat[i] = seconds_between(t0, Clock::now());
      wall[i] = reports[i].wall_s;
    }
    for (usize i = 0; i < n; ++i) {
      const sch::api::RunReport& r = reports[i];
      ++u.attempted;
      if (!r.ok) ++u.failed;
      out.check(r.mismatches == 0 && r.lockstep_mismatches == 0,
                "wrong output: " + r.name + " " + r.error);
      const std::string fp = fingerprint(r.to_json());
      if (u.passes == 0) {
        u.fingerprints.push_back(fp);
      } else {
        out.check(fp == u.fingerprints[i] && r.perf == u.first[i].perf,
                  r.name + ": pass " + std::to_string(u.passes) + " differs from pass 0");
      }
    }
    if (u.passes == 0) {
      u.first = std::move(reports);
      u.rss_mib = peak_rss_mib();
    }
    u.latency.push_back(std::move(lat));
    u.wall_s.push_back(std::move(wall));
    ++u.passes;
    if (!out.errors.empty()) break;
    if (traced != nullptr) traced_pass(n, u, seed, *replay, *traced, out);
  }
  return u;
}

void add_loop_metrics(const LoopResult& u, const Metric& setup, double op_percentile,
                      Outcome& out) {
  const std::vector<double> op_s = percentile_per_op(u.latency, op_percentile);
  char per_op[32] = "best";
  if (op_percentile != 0) std::snprintf(per_op, sizeof(per_op), "p%g-of-passes", op_percentile);
  double per_pass = 0;
  for (double s : op_s) per_pass += s;
  SimTotals sim;
  for (const sch::api::RunReport& r : u.first) sim.add(r);
  out.attempted = u.attempted;
  out.failed = u.failed;
  out.metrics.push_back(setup);
  out.add("reports_per_s", static_cast<double>(op_s.size()) / per_pass, "1/s", u.passes,
          std::string("operations per pass / sum of per-operation ") + per_op + " latency");
  add_latency_metrics(out, op_s, per_op);
  out.add("sim_cycles_per_s", static_cast<double>(sim.cycles) / per_pass, "cycles/s",
          u.passes, "simulated cycles per pass / the same pass time");
  out.add("peak_rss_mib", u.rss_mib, "MiB", 1, "peak resident set after set-up and pass 0");
  out.add("ok_frac", 1.0 - static_cast<double>(u.failed) / static_cast<double>(u.attempted),
          "ratio", u.attempted);
  add_sim_metrics(out, sim);
  out.notes.push_back(std::to_string(u.passes) + " passes");
}

void finish_loop_trace(const LoopResult& u, Layer outside, const Options& opt,
                       TracedRun& t, Outcome& out) {
  const std::vector<double> best_wall = best_per_op(u.wall_s);
  const std::vector<double> best_lat = best_per_op(u.latency);
  const std::vector<double> best_traced = best_per_op(t.op_time);
  double untraced = 0, traced = 0;
  for (usize i = 0; i < best_lat.size(); ++i) {
    const double outside_s = outside == Layer::kCount ? 0 : t.profile.best(i, outside);
    t.extras.engine_self_s += best_wall[i] - (t.profile.child_sum(i) - outside_s);
    // The engine stops its clock before it tears down.
    double wait = u.latency[0][i] - u.wall_s[0][i];
    for (usize p = 1; p < u.passes; ++p) {
      wait = std::min(wait, u.latency[p][i] - u.wall_s[p][i]);
    }
    t.extras.queue_wait_s += wait - t.profile.best(i, Layer::kTeardown);
    untraced += best_lat[i];
    traced += best_traced[i];
  }
  t.extras.queue_wait_ops = best_lat.size();
  t.extras.op_time_s = untraced;
  out.attempted = u.attempted;
  out.failed = u.failed;
  const double n = static_cast<double>(best_lat.size());
  t.report(opt, n / untraced, n / traced, out);
}

} // namespace perfbench
