// serve_mixed: two closed-loop clients, each holding one long-lived NDJSON
// session on one shared serve::Server (2 engine workers, default cache
// sizes). Every pass uses a fresh server, so every pass replays the same
// cold-start traffic. Requests cover every registry kernel x variant at
// small sizes on 1 or 4 cores; about 65% are fresh shapes, 25% exact
// repeats (report-cache hits) and 10% an earlier shape under another engine
// or verify policy (build-cache hit, report-cache miss). Per-request fixed
// costs dominate here, so parse, build, memory set-up, serve and JSON show
// most.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>

#include "pipe_stream.hpp"
#include "replay.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_runner.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

using sch::scenario::Json;
using sch::kernels::SizeMap;

constexpr u32 kClients = 2;
constexpr u32 kEngineWorkers = 2;
constexpr double kPassesPerSecond = 4.0;  // see pass_count

/// Two small valid sizes per family; every kernel x variant x cores shape
/// is sent at both.
struct SizeMenu {
  const char* kernel;
  SizeMap sizes[2];
};
const SizeMenu kMenu[] = {
    {"axpy", {{{"n", 64}}, {{"n", 128}, {"tile", 32}}}},
    {"box3d1r", {{{"nx", 6}, {"ny", 6}, {"nz", 6}}, {{"nx", 8}, {"ny", 8}, {"nz", 6}}}},
    {"conv2d", {{{"h", 6}, {"w", 6}}, {{"h", 10}, {"w", 14}}}},
    {"dot", {{{"n", 64}}, {{"n", 256}}}},
    {"gemm", {{{"m", 8}, {"k", 8}, {"n", 8}}, {{"m", 16}, {"k", 8}, {"n", 8}}}},
    {"gemv", {{{"m", 16}, {"n", 16}}, {{"m", 32}, {"n", 24}}}},
    {"j3d27pt", {{{"nx", 6}, {"ny", 6}, {"nz", 6}}, {{"nx", 8}, {"ny", 8}, {"nz", 6}}}},
    {"star3d1r", {{{"nx", 6}, {"ny", 6}, {"nz", 6}}, {{"nx", 8}, {"ny", 8}, {"nz", 6}}}},
    {"vecop", {{{"n", 64}}, {{"n", 256}}}},
};

enum class Kind : sch::u8 { kFresh, kRepeat, kVariant };

struct Request {
  Kind kind = Kind::kFresh;
  std::string line;  // the NDJSON request, newline excluded
};

struct Traffic {
  std::vector<Request> requests;               // all clients, global op index
  std::vector<std::vector<usize>> per_client;  // op indices in send order
  std::string digest;
};

struct Draft {
  std::string kernel;
  std::vector<std::string> variants;
  const SizeMap* sizes = nullptr;
  u32 cores = 1;
  std::string engine = "cycle";
  bool verify_warn = false;
};

std::string render(const Draft& d, i64 id) {
  Json req = Json::object();
  req.set("id", id);
  req.set("kernel", d.kernel);
  Json variants = Json::array();
  for (const std::string& v : d.variants) variants.push_back(v);
  req.set("variants", std::move(variants));
  Json size = Json::object();
  for (const auto& [k, v] : *d.sizes) size.set(k, v);
  Json sizes = Json::array();
  sizes.push_back(std::move(size));
  req.set("sizes", std::move(sizes));
  Json sim = Json::object();
  sim.set("cores", static_cast<i64>(d.cores));
  req.set("sim", std::move(sim));
  req.set("engine", d.engine);
  if (d.verify_warn) req.set("verify", "warn");
  return req.dump();
}

Traffic make_traffic(u64 seed, Outcome& out) {
  Rng rng(seed);
  std::vector<std::vector<Draft>> fresh(kClients);
  for (const SizeMenu& menu : kMenu) {
    const sch::kernels::KernelEntry* entry =
        sch::kernels::Registry::instance().find(menu.kernel);
    if (entry == nullptr) {
      out.check(false, std::string("kernel ") + menu.kernel + " is not registered");
      continue;
    }
    for (u32 cores : {1u, 4u}) {
      for (u32 size = 0; size < 2; ++size) {
        // Every shape is sent fresh once per pass. On one core, where a
        // kernel has more than two variants, two of them share one request;
        // the requests of each (family, cores, size) group alternate between
        // the clients. Multi-variant requests stay among the cheap one-core
        // shapes: a two-job request of a slow 4-core shape waits for the
        // other client's job on the second worker, and that wait, not the
        // program, would set the tail latency.
        std::vector<std::string> variants = entry->variants;
        rng.shuffle(variants);
        std::vector<std::vector<std::string>> requests;
        usize next = 0;
        if (cores == 1 && variants.size() > 2) {
          requests.push_back({variants[0], variants[1]});
          next = 2;
        }
        for (; next < variants.size(); ++next) requests.push_back({variants[next]});
        const usize first_client = rng.below(kClients);
        for (usize r = 0; r < requests.size(); ++r) {
          Draft d;
          d.kernel = menu.kernel;
          d.variants = std::move(requests[r]);
          d.sizes = &menu.sizes[size];
          d.cores = cores;
          // Fresh requests always run the cycle engine (alone or in
          // lockstep), so the pass's simulated work does not depend on
          // the seed; ISS-only runs come in as variants. The ISS runs stay
          // on one core: on the slow 4-core shapes they would decide, at
          // random, which requests make up the latency tail (lockstep on
          // 1-4 harts is fuzz_lockstep's job).
          d.engine = cores == 1 && rng.chance(25) ? "both" : "cycle";
          d.verify_warn = rng.chance(15);
          fresh[(first_client + r) % kClients].push_back(std::move(d));
        }
      }
    }
  }

  Traffic t;
  t.per_client.resize(kClients);
  Digest digest;
  for (u32 c = 0; c < kClients; ++c) {
    std::vector<Draft>& f = fresh[c];
    rng.shuffle(f);
    const usize n = f.size();
    // Position keys: fresh request i sits at (i + 0.5) / n; each extra
    // lands uniformly after its source, so it always follows it.
    std::vector<std::pair<double, std::pair<Kind, Draft>>> seq;
    for (usize i = 0; i < n; ++i) {
      seq.push_back({(static_cast<double>(i) + 0.5) / static_cast<double>(n),
                     {Kind::kFresh, f[i]}});
    }
    const usize repeats = static_cast<usize>(std::lround(n * 25.0 / 65.0));
    const usize variants = static_cast<usize>(std::lround(n * 10.0 / 65.0));
    std::vector<usize> one_core;  // engine/verify variants re-run these
    for (usize i = 0; i < n; ++i) {
      if (f[i].cores == 1) one_core.push_back(i);
    }
    for (usize j = 0; j < repeats + variants; ++j) {
      const usize src = j < repeats ? rng.below(n) : one_core[rng.below(one_core.size())];
      const double lo = (static_cast<double>(src) + 0.5) / static_cast<double>(n);
      const double key = lo + rng.unit() * (1.0 - lo) + 1e-9;
      Draft d = f[src];
      Kind kind = Kind::kRepeat;
      if (j >= repeats) {
        kind = Kind::kVariant;
        const u32 how = static_cast<u32>(rng.below(3));
        if (how == 0) {
          d.verify_warn = !d.verify_warn;
        } else if (how == 1) {
          d.engine = "iss";
        } else {
          d.engine = d.engine == "cycle" ? "both" : "cycle";
        }
      }
      seq.push_back({key, {kind, std::move(d)}});
    }
    std::stable_sort(seq.begin(), seq.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (usize j = 0; j < seq.size(); ++j) {
      Request r;
      r.kind = seq[j].second.first;
      r.line = render(seq[j].second.second, static_cast<i64>(c) * 100000 + static_cast<i64>(j));
      digest.add(r.line);
      t.per_client[c].push_back(t.requests.size());
      t.requests.push_back(std::move(r));
    }
  }
  t.digest = digest.hex();
  return t;
}

/// One NDJSON session on the shared server over the benchmark's pipes.
class Session {
 public:
  explicit Session(sch::serve::Server& server)
      : resp_buf_(resp_.read_fd()), responses_(&resp_buf_) {
    thread_ = std::thread([this, &server] {
      {
        FdStreamBuf in_buf(req_.read_fd());
        FdStreamBuf out_buf(resp_.write_fd());
        std::istream in(&in_buf);
        std::ostream out(&out_buf);
        server.serve(in, out);
        out.flush();
      }
      resp_.close_write();  // the client sees EOF
    });
  }
  ~Session() { close(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Send one request line and collect response lines up to its done or
  /// error line. False when the session ended early.
  bool exchange(const std::string& line, std::vector<std::string>& lines) {
    lines.clear();
    if (!req_.write_all(line + "\n")) return false;
    std::string got;
    while (std::getline(responses_, got)) {
      const bool last = got.find("\"type\":\"done\"") != std::string::npos ||
                        got.find("\"type\":\"error\"") != std::string::npos ||
                        got.find("\"type\":\"pong\"") != std::string::npos ||
                        got.find("\"type\":\"stats\"") != std::string::npos;
      lines.push_back(std::move(got));
      if (last) return true;
    }
    return false;
  }

  /// End the session: EOF to the server, then drain whatever it still
  /// writes so it can never block on a full pipe while we join it.
  void close() {
    req_.close_write();
    std::string rest;
    while (thread_.joinable() && std::getline(responses_, rest)) {
    }
    if (thread_.joinable()) thread_.join();
  }

 private:
  Pipe req_;
  Pipe resp_;
  FdStreamBuf resp_buf_;    // the client's side of the response pipe
  std::istream responses_;
  std::thread thread_;
};

/// What the benchmark keeps of one report line.
struct ReportInfo {
  bool cached = false;
  bool ok = false;
  u64 cycles = 0;
  u64 cores = 1;
  u64 fpu_ops = 0;
  double energy_per_cycle_pj = 0;
  double wall_s = 0;
  std::string shape;  // kernel/variant, sizes and cores
  std::string fingerprint;
  Json row;  // kept for pass 0 only (replay comparison)
};

struct RequestResult {
  double latency_s = 0;
  double done_wall_s = 0;
  bool refused = false;
  std::vector<ReportInfo> reports;
};

struct PassResult {
  std::vector<RequestResult> requests;
  Json stats;  // the stats line after both clients finished
};

PassResult run_pass(const Traffic& t, bool keep_rows, Outcome& out) {
  PassResult pass;
  pass.requests.resize(t.requests.size());
  std::vector<std::vector<std::vector<std::string>>> raw(kClients);
  {
    sch::serve::ServerOptions opts;
    opts.threads = kEngineWorkers;
    sch::serve::Server server(opts);
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<std::string> lines;
    for (u32 c = 0; c < kClients; ++c) {
      sessions.push_back(std::make_unique<Session>(server));
      out.check(sessions.back()->exchange("{\"op\":\"ping\"}", lines),
                "serve session did not answer ping");
    }
    std::vector<std::thread> clients;
    for (u32 c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        raw[c].resize(t.per_client[c].size());
        for (usize j = 0; j < t.per_client[c].size(); ++j) {
          const usize op = t.per_client[c][j];
          const auto t0 = Clock::now();
          const bool ok = sessions[c]->exchange(t.requests[op].line, raw[c][j]);
          pass.requests[op].latency_s = seconds_between(t0, Clock::now());
          if (!ok) break;
        }
      });
    }
    for (std::thread& th : clients) th.join();
    if (sessions[0]->exchange("{\"op\":\"stats\"}", lines) && !lines.empty()) {
      auto parsed = Json::parse(lines.back());
      if (parsed.ok()) pass.stats = std::move(parsed).value();
    }
    for (auto& s : sessions) s->close();
  }
  // Parse outside the timed window.
  for (u32 c = 0; c < kClients; ++c) {
    for (usize j = 0; j < raw[c].size(); ++j) {
      RequestResult& rr = pass.requests[t.per_client[c][j]];
      for (const std::string& text : raw[c][j]) {
        auto parsed = Json::parse(text);
        if (!parsed.ok()) {
          out.check(false, "unparseable response line");
          continue;
        }
        const Json line = std::move(parsed).value();
        const Json* type = line.get("type");
        const std::string kind = type != nullptr ? type->as_string() : "";
        if (kind == "error") {
          rr.refused = true;
        } else if (kind == "done") {
          rr.done_wall_s = line.get("wall_s")->as_number();
        } else if (kind == "report") {
          const Json& rep = *line.get("report");
          ReportInfo info;
          info.cached = line.get("cached")->as_bool();
          info.ok = rep.get("ok")->as_bool();
          info.cycles = static_cast<u64>(rep.get("cycles")->as_i64());
          info.fpu_ops = static_cast<u64>(rep.get("fpu_ops")->as_i64());
          info.cores = static_cast<u64>(rep.get("num_cores")->as_i64());
          info.energy_per_cycle_pj =
              rep.get("energy")->get("energy_per_cycle_pj")->as_number();
          info.wall_s = rep.get("wall_s")->as_number();
          info.shape = rep.get("kernel")->as_string() + "/" + rep.get("variant")->as_string() +
                       rep.get("sizes")->dump() + "@" + std::to_string(info.cores);
          info.fingerprint = fingerprint(rep);
          out.check(rep.get("mismatches")->as_i64() == 0 &&
                        rep.get("lockstep_mismatches")->as_i64() == 0,
                    "wrong output: " + rep.get("name")->as_string() + " " +
                        (info.ok ? "" : rep.get("error")->as_string()));
          if (keep_rows) info.row = rep;
          rr.reports.push_back(std::move(info));
        }
      }
    }
  }
  return pass;
}

/// Pass-level sums the metrics need.
struct PassSums {
  u64 reports = 0;
  u64 failed = 0;
  u64 simulated_cycles = 0;  // every fresh cycle-engine run, repeats of a shape included
  SimTotals shapes;          // each simulated shape once: the model's numbers
};

PassSums sums_of(const PassResult& p) {
  PassSums s;
  std::set<std::string> seen;
  for (const RequestResult& r : p.requests) {
    if (r.refused) ++s.failed, ++s.reports;
    for (const ReportInfo& info : r.reports) {
      ++s.reports;
      if (!info.ok) ++s.failed;
      if (info.cached) continue;
      s.simulated_cycles += info.cycles;
      // Another engine or verify policy re-runs a shape with identical
      // cycles; counting it again would make the totals depend on the draw.
      if (info.cycles != 0 && seen.insert(info.shape).second) {
        s.shapes.add(info.cycles, info.cores, info.fpu_ops, info.energy_per_cycle_pj);
      }
    }
  }
  return s;
}

double cache_hit_ratio(const Json& stats, const char* cache) {
  const Json* c = stats.is_object() ? stats.get("cache") : nullptr;
  const Json* s = c != nullptr ? c->get(cache) : nullptr;
  if (s == nullptr) return 0;
  const double hits = s->get("hits")->as_number();
  const double misses = s->get("misses")->as_number();
  return hits + misses == 0 ? 0 : hits / (hits + misses);
}

/// The untraced passes, each checked against pass 0.
struct Untraced {
  PassResult first;
  std::vector<std::vector<double>> latency;               // [pass][op]
  std::vector<std::vector<std::vector<double>>> wall_s;   // [pass][op][job]
  std::vector<std::vector<double>> queue_wait;            // [pass][op]
  double rss_mib = 0;  // peak resident set after set-up and pass 0
  u64 attempted = 0;
  u64 failed = 0;
  usize passes = 0;
};

void traced_pass(const Traffic& t, const Untraced& u, TracedRun& traced,
                 Outcome& out);

/// `passes` untraced passes. With `traced`, one traced pass runs after each
/// untraced pass, so both kinds of pass see the same host phases.
Untraced run_untraced(const Traffic& t, usize passes, Outcome& out,
                      TracedRun* traced = nullptr) {
  Untraced u;
  while (u.passes < passes) {
    PassResult p = run_pass(t, u.passes == 0, out);
    const PassSums s = sums_of(p);
    u.attempted += s.reports;
    u.failed += s.failed;
    std::vector<double> lat(t.requests.size());
    std::vector<std::vector<double>> walls(t.requests.size());
    std::vector<double> waits(t.requests.size(), 0);
    for (usize op = 0; op < t.requests.size(); ++op) {
      const RequestResult& r = p.requests[op];
      lat[op] = r.latency_s;
      double slowest = 0;
      for (const ReportInfo& info : r.reports) {
        walls[op].push_back(info.wall_s);
        if (!info.cached) slowest = std::max(slowest, info.wall_s);
      }
      waits[op] = r.done_wall_s - slowest;
      if (u.passes > 0) {
        const RequestResult& f = u.first.requests[op];
        bool same = f.reports.size() == r.reports.size() && f.refused == r.refused;
        for (usize k = 0; same && k < r.reports.size(); ++k) {
          same = f.reports[k].fingerprint == r.reports[k].fingerprint &&
                 f.reports[k].cached == r.reports[k].cached;
        }
        out.check(same, "pass " + std::to_string(u.passes) + " request " +
                            std::to_string(op) + " differs from pass 0");
      }
    }
    u.latency.push_back(std::move(lat));
    u.wall_s.push_back(std::move(walls));
    u.queue_wait.push_back(std::move(waits));
    if (u.passes == 0) {
      u.first = std::move(p);
      u.rss_mib = peak_rss_mib();
    }
    ++u.passes;
    if (!out.errors.empty()) break;
    if (traced != nullptr) traced_pass(t, u, *traced, out);
  }
  return u;
}

/// Closed-loop pass time from per-request best latencies: the slower
/// client's sum.
double pass_time(const Traffic& t, const std::vector<double>& best) {
  double worst = 0;
  for (u32 c = 0; c < kClients; ++c) {
    double sum = 0;
    for (usize op : t.per_client[c]) sum += best[op];
    worst = std::max(worst, sum);
  }
  return worst;
}

/// The traced replay of one request (see replay.hpp): parse, report-cache
/// lookup, build, verify, memories, ISS, simulator, energy, JSON.
struct ReplayState {
  BuildMirror builds;
  sch::serve::ReportCache reports{sch::serve::ServerOptions{}.report_cache_capacity};
};

struct ReplayedJob {
  bool cached = false;
  Json row;  // report_row of the replayed report
  std::shared_ptr<const sch::api::RunReport> report;
};

std::vector<ReplayedJob> replay_request(const Request& req, u32 op,
                                        ReplayState& state, Tracer& tracer,
                                        bool keep_rows) {
  const Scoped root(tracer, Layer::kOp, op);
  sch::api::EngineSel engine = sch::api::EngineSel::kCycle;
  std::vector<sch::scenario::Job> jobs;
  Json id;
  {
    const Scoped span(tracer, Layer::kParse, op);
    const Json parsed = Json::parse(req.line).value();
    id = *parsed.get("id");
    sch::api::parse_engine(parsed.get("engine")->as_string(), engine);
    sch::scenario::Scenario sc;
    sc.name = "request";
    if (const Json* v = parsed.get("verify")) sc.verify = v->as_string();
    Json run = Json::object();
    for (const char* key : {"kernel", "variants", "sizes"}) {
      run.set(key, *parsed.get(key));
    }
    sc.runs.push_back(
        sch::scenario::parse_run_spec(run, 0, *parsed.get("sim"), 1).value());
    jobs = sch::scenario::expand(sc).value();
  }
  std::vector<ReplayedJob> out(jobs.size());
  for (usize k = 0; k < jobs.size(); ++k) {
    const sch::scenario::Job& job = jobs[k];
    std::string key;
    {
      const Scoped span(tracer, Layer::kServeCache, op);
      key = sch::serve::ReportCache::make_key(job, engine);
      out[k].report = state.reports.get(key);
    }
    out[k].cached = out[k].report != nullptr;
    if (!out[k].cached) {
      auto built = state.builds.get(*job.kernel, job.variant, job.sizes,
                                    job.config, tracer, op);
      ReplayJob rj;
      rj.built = built.get();
      rj.config = job.config;
      rj.engine = engine;
      rj.verify = job.verify;
      rj.name = job.kernel->name + "/" + job.variant;
      auto report = std::make_shared<const sch::api::RunReport>(
          replay_execute(rj, tracer, op));
      {
        const Scoped span(tracer, Layer::kServeCache, op);
        state.reports.put(key, report);
      }
      out[k].report = std::move(report);
    }
    {
      const Scoped span(tracer, Layer::kToJson, op);
      const std::string text =
          sch::serve::report_line(id, k, jobs.size(), out[k].cached,
                                  sch::serve::report_row(*out[k].report, job))
              .dump();
      (void)text;
    }
    if (keep_rows) out[k].row = sch::serve::report_row(*out[k].report, job);
  }
  return out;
}

/// One traced pass: both clients' requests replayed on two threads against
/// a fresh report cache and build mirror, checked against the untraced pass 0.
void traced_pass(const Traffic& t, const Untraced& u, TracedRun& traced, Outcome& out) {
  const usize ops = t.requests.size();
  const bool first = traced.profile.passes() == 0;
  ReplayState state;
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::vector<std::vector<ReplayedJob>>> results(kClients);
  std::vector<double> times(ops, 0);
  std::vector<std::thread> threads;
  for (u32 c = 0; c < kClients; ++c) tracers.push_back(std::make_unique<Tracer>(c));
  for (u32 c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (usize op : t.per_client[c]) {
        const auto t0 = Clock::now();
        results[c].push_back(replay_request(t.requests[op], static_cast<u32>(op), state,
                                            *tracers[c], first));
        times[op] = seconds_between(t0, Clock::now());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  // Job by job, the replay must reproduce the untraced run.
  LayerExtras& x = traced.extras;
  for (u32 c = 0; c < kClients; ++c) {
    for (usize j = 0; j < t.per_client[c].size(); ++j) {
      const usize op = t.per_client[c][j];
      const std::vector<ReplayedJob>& rep = results[c][j];
      const std::vector<ReportInfo>& ref = u.first.requests[op].reports;
      out.check(rep.size() == ref.size(), "replay job count differs");
      for (usize k = 0; k < std::min(rep.size(), ref.size()); ++k) {
        out.check(rep[k].cached == ref[k].cached && rep[k].report->cycles == ref[k].cycles &&
                      rep[k].report->ok == ref[k].ok,
                  "replay of request " + std::to_string(op) + " job " + std::to_string(k) +
                      " differs in cache, cycles or verdict");
        if (!first) continue;
        const std::string diff = first_difference(rep[k].row, ref[k].row);
        out.check(diff.empty(), "replay of request " + std::to_string(op) + " job " +
                                    std::to_string(k) + " differs in \"" + diff + "\"");
        if (!rep[k].cached) {
          ++x.executed_jobs;
          x.iss_instructions += rep[k].report->iss_instructions;
          x.sim_cycles += rep[k].report->cycles;
          x.stalls.add(*rep[k].report);
        }
      }
    }
  }
  traced.add_pass(std::move(tracers), std::move(times));
}

/// Derived self times (untraced best latencies minus replayed spans) and
/// the per-layer report.
void finish_traced(const Traffic& t, const Untraced& u, const Options& opt,
                   TracedRun& traced, Outcome& out) {
  const usize ops = t.requests.size();
  const LayerProfile& profile = traced.profile;
  LayerExtras& x = traced.extras;
  const std::vector<double> best_lat = best_per_op(u.latency);
  const std::vector<double> best_wait = best_per_op(u.queue_wait);
  for (usize op = 0; op < ops; ++op) {
    double fresh_wall = 0;
    bool any_fresh = false;
    const std::vector<ReportInfo>& ref = u.first.requests[op].reports;
    for (usize k = 0; k < ref.size(); ++k) {
      if (ref[k].cached) continue;
      any_fresh = true;
      double best = ref[k].wall_s;
      for (const auto& pass : u.wall_s) best = std::min(best, pass[op][k]);
      fresh_wall += best;
    }
    const double serve_layers = profile.best(op, Layer::kParse) +
                                profile.best(op, Layer::kServeCache) +
                                profile.best(op, Layer::kToJson);
    // Jobs of one request may run on both workers at once, so the request
    // can take less than its children's sum; such requests count as 0.
    x.serve_self_s += std::max(0.0, best_lat[op] - serve_layers - fresh_wall -
                                        profile.best(op, Layer::kTeardown));
    x.engine_self_s += fresh_wall - (profile.child_sum(op) - serve_layers);
    if (any_fresh) {
      x.queue_wait_s += best_wait[op];
      ++x.queue_wait_ops;
    }
    x.op_time_s += best_lat[op];
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "serve.self: %.3f us per request (%zu requests)",
                x.serve_self_s / static_cast<double>(ops) * 1e6, ops);
  out.notes.push_back(buf);
  x.report_hit_ratio = cache_hit_ratio(u.first.stats, "report");
  x.build_hit_ratio = cache_hit_ratio(u.first.stats, "build");
  const double reports = static_cast<double>(sums_of(u.first).reports);
  traced.report(opt, reports / pass_time(t, best_lat),
                reports / pass_time(t, best_per_op(traced.op_time)), out);
}

} // namespace

double serve_mixed_setup(const Options&) {
  const auto t0 = Clock::now();
  (void)sch::kernels::Registry::instance();
  sch::serve::ServerOptions opts;
  opts.threads = kEngineWorkers;
  sch::serve::Server server(opts);
  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::string> lines;
  bool ok = true;
  for (u32 c = 0; c < kClients; ++c) {
    sessions.push_back(std::make_unique<Session>(server));
    ok = sessions.back()->exchange("{\"op\":\"ping\"}", lines) && ok;
  }
  const double s = seconds_between(t0, Clock::now());
  for (auto& session : sessions) session->close();
  return ok ? s : -1;
}

Outcome run_serve_mixed(const Options& opt) {
  Outcome out;
  const Traffic t = make_traffic(opt.seed, out);
  usize fresh = 0, repeats = 0, variants = 0;
  for (const Request& r : t.requests) {
    (r.kind == Kind::kFresh ? fresh : r.kind == Kind::kRepeat ? repeats : variants)++;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "traffic: %zu requests/pass (%zu fresh, %zu repeats, %zu engine/verify "
                "variants), %u clients, digest %s",
                t.requests.size(), fresh, repeats, variants, kClients, t.digest.c_str());
  out.notes.push_back(buf);
  if (!out.errors.empty()) return out;

  const usize passes = pass_count(opt, kPassesPerSecond);
  if (!opt.trace) {
    const Metric setup = measure_setup(opt);
    out.check(setup.samples > 0, "set-up probes failed");
    const Untraced u = run_untraced(t, passes, out);
    out.attempted = u.attempted;
    out.failed = u.failed;
    const PassSums s = sums_of(u.first);
    const std::vector<double> best = best_per_op(u.latency);
    const double per_pass = pass_time(t, best);

    out.metrics.push_back(setup);
    out.add("reports_per_s", static_cast<double>(s.reports) / per_pass, "1/s", u.passes,
            "reports per pass / slower client's sum of per-request best latency");
    add_latency_metrics(out, best, "best");
    out.add("sim_cycles_per_s", static_cast<double>(s.simulated_cycles) / per_pass,
            "cycles/s", u.passes, "fresh simulated cycles per pass / same pass time");
    out.add("peak_rss_mib", u.rss_mib, "MiB", 1, "peak resident set after set-up and pass 0");
    out.add("ok_frac", 1.0 - static_cast<double>(u.failed) / static_cast<double>(u.attempted),
            "ratio", u.attempted);
    add_sim_metrics(out, s.shapes);
    out.add("paper_util_err", measure_paper_util_error(out), "ratio", 10,
            "Fig. 3 configurations, run once outside the timed passes");
    out.notes.push_back(std::to_string(u.passes) + " passes; report-cache hit ratio " +
                        std::to_string(cache_hit_ratio(u.first.stats, "report")) +
                        ", build-cache hit ratio " +
                        std::to_string(cache_hit_ratio(u.first.stats, "build")));
  } else {
    TracedRun traced(t.requests.size());
    const Untraced u = run_untraced(t, passes, out, &traced);
    out.attempted = u.attempted;
    out.failed = u.failed;
    if (out.errors.empty()) finish_traced(t, u, opt, traced, out);
  }
  return out;
}

} // namespace perfbench
