#include "api/run_report.hpp"

namespace sch::api {

const char* engine_name(EngineSel sel) {
  switch (sel) {
    case EngineSel::kIss: return "iss";
    case EngineSel::kCycle: return "cycle";
    case EngineSel::kBoth: return "both";
  }
  return "?";
}

bool parse_engine(const std::string& name, EngineSel& out) {
  if (name == "iss") { out = EngineSel::kIss; return true; }
  if (name == "cycle") { out = EngineSel::kCycle; return true; }
  if (name == "both") { out = EngineSel::kBoth; return true; }
  return false;
}

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone: return "none";
    case FailureKind::kValidation: return "validation";
    case FailureKind::kBusError: return "bus_error";
    case FailureKind::kDeadlock: return "deadlock";
    case FailureKind::kLockstepMismatch: return "lockstep_mismatch";
    case FailureKind::kGoldenMismatch: return "golden_mismatch";
    case FailureKind::kBudgetExceeded: return "budget_exceeded";
    case FailureKind::kInternal: return "internal";
  }
  return "?";
}

Json failure_json(const FailureInfo& failure) {
  Json fj = Json::object();
  fj.set("kind", failure_kind_name(failure.kind));
  fj.set("hart", static_cast<i64>(failure.hart));
  fj.set("pc", failure.pc);
  fj.set("cycle", failure.cycle);
  return fj;
}

namespace {

Json stalls_json(const sim::PerfCounters& p) {
  Json o = Json::object();
  for (const sim::PerfField& f : sim::kPerfFields) {
    if (f.stalls_key != nullptr) o.set(f.stalls_key, p.*f.member);
  }
  return o;
}

} // namespace

Json RunReport::to_json() const {
  Json row = Json::object();
  row.set("schema", kSchemaVersion);
  row.set("name", name);
  row.set("kernel", kernel);
  row.set("variant", variant);
  row.set("engine", engine_name(engine));
  row.set("ok", ok);
  if (!ok) {
    row.set("error", error);
    row.set("failure", failure_json(failure));
  }
  row.set("cycles", cycles);
  row.set("retired", perf.total_retired());
  row.set("fpu_ops", perf.fpu_ops);
  row.set("fpu_utilization", fpu_utilization);
  row.set("useful_flops", useful_flops);
  row.set("iss_instructions", iss_instructions);
  row.set("mismatches", mismatches);
  row.set("lockstep_mismatches", lockstep_mismatches);
  row.set("stalls", stalls_json(perf));
  Json tcdm = Json::object();
  tcdm.set("reads", tcdm_reads);
  tcdm.set("writes", tcdm_writes);
  tcdm.set("conflicts", tcdm_conflicts);
  tcdm.set("out_of_range", tcdm_out_of_range);
  Json top = Json::array();
  for (const auto& [bank, conflicts] : tcdm_top_banks) {
    Json entry = Json::object();
    entry.set("bank", static_cast<i64>(bank));
    entry.set("conflicts", conflicts);
    top.push_back(std::move(entry));
  }
  tcdm.set("top_banks", std::move(top));
  row.set("tcdm", std::move(tcdm));
  Json dm = Json::object();
  dm.set("transfers", dma.transfers);
  dm.set("bytes", dma.bytes);
  dm.set("busy_cycles", dma.busy_cycles);
  dm.set("startup_cycles", dma.startup_cycles);
  dm.set("tcdm_conflicts", dma.tcdm_conflicts);
  dm.set("queue_full_stalls", dma.queue_full_stalls);
  dm.set("achieved_bytes_per_cycle", dma.achieved_bytes_per_cycle);
  row.set("dma", std::move(dm));
  row.set("num_cores", static_cast<i64>(num_cores));
  Json core_rows = Json::array();
  for (usize h = 0; h < cores.size(); ++h) {
    const CoreReport& c = cores[h];
    Json cr = Json::object();
    cr.set("hart", static_cast<i64>(h));
    cr.set("cycles", c.cycles);
    cr.set("retired", c.perf.total_retired());
    cr.set("fpu_ops", c.perf.fpu_ops);
    cr.set("fpu_utilization", c.fpu_utilization);
    cr.set("stalls", stalls_json(c.perf));
    core_rows.push_back(std::move(cr));
  }
  row.set("cores", std::move(core_rows));
  Json en = Json::object();
  en.set("power_mw", energy.power_mw);
  en.set("energy_per_cycle_pj", energy.energy_per_cycle_pj);
  en.set("fpu_ops_per_joule", energy.fpu_ops_per_joule);
  row.set("energy", std::move(en));
  Json rr = Json::object();
  rr.set("fp_used", static_cast<i64>(regs.fp_regs_used));
  rr.set("accumulator", static_cast<i64>(regs.accumulator_regs));
  rr.set("chained", static_cast<i64>(regs.chained_regs));
  rr.set("ssr", static_cast<i64>(regs.ssr_regs));
  row.set("regs", std::move(rr));
  row.set("wall_s", wall_s);
  return row;
}

} // namespace sch::api
