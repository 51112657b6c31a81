#include "scenario/scenario.hpp"

#include <fstream>
#include <optional>
#include <sstream>

namespace sch::scenario {

namespace {

Status type_error(const std::string& where, const char* want) {
  return Status::error("scenario: " + where + " must be " + want);
}

/// Merge `over` on top of `base` (both objects); `over`'s keys win.
Json merge_objects(const Json& base, const Json& over) {
  Json out = Json::object();
  for (const auto& [k, v] : base.members()) {
    if (over.get(k) == nullptr) out.set(k, v);
  }
  for (const auto& [k, v] : over.members()) out.set(k, v);
  return out;
}

/// Probe-apply a run's merged sim object so every defect surfaces at parse
/// time, labelled with the run.
Status check_sim(const Json& overrides, usize run_index) {
  sim::SimConfig probe;
  Status s = apply_sim_overrides(overrides, probe);
  if (s.is_ok()) return s;
  return Status::error(s.message() + " (in runs[" + std::to_string(run_index) +
                       "])");
}

Result<kernels::SizeMap> parse_size_object(const Json& obj, usize run_index) {
  const std::string where = "runs[" + std::to_string(run_index) + "].sizes";
  if (!obj.is_object()) return type_error(where + "[]", "an object");
  kernels::SizeMap sizes;
  for (const auto& [k, v] : obj.members()) {
    if (!v.is_integer()) {
      return type_error(where + "." + k, "an integer");
    }
    sizes[k] = v.as_i64();
  }
  return sizes;
}

} // namespace

Result<RunSpec> parse_run_spec(const Json& run, usize index,
                               const Json& base_sim, u32 default_repeat) {
  const std::string where = "runs[" + std::to_string(index) + "]";
  if (!run.is_object()) return type_error(where, "an object");
  for (const auto& [k, _] : run.members()) {
    if (k != "kernel" && k != "variants" && k != "sizes" && k != "sim" &&
        k != "repeat") {
      return Status::error("scenario: " + where + ": unknown key \"" + k + "\"");
    }
  }

  RunSpec spec;
  const Json* kernel = run.get("kernel");
  if (kernel == nullptr || !kernel->is_string() || kernel->as_string().empty()) {
    return type_error(where + ".kernel", "a non-empty string");
  }
  spec.kernel = kernel->as_string();

  if (const Json* variants = run.get("variants")) {
    if (!variants->is_array()) return type_error(where + ".variants", "an array");
    for (const Json& v : variants->items()) {
      if (!v.is_string()) return type_error(where + ".variants[]", "a string");
      spec.variants.push_back(v.as_string());
    }
    if (spec.variants.empty()) {
      return type_error(where + ".variants", "a non-empty array");
    }
  }

  if (const Json* sizes = run.get("sizes")) {
    if (!sizes->is_array()) return type_error(where + ".sizes", "an array");
    for (const Json& s : sizes->items()) {
      Result<kernels::SizeMap> r = parse_size_object(s, index);
      if (!r.ok()) return r.status();
      spec.sizes.push_back(std::move(r).value());
    }
    if (spec.sizes.empty()) return type_error(where + ".sizes", "a non-empty array");
  }

  spec.repeat = default_repeat;
  if (const Json* repeat = run.get("repeat")) {
    if (!repeat->is_integer() || repeat->as_i64() < 1 ||
        repeat->as_i64() > 1000) {
      return type_error(where + ".repeat", "an integer in 1..1000");
    }
    spec.repeat = static_cast<u32>(repeat->as_i64());
  }

  const Json* run_sim = run.get("sim");
  if (run_sim != nullptr && !run_sim->is_object()) {
    return type_error(where + ".sim", "an object");
  }
  spec.sim = run_sim ? merge_objects(base_sim, *run_sim) : base_sim;

  // Validate override keys, types and ranges now so a bad scenario fails
  // before any simulation starts.
  Status s = check_sim(spec.sim, index);
  if (!s.is_ok()) return s;
  return spec;
}

Result<Scenario> parse_scenario(const std::string& json_text) {
  Result<Json> doc = Json::parse(json_text);
  if (!doc.ok()) return doc.status();
  const Json root = std::move(doc).value();
  if (!root.is_object()) return type_error("document", "an object");
  for (const auto& [k, _] : root.members()) {
    if (k != "name" && k != "output" && k != "sim" && k != "repeat" &&
        k != "runs" && k != "verify") {
      return Status::error("scenario: unknown top-level key \"" + k + "\"");
    }
  }

  Scenario sc;
  const Json* name = root.get("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    return type_error("name", "a non-empty string");
  }
  sc.name = name->as_string();

  if (const Json* output = root.get("output")) {
    if (!output->is_string()) return type_error("output", "a string");
    sc.output = output->as_string();
  }

  if (const Json* verify = root.get("verify")) {
    if (!verify->is_string() ||
        (verify->as_string() != "off" && verify->as_string() != "warn" &&
         verify->as_string() != "strict")) {
      return type_error("verify", "\"off\", \"warn\" or \"strict\"");
    }
    sc.verify = verify->as_string();
  }

  Json base_sim = Json::object();
  if (const Json* sim = root.get("sim")) {
    if (!sim->is_object()) return type_error("sim", "an object");
    base_sim = *sim;
  }

  u32 default_repeat = 1;
  if (const Json* repeat = root.get("repeat")) {
    if (!repeat->is_integer() || repeat->as_i64() < 1 ||
        repeat->as_i64() > 1000) {
      return type_error("repeat", "an integer in 1..1000");
    }
    default_repeat = static_cast<u32>(repeat->as_i64());
  }

  const Json* runs = root.get("runs");
  if (runs == nullptr || !runs->is_array() || runs->items().empty()) {
    return type_error("runs", "a non-empty array");
  }
  for (usize i = 0; i < runs->items().size(); ++i) {
    Result<RunSpec> r =
        parse_run_spec(runs->items()[i], i, base_sim, default_repeat);
    if (!r.ok()) return r.status();
    sc.runs.push_back(std::move(r).value());
  }
  return sc;
}

Result<Scenario> load_scenario_file(const std::string& path,
                                    const Json& sim_overrides) {
  std::ifstream file(path);
  if (!file) return Status::error("scenario: cannot open " + path);
  std::stringstream ss;
  ss << file.rdbuf();
  Result<Scenario> r = parse_scenario(ss.str());
  if (!r.ok()) return Status::error(path + ": " + r.status().message());
  Scenario sc = std::move(r).value();
  for (usize i = 0; i < sc.runs.size(); ++i) {
    sc.runs[i].sim = merge_objects(sc.runs[i].sim, sim_overrides);
    const Status s = check_sim(sc.runs[i].sim, i);
    if (!s.is_ok()) return Status::error(path + ": " + s.message());
  }
  return sc;
}

Status apply_sim_overrides(const Json& overrides, sim::SimConfig& config) {
  if (overrides.is_null()) return Status::ok();
  if (!overrides.is_object()) return type_error("sim", "an object");
  for (const auto& [key, v] : overrides.members()) {
    const sim::SimField* f = sim::find_sim_field(key);
    if (f == nullptr) {
      return Status::error("scenario: unknown sim override \"" + key + "\"");
    }
    const bool want_bool = f->kind == sim::SimField::kBool;
    std::optional<u64> n;
    if (want_bool && v.is_bool()) n = v.as_bool();
    if (!want_bool && v.is_integer() && v.as_i64() >= 0) {
      n = static_cast<u64>(v.as_i64());
    }
    if (!n || !f->accepts(*n)) {
      return Status::error("scenario: sim." + key + " must be " + f->expected());
    }
    f->set(config, *n);
  }
  return Status::ok();
}

} // namespace sch::scenario
