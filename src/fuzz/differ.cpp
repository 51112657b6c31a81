#include "fuzz/fuzz.hpp"

#include <algorithm>
#include <exception>
#include <sstream>

#include "api/engine.hpp"

namespace sch::fuzz {

namespace {

std::string seed_label(u64 seed) {
  std::ostringstream os;
  os << "fuzz/0x" << std::hex << seed;
  return os.str();
}

} // namespace

api::RunReport run_spec(const ProgramSpec& spec, const FuzzOptions& options) {
  api::RunRequest req;
  req.label = seed_label(spec.seed);
  req.engine = options.engine;
  req.lockstep_compare_memory = options.engine == api::EngineSel::kBoth;
  req.config.max_cycles = options.max_cycles;
  req.config.deadlock_cycles = options.deadlock_cycles;
  req.config.max_wall_ms = options.max_wall_ms;
  try {
    req.programs = materialize(spec);
  } catch (const std::exception& e) {
    // A throwing generator is a fuzzer bug, but it must still surface as a
    // classified failed report, not an abort of the campaign.
    api::RunReport r;
    r.name = req.label;
    r.engine = options.engine;
    r.ok = false;
    r.error = std::string("generator exception: ") + e.what();
    r.failure.kind = api::FailureKind::kInternal;
    return r;
  }
  req.config.num_cores = static_cast<u32>(req.programs.size());
  api::Engine engine;
  return engine.run(req);
}

ProgramSpec minimize(const ProgramSpec& spec,
                     const std::function<bool(const ProgramSpec&)>& still_fails,
                     MinimizeStats* stats) {
  // Flatten the per-hart block lists into one item sequence so ddmin can
  // remove blocks across hart boundaries; rebuilding keeps num_harts (the
  // cluster shape is part of the reproducer, even when a hart goes empty).
  struct Item {
    u32 hart;
    BlockSpec block;
  };
  std::vector<Item> items;
  for (u32 h = 0; h < spec.harts.size(); ++h) {
    for (const BlockSpec& blk : spec.harts[h]) items.push_back({h, blk});
  }

  const auto rebuild = [&](const std::vector<Item>& keep) {
    ProgramSpec s;
    s.seed = spec.seed;
    s.num_harts = spec.num_harts;
    s.harts.assign(spec.num_harts, {});
    for (const Item& it : keep) s.harts[it.hart].push_back(it.block);
    return s;
  };

  MinimizeStats local;
  MinimizeStats& st = stats != nullptr ? *stats : local;
  st.initial_blocks = items.size();

  const auto probe = [&](const std::vector<Item>& keep) {
    ++st.probes;
    return still_fails(rebuild(keep));
  };

  // Classic ddmin: try dropping each chunk (keeping its complement); on
  // success restart with the reduced set at coarser granularity.
  usize chunks = 2;
  while (items.size() >= 2 && chunks <= items.size()) {
    bool reduced = false;
    const usize chunk_len = (items.size() + chunks - 1) / chunks;
    for (usize start = 0; start < items.size(); start += chunk_len) {
      std::vector<Item> keep;
      keep.reserve(items.size());
      for (usize i = 0; i < items.size(); ++i) {
        if (i < start || i >= std::min(start + chunk_len, items.size())) {
          keep.push_back(items[i]);
        }
      }
      if (keep.size() < items.size() && probe(keep)) {
        items = std::move(keep);
        chunks = std::max<usize>(chunks - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunks >= items.size()) break;
      chunks = std::min(items.size(), chunks * 2);
    }
  }

  st.final_blocks = items.size();
  return rebuild(items);
}

} // namespace sch::fuzz
