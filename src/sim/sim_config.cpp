#include "sim/sim_config.hpp"

namespace sch::sim {

std::string SimField::expected() const {
  if (kind == kBool) return "a bool";
  const std::string range =
      std::to_string(min) + ".." +
      (max == ~u64{0} ? std::string("2^64-1") : std::to_string(max));
  return (kind == kPow2 ? "a power of two in " : "an integer in ") + range;
}

const SimField* find_sim_field(std::string_view key) {
  for (const SimField& f : kSimFields) {
    if (key == f.key) return &f;
  }
  return nullptr;
}

Status SimConfig::validate() const {
  for (const SimField& f : kSimFields) {
    if (!f.accepts(f.get(*this))) {
      return Status::error(std::string("SimConfig: ") + f.member + " must be " +
                           f.expected());
    }
  }
  return Status::ok();
}

} // namespace sch::sim
