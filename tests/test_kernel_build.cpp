// Kernel build digests: one line per registry kernel x variant, at the
// registry's default sizes and at the sizes perfbench's paper_sweep runs,
// holding a 64-bit FNV-1a digest of everything a build hands the engines
// and the golden check: the program words, the data image bytes, the bit
// patterns of `expected`, `out_base` and the declared regions. Each line of
// tests/golden/kernel_build_digest.txt reads
//
//   kernel|variant|sizes|digest
//
// A builder rewrite that moves one byte of any of these fails here. There
// is no regeneration switch; the golden changes only by a reviewed hand
// edit, and a mismatch prints the full set of actual lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "kernels/registry.hpp"

namespace sch::kernels {
namespace {

#ifdef SCH_GOLDEN_DIR

constexpr const char* kGoldenPath = SCH_GOLDEN_DIR "/kernel_build_digest.txt";

/// Sizes perfbench/src/paper_sweep.cpp runs each family at (the stencils
/// run at the registry defaults, which the default pass covers).
const std::map<std::string, SizeMap>& paper_sweep_sizes() {
  static const std::map<std::string, SizeMap> sizes = {
      {"axpy", {{"n", 1024}, {"tile", 64}}},
      {"conv2d", {{"h", 34}, {"w", 34}}},
      {"dot", {{"n", 4096}}},
      {"gemm", {{"m", 32}, {"k", 32}, {"n", 32}}},
      {"gemv", {{"m", 64}, {"n", 48}, {"rtile", 8}}},
      {"vecop", {{"n", 4096}}},
  };
  return sizes;
}

class Fnv1a {
 public:
  void bytes(const void* data, usize n) {
    const auto* p = static_cast<const u8*>(data);
    for (usize i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64le(u64 v) {
    u8 b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<u8>(v >> (8 * i));
    bytes(b, 8);
  }
  void str(const std::string& s) {
    u64le(s.size());
    bytes(s.data(), s.size());
  }
  [[nodiscard]] u64 value() const { return h_; }

 private:
  u64 h_ = 0xcbf29ce484222325ull;
};

u64 digest(const BuiltKernel& k) {
  Fnv1a h;
  h.u64le(k.program.words.size());
  for (const u32 w : k.program.words) h.u64le(w);
  h.u64le(k.program.data.size());
  h.bytes(k.program.data.data(), k.program.data.size());
  h.u64le(k.expected.size());
  for (const double v : k.expected) {
    u64 bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h.u64le(bits);
  }
  h.u64le(k.out_base);
  h.u64le(k.regions.size());
  for (const verify::MemRegion& r : k.regions) {
    h.str(r.name);
    h.u64le(r.base);
    h.u64le(r.bytes);
    h.u64le((r.written ? 1u : 0u) | (r.shared ? 2u : 0u));
  }
  return h.value();
}

std::string sizes_text(const SizeMap& sizes) {
  std::string s;
  for (const auto& [name, value] : sizes) {
    if (!s.empty()) s += ',';
    s += name + '=' + std::to_string(value);
  }
  return s.empty() ? "default" : s;
}

std::vector<std::string> actual_lines() {
  std::vector<std::string> lines;
  for (const KernelEntry* e : Registry::instance().entries()) {
    std::vector<SizeMap> size_sets = {{}};
    const auto it = paper_sweep_sizes().find(e->name);
    if (it != paper_sweep_sizes().end()) size_sets.push_back(it->second);
    for (const SizeMap& sizes : size_sets) {
      for (const std::string& v : e->variants) {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(
                          digest(e->build(v, e->resolve_sizes(sizes)))));
        lines.push_back(e->name + '|' + v + '|' + sizes_text(sizes) + '|' + hex);
      }
    }
  }
  return lines;
}

std::vector<std::string> golden_lines() {
  std::ifstream in(kGoldenPath);
  EXPECT_TRUE(in.good()) << "cannot read " << kGoldenPath;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

TEST(KernelBuild, Digest) {
  const std::vector<std::string> got = actual_lines();
  const std::vector<std::string> want = golden_lines();
  EXPECT_EQ(got.size(), want.size());
  for (usize i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i], want[i]) << "line " << i;
  }
  if (HasFailure()) {
    std::cout << "actual digests:\n";
    for (const std::string& line : got) std::cout << line << "\n";
  }
}

TEST(KernelBuild, DigestCoversPaperSweepFamilies) {
  // A renamed family would silently drop its paper_sweep sizes from the pin.
  for (const auto& [name, sizes] : paper_sweep_sizes()) {
    EXPECT_NE(Registry::instance().find(name), nullptr) << name;
  }
}

#endif // SCH_GOLDEN_DIR

} // namespace
} // namespace sch::kernels
