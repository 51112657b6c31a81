// Keyed build cache: the serving layer's amortizer of per-request fixed
// costs. A registry-form workload normally pays kernel generation (program
// emission + golden-output computation) and predecode on every run; the
// cache keys the finished, predecoded BuiltKernel by
// (kernel, variant, resolved sizes, every sim::kSimFields row) and
// hands out ref-counted shared pointers, so repeated requests -- a fleet of
// clients sweeping the same shapes, or one scenario with repeats -- skip
// build and predecode entirely.
//
// Concurrency contract: get_or_build is safe to call from any number of
// engine workers. Concurrent lookups of one absent key build it exactly
// once (in-flight entries are awaited, not duplicated), and the counters
// are exact: every lookup is either the unique creator of its entry (one
// miss) or found it present/in flight (one hit), so for a fixed job set
// hits/misses are independent of scheduling. Eviction is LRU over ready
// entries; evicted kernels stay alive for any run still holding the shared
// pointer (ref-counted, never invalidated mid-run).
#pragma once

#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "kernels/registry.hpp"
#include "sim/sim_config.hpp"

namespace sch::api {

class BuildCache {
 public:
  using Ptr = std::shared_ptr<const kernels::BuiltKernel>;

  /// Lifetime counters (monotonic) plus the current entry count. A lookup
  /// that waits on another thread's in-flight build counts as a hit: the
  /// build was skipped from that caller's point of view.
  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    u64 entries = 0;
  };

  /// `capacity` bounds the number of ready entries (LRU eviction beyond
  /// it). Zero disables caching: every get_or_build builds fresh.
  explicit BuildCache(usize capacity = 1024) : capacity_(capacity) {}

  /// Return the cached (built + predecoded) kernel for the key, building it
  /// on a miss. Build failures (std::invalid_argument from the registry
  /// builder) propagate to every waiter and are never cached, so a later
  /// request with the same bad key re-reports the same error.
  Ptr get_or_build(const kernels::KernelEntry& entry, const std::string& variant,
                   const kernels::SizeMap& resolved_sizes,
                   const sim::SimConfig& config);

  [[nodiscard]] Stats stats() const;
  /// Drop every ready entry (in-flight builds complete but are not
  /// re-inserted... they are: in-flight nodes are unaffected and insert
  /// normally). Does not reset the lifetime counters.
  void clear();

  [[nodiscard]] usize capacity() const { return capacity_; }

  /// The cache key: kernel/variant/sizes plus the SimConfig fingerprint.
  static std::string make_key(const std::string& kernel,
                              const std::string& variant,
                              const kernels::SizeMap& resolved_sizes,
                              const sim::SimConfig& config);

  /// Serialization of every sim::kSimFields row (the cache-key contract,
  /// documented in docs/SERVE.md). The host-side knobs outside the table
  /// (max_wall_ms, fault plans) cannot influence a build and are therefore
  /// not keyed.
  static std::string config_fingerprint(const sim::SimConfig& config);

 private:
  struct Node {
    Ptr value;                 // null while the build is in flight
    std::string error;         // builder exception message (terminal state)
    bool done = false;         // value or error is final
    std::list<std::string>::iterator lru;  // valid only when value != null
    bool in_lru = false;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::string, std::shared_ptr<Node>> entries_;
  std::list<std::string> lru_;  // front = most recently used
  usize capacity_;
  Stats stats_;
};

/// Process-wide shared cache (what the scenario runner and `schsim serve`
/// use unless given their own instance).
BuildCache& default_build_cache();

} // namespace sch::api
