#include "api/build_cache.hpp"

#include <sstream>
#include <stdexcept>

namespace sch::api {

std::string BuildCache::config_fingerprint(const sim::SimConfig& c) {
  std::string fingerprint;
  for (const sim::SimField& f : sim::kSimFields) {
    fingerprint += f.key;
    fingerprint += '=';
    fingerprint += std::to_string(f.get(c));
    fingerprint += ';';
  }
  return fingerprint;
}

std::string BuildCache::make_key(const std::string& kernel,
                                 const std::string& variant,
                                 const kernels::SizeMap& resolved_sizes,
                                 const sim::SimConfig& config) {
  std::ostringstream os;
  os << kernel << '|' << variant << '|';
  for (const auto& [name, value] : resolved_sizes) {
    os << name << '=' << value << ',';
  }
  os << '|' << config_fingerprint(config);
  return os.str();
}

BuildCache::Ptr BuildCache::get_or_build(const kernels::KernelEntry& entry,
                                         const std::string& variant,
                                         const kernels::SizeMap& resolved_sizes,
                                         const sim::SimConfig& config) {
  const auto build_fresh = [&]() -> Ptr {
    auto built = std::make_shared<kernels::BuiltKernel>(
        entry.build(variant, resolved_sizes));
    // Predecode once here so every consumer of the cached kernel (the
    // engines copy the Program and call ensure_predecoded) skips the pass.
    built->program.predecode();
    return built;
  };

  if (capacity_ == 0) return build_fresh();

  const std::string key = make_key(entry.name, variant, resolved_sizes, config);
  std::shared_ptr<Node> node;
  bool creator = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      node = std::make_shared<Node>();
      entries_.emplace(key, node);
      creator = true;
      ++stats_.misses;
    } else {
      node = it->second;
      ++stats_.hits;
      if (node->in_lru) lru_.splice(lru_.begin(), lru_, node->lru);
    }
    if (!creator) {
      cv_.wait(lock, [&] { return node->done; });
      if (node->value != nullptr) return node->value;
      throw std::invalid_argument(node->error);
    }
  }

  // Creator path: build outside the lock so a slow build never serializes
  // lookups of unrelated keys.
  Ptr built;
  std::string error;
  try {
    built = build_fresh();
  } catch (const std::exception& e) {
    error = e.what();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    node->done = true;
    if (built != nullptr) {
      node->value = built;
      lru_.push_front(key);
      node->lru = lru_.begin();
      node->in_lru = true;
      while (lru_.size() > capacity_) {
        auto victim = entries_.find(lru_.back());
        if (victim != entries_.end()) entries_.erase(victim);
        lru_.pop_back();
        ++stats_.evictions;
      }
    } else {
      // Failed builds are never cached: erase so the next lookup of the key
      // re-misses and re-reports the same error. Guard against the node
      // having been evicted/cleared-and-replaced meanwhile.
      node->error = error;
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second == node) entries_.erase(it);
    }
    stats_.entries = entries_.size();
  }
  cv_.notify_all();
  if (built == nullptr) throw std::invalid_argument(error);
  return built;
}

BuildCache::Stats BuildCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.entries = entries_.size();
  return s;
}

void BuildCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  // In-flight nodes (not yet in the LRU) stay: their creators still hold the
  // shared node and will insert it on completion.
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->in_lru) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  lru_.clear();
  for (auto& [key, node] : entries_) node->in_lru = false;
  stats_.entries = entries_.size();
}

BuildCache& default_build_cache() {
  static BuildCache cache;
  return cache;
}

} // namespace sch::api
