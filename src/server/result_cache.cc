#include "server/result_cache.h"

#include <utility>

namespace coc {

ResultCache::Lookup ResultCache::GetOrCompute(
    const std::string& key, const std::function<Computed()>& compute) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const Json* report = lru_.Find(key)) {
      ++stats_.hits;
      return Lookup{*report, /*hit=*/true};
    }
    ++stats_.misses;
  }
  Computed value = compute();
  if (value.cacheable && lru_.capacity() > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    lru_.Insert(key, value.report);
  }
  return Lookup{std::move(value.report), /*hit=*/false};
}

ResultCache::Stats ResultCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.capacity = lru_.capacity();
  stats.entries = lru_.size();
  stats.evictions = lru_.evictions();
  return stats;
}

}  // namespace coc
