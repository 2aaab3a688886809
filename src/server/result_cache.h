// Content-addressed result cache for the evaluation server: an LRU over
// rendered reports, keyed by the canonical Scenario::Serialize() string.
// Canonicalization is what makes content addressing sound — two textually
// different scenario sections that parse to the same semantics serialize to
// the same bytes, so they share one cache entry. The server stores each
// report's compact text as a Json string, so hits and inserts copy bytes,
// not a tree, and a hit is byte-identical to its miss.
//
// One rule, the one Engine::GetSystem and Engine::GetModel follow: a hit
// returns the stored bytes; a miss runs `compute` with no lock held, so each
// request is evaluated under its own deadline and never waits on another.
// Concurrent misses of one key each compute and each return their own
// result; the first cacheable one inserted is kept (LruMap::Insert).
//
// Only results the compute callback marks cacheable enter the LRU — the
// server marks exactly the ok reports, so a deadline-tripped or faulted
// evaluation (whose outcome depends on wall time or an injection counter)
// can never poison the cache. A compute that throws caches nothing, so a
// transient failure is retried by the next request rather than pinned.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "common/json.h"
#include "common/lru_map.h"

namespace coc {

class ResultCache {
 public:
  /// `capacity` is in entries; 0 disables caching entirely (every request
  /// computes).
  explicit ResultCache(std::size_t capacity) : lru_(capacity) {}
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// What a compute callback hands back.
  struct Computed {
    Json report;
    bool cacheable = false;  ///< false keeps the result out of the LRU
  };

  /// What a lookup hands out.
  struct Lookup {
    Json report;
    bool hit = false;  ///< true when the report came from the cache
  };

  struct Stats {
    std::size_t capacity = 0;
    std::size_t entries = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;  ///< computes run
    std::uint64_t evictions = 0;
  };

  /// Returns the cached report for `key`, or else runs `compute` (without
  /// the cache lock) and returns its result. An exception from `compute`
  /// propagates to this caller and caches nothing.
  Lookup GetOrCompute(const std::string& key,
                      const std::function<Computed()>& compute);

  Stats GetStats() const;

 private:
  mutable std::mutex mu_;
  LruMap<Json> lru_;  ///< capacity 0 never inserts
  Stats stats_;
};

}  // namespace coc
