// Content-addressed result cache for the evaluation server: an LRU over
// rendered reports, keyed by the canonical Scenario::Serialize() string.
// Canonicalization is what makes content addressing sound — two textually
// different scenario sections that parse to the same semantics serialize to
// the same bytes, so they share one cache entry. The server stores each
// report's compact Dump as a Json string, so hits, inserts and coalesced
// waiters copy bytes, not a tree, and a hit is byte-identical to its miss.
//
// Single-flight: concurrent requests for the same key compute once. The
// first caller (the leader) runs `compute`; every concurrent duplicate
// blocks on the leader's in-flight record and shares its result (counted as
// a coalesced hit). A leader failure propagates the same exception to every
// waiter and caches nothing, so transient failures are retried by the next
// request rather than pinned.
//
// Only results the compute callback marks cacheable enter the LRU — the
// server marks exactly the ok reports, so a deadline-tripped or faulted
// evaluation (whose outcome depends on wall time or an injection counter)
// can never poison the cache.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/json.h"
#include "common/lru_map.h"

namespace coc {

class ResultCache {
 public:
  /// `capacity` is in entries; 0 disables caching entirely (every request
  /// computes) while single-flight deduplication keeps working.
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
    /// True when the report came from the cache or from coalescing onto a
    /// concurrent leader — either way, this caller ran no evaluation.
    bool hit = false;
  };

  struct Stats {
    std::size_t capacity = 0;
    std::size_t entries = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Of the hits, how many were waiters coalesced onto an in-flight
    /// leader rather than served from a resident entry.
    std::uint64_t coalesced = 0;
  };

  /// Returns the report for `key`, running `compute` at most once across
  /// all concurrent callers of the same key. `compute` runs without the
  /// cache lock held, so distinct keys never serialize each other. If the
  /// leader's compute throws, the exception propagates to the leader and
  /// every coalesced waiter alike.
  Lookup GetOrCompute(const std::string& key,
                      const std::function<Computed()>& compute);

  Stats GetStats() const;

 private:
  /// One in-flight computation; waiters block on `cv` until `done`.
  struct InFlight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Computed value;
    std::exception_ptr error;
  };

  mutable std::mutex mu_;
  LruMap<Json> lru_;  ///< capacity 0 never inserts
  std::map<std::string, std::shared_ptr<InFlight>> inflight_;
  Stats stats_;
};

}  // namespace coc
