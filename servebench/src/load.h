// The socket half of the benchmark: an in-process EvalServer (the object
// `coc_cli serve` wraps) driven over loopback TCP by a closed loop of
// keep-alive connections, one client thread and one request in flight each.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common.h"
#include "server/result_cache.h"
#include "workloads.h"

namespace servebench {

inline constexpr int kServerThreads = 2;
inline constexpr int kConnections = 2;
inline constexpr std::size_t kCacheEntries = 1024;

/// Outcome of one request as the client saw it.
struct RequestRecord {
  std::uint64_t index = 0;  ///< stream index (warm-up: position in warmup())
  double latency_us = 0;    ///< first byte written -> response newline read
  Digest digest;            ///< of the response minus its cache/server fields
  enum Status : std::uint8_t { kOk, kNotOk, kTransport } status = kOk;
};

/// Server-side counters read through the public stats accessors.
struct ServerCounters {
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t models = 0, model_rebinds = 0, model_evictions = 0;

  /// Models compiled from scratch: every model ever inserted (resident plus
  /// evicted) that was not a rebind.
  std::uint64_t cold_compiles() const {
    return models + model_evictions - model_rebinds;
  }
};

/// Reads the counters of one result cache and Engine pair.
ServerCounters CountersOf(const coc::ResultCache& cache,
                          const coc::Engine& engine);

struct LoadResult {
  /// One per set-up repetition: wall seconds, and process CPU seconds.
  std::vector<double> setup_s, setup_cpu_s;
  std::vector<RequestRecord> warmup;    ///< the measured server's warm-up
  std::vector<RequestRecord> measured;  ///< the measured window
  double window_s = 0;
  double cpu_s = 0;  ///< process user+sys CPU over the window
  double rss_peak_mb = 0;  ///< VmHWM minus the client's request records
  ServerCounters before, after;  ///< around the measured window
};

/// Sets up at least 5 fresh servers, more while the set-ups have taken
/// under a second in total (the last one is measured), then runs the closed
/// loop for `seconds`. Transport failures are recorded, not thrown.
LoadResult RunLoad(const Generator& gen, double seconds);

/// The served response minus the fields the server appends to the offline
/// render: every `"cache"` member and the trailing `"server"` block.
std::string StripServedFields(const std::string& response);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb();

}  // namespace servebench
