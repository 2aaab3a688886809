// The benchmark's seeded request generator. Every request line the server
// sees comes from here, as a pure function of (workload, seed, index), so
// two runs with one seed send byte-identical streams and concurrent clients
// can draw from one stream without coordinating beyond an index counter.
//
//   hot_mix   — Zipf(1.1) over 256 distinct `evaluate` scenarios on five
//               presets; a quarter of them also arrive in 2-3 alternate
//               spellings; 1 request in 16 is an 8-scenario `batch`.
//   dial_walk — every request a distinct scenario walking four workload
//               dials on preset:1120 / preset:544; 1 in 16 from a rotating
//               pool of 24 (ICN2 override x model option) families; 1 in 8
//               a 16-point model-only `sweep`.
//   sim_serve — `analyses = sim` with pinned sim.messages and a distinct
//               sim.seed per request, weighted over four presets at two
//               rates; a quarter store-forward, a quarter MMPP arrivals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

enum class WorkloadKind { kHotMix, kDialWalk, kSimServe };

/// "hot_mix" | "dial_walk" | "sim_serve"; false on anything else.
bool ParseWorkloadKind(const std::string& name, WorkloadKind* out);
const char* WorkloadName(WorkloadKind kind);

/// Wraps scenario INI text in a one-line JSON request ("evaluate" for one
/// section, "batch" for several). The escaping is the benchmark's own, so
/// the request bytes never depend on the program under test.
std::string RequestLine(const std::string& scenario_text, bool batch);

/// One generated request.
struct GeneratedRequest {
  std::string line;   ///< newline-terminated request line
  bool batch = false;
  /// Verification class (sim_serve: system x rate x condis; -1 elsewhere).
  int cls = -1;
};

class Generator {
 public:
  Generator(WorkloadKind kind, std::uint64_t seed);

  WorkloadKind kind() const { return kind_; }
  std::uint64_t seed() const { return seed_; }

  /// Lines sent once, before the measured window: every distinct hot_mix
  /// scenario, or one request per distinct system for the other workloads.
  const std::vector<std::string>& warmup() const { return warmup_; }

  /// Measured request `index`. Stateless and thread-safe.
  GeneratedRequest Measured(std::uint64_t index) const;

  /// Number of sim_serve verification classes (0 for other workloads).
  int num_classes() const;

  /// hot_mix only: each distinct scenario's canonical text and its
  /// alternate spellings (key order, comments, whitespace).
  struct Spellings {
    std::string canonical;
    std::vector<std::string> alternates;
  };
  const std::vector<Spellings>& scenarios() const { return scenarios_; }

 private:
  GeneratedRequest HotMix(std::uint64_t index) const;
  GeneratedRequest DialWalk(std::uint64_t index) const;
  GeneratedRequest SimServe(std::uint64_t index) const;
  std::size_t ZipfDraw(double u) const;

  WorkloadKind kind_;
  std::uint64_t seed_;
  std::vector<std::string> warmup_;
  std::vector<Spellings> scenarios_;  ///< hot_mix scenario table
  std::vector<double> zipf_cdf_;      ///< hot_mix rank CDF
  std::vector<std::size_t> rank_to_scenario_;
};

}  // namespace servebench
