// Configuration of a simulation experiment (paper §4 methodology).
//
// The traffic scenario itself — destination pattern, per-cluster generation
// rates, message-length distribution — lives in the shared Workload layer
// (src/workload/workload.h), the same object the analytical model consumes,
// so a SimConfig can never describe traffic the model has no view of.
#pragma once

#include <cstdint>

#include "common/deadline.h"
#include "workload/workload.h"

namespace coc {

/// How the concentrator/dispatcher devices forward messages between the
/// ECN1 networks and ICN2. The paper is ambiguous: §3.2 computes the merged
/// pipeline "as a merge unit" under wormhole (= cut-through), while
/// Eqs. (36)-(38) model the C/D as an M/G/1 server with deterministic
/// service M t_cs(ICN2) (= store-and-forward). The two differ measurably:
/// cut-through reproduces the paper's 4-8% light-load accuracy claim but
/// the ICN2 injection link inherits the slower ECN1 flit supply rate, while
/// store-and-forward reproduces the model's saturation point but adds
/// ~2 M t_cs of serialization at light load (bench/ablation_condis).
enum class CondisMode : std::uint8_t {
  kCutThrough,    ///< wormhole continues through the C/D (default)
  kStoreForward,  ///< the C/D accumulates the message before re-injecting
};

/// One simulation run. The paper gathers statistics over 100k messages after
/// a 10k warm-up, with a 10k drain tail; those are the COC_FULL defaults —
/// the ctest/bench default is a lighter budget with the same structure.
struct SimConfig {
  double lambda_g = 1e-4;  ///< per-node Poisson generation rate (msgs/us)

  std::int64_t warmup_messages = 2000;    ///< generated, not measured (head)
  std::int64_t measured_messages = 20000; ///< latency statistics window
  std::int64_t drain_messages = 2000;     ///< generated, not measured (tail)

  std::uint64_t seed = 1;

  /// C/D forwarding discipline (see CondisMode).
  CondisMode condis_mode = CondisMode::kCutThrough;

  /// Ascent-phase routing. The paper uses deterministic routing; the
  /// randomized variant (Valiant-style oblivious up-port choice) is the
  /// load-balancing ablation for adversarial traffic patterns. It applies
  /// to ICN1 routes and the ICN2 leg; ECN1 ascents are pinned to the
  /// concentrator spine by construction.
  enum class AscentPolicy : std::uint8_t { kDeterministic, kRandomized };
  AscentPolicy ascent = AscentPolicy::kDeterministic;

  /// Input-buffer depth (flits) of the concentrator/dispatcher taps. 0 means
  /// unbounded (deep concentrate/dispatch buffers, matching the model's
  /// M/G/1 treatment); 1 reduces the C/D to a plain wormhole switch
  /// (ablation). kStoreForward requires 0.
  int condis_buffer_flits = 0;

  /// When set, SimResult::delivery_times records the absolute delivery time
  /// of every measured-window message in delivery order. Used by the
  /// bit-identity regression tests; off by default (it allocates O(measured)).
  bool record_deliveries = false;

  /// The traffic scenario, shared verbatim with the analytical model. The
  /// default Workload is the paper's assumption 2 (uniform destinations,
  /// one global rate, fixed message length).
  Workload workload;

  /// Hard event budget for one run: 0 = unlimited. A run that processes
  /// more engine events than this throws SimBudgetError with the delivered
  /// count — the runaway-simulation guard for service batches.
  std::int64_t max_events = 0;

  /// Cooperative deadline checked in the event loop (default: never
  /// expires). A trip throws DeadlineExceeded with partial progress.
  Deadline deadline;

  /// Paper-faithful phase sizes (10k / 100k / 10k).
  static SimConfig PaperProtocol(double lambda, std::uint64_t seed = 1) {
    SimConfig c;
    c.lambda_g = lambda;
    c.warmup_messages = 10000;
    c.measured_messages = 100000;
    c.drain_messages = 10000;
    c.seed = seed;
    return c;
  }
};

}  // namespace coc
