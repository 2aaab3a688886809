// Knobs for the analytical model's reconstruction-ambiguous equations.
//
// The scanned paper garbles a few equations (each knob below names one).
// Every reconstruction choice is isolated here so the ablation benches can
// quantify its effect; defaults are the variants that (a) are dimensionally
// consistent, (b) reproduce the paper's reported saturation points, and
// (c) agree best with our discrete-event simulator.
// Traffic-side knobs (destination pattern, per-cluster rates, message-length
// distribution) are NOT options of the model: they live in the shared
// Workload layer (src/workload/workload.h), which the model consumes through
// CompiledModel's workload argument. ModelOptions only selects between
// reconstructions of the paper's equations.
#pragma once

namespace coc {

struct ModelOptions {
  /// Reconstruction of Eq. (23), the ICN2 message rate seen from the cluster
  /// pair (i, j).
  enum class LambdaI2 {
    /// lambda_g (N_i U_i + N_j U_j)/2 — mean per-concentrator injection rate
    /// of the pair. Reproduces the paper's saturation points (default).
    kPairMean,
    /// lambda_g N_i N_j (U_i + U_j)/(N_i + N_j) — harmonic-mean flavored
    /// variant suggested by the garbled OCR tokens.
    kHarmonic,
  };
  LambdaI2 lambda_i2 = LambdaI2::kPairMean;

  /// Which per-channel rate eta the ECN1 stages of the merged inter-cluster
  /// pipeline use (Eq. 24 is written from cluster i's point of view only).
  enum class EcnEta {
    /// Source-side stages use eta of ECN1(i), destination-side stages use
    /// eta of ECN1(j) (default; physically consistent).
    kPerSide,
    /// All ECN1 stages use cluster i's eta, exactly as Eq. (24) is printed.
    kSourceSideOnly,
  };
  EcnEta ecn_eta = EcnEta::kPerSide;

  /// Service time of the concentrator/dispatcher M/G/1 queues (Eq. 37).
  enum class CondisService {
    /// M t_cs(ICN2), exactly as printed (assumes a store-and-forward C/D
    /// that re-serializes at the ICN2 rate). Default.
    kIcn2Rate,
    /// M max(t_cs(ECN1_i), t_cs(ICN2)): under cut-through forwarding the
    /// ICN2 injection link can be occupied no faster than the ECN1 supplies
    /// flits; consistent with SimConfig CondisMode::kCutThrough.
    kSupplyLimited,
  };
  CondisService condis_service = CondisService::kIcn2Rate;

  /// The Eq. (27)/(28) relaxing factor applied to the channel rate on
  /// ICN2-interior stages. The printed fraction reads delta = beta_E/beta_I2,
  /// but the prose says the ICN2 waiting time "will be decreased
  /// proportional to the capacity of the ICN2" — which requires the inverse.
  /// With Table 2 (ICN2 twice as fast as ECN1) only the inverse decreases
  /// waiting, and only it reproduces Fig. 7's bandwidth-sensitivity story.
  enum class RelaxingFactor {
    kInverseCapacity,  ///< delta = beta_I2 / beta_E (prose; default)
    kAsPrinted,        ///< delta = beta_E / beta_I2 (the garbled formula)
    kOff,              ///< no relaxing factor (ablation)
  };
  RelaxingFactor relaxing_factor = RelaxingFactor::kInverseCapacity;

  /// Arrival rate fed to the source-queue M/G/1 of Eqs. (18)/(31).
  enum class SourceQueueRate {
    /// Per-node rate: lambda_g (1-U_i) intra, lambda_g U_i inter (default).
    /// Keeps the source queue finite across the paper's figure ranges.
    kPerNode,
    /// Network-total rates as the printed subscripts suggest
    /// (lambda_ICN1 = N_i lambda_g (1-U_i); lambda_ECN1 of Eq. 22) — an
    /// ablation; saturates far earlier than the paper's figures.
    kNetworkTotal,
  };
  SourceQueueRate source_queue_rate = SourceQueueRate::kPerNode;

  /// Include the final (always-able-to-receive) stage's waiting term
  /// W_{K-1} in the backward sums of Eqs. (14)/(29), as printed. Disabling
  /// treats the ejection stage as contention-free.
  bool include_last_stage_wait = true;

  friend bool operator==(const ModelOptions&, const ModelOptions&) = default;
};

}  // namespace coc
