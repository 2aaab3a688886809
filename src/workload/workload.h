// Unified workload layer — the single traffic abstraction driving both the
// analytical model and the discrete-event simulator.
//
// The paper's evaluation fixes assumption 2 (uniform destinations, fixed
// message length M, one global lambda_g) and names non-uniform traffic as
// future work. A Workload value captures everything the two consumers need
// to agree on one traffic scenario:
//
//   * a destination pattern  — uniform (assumption 2), cluster-local,
//     hot-spot receiver, or a fixed random permutation;
//   * per-cluster generation-rate scales — lambda_g^(i) = s_i lambda_g,
//     the heterogeneous-demand regime (Kirsal & Ever's Beowulf setting);
//   * a message-length distribution with mean / second-moment accessors —
//     the M/G/1 machinery of Eqs. 15-18/31/37 only ever needs two moments,
//     so anything beyond deterministic M plugs in without new queueing math;
//   * an arrival process (arrival_process.h) — Poisson (assumption 1, the
//     default), bursty MMPP/on-off, or trace replay. The model consumes its
//     interarrival SCV through the two-moment G/G/1 correction; the sim
//     draws gaps (and, for traces, sources/destinations/lengths) from it.
//
// The model consumes the probabilistic accessors (EffectiveU, MeanFlits/
// FlitVariance) and reproduces EcnLoadFactor and InterDestProbability bit
// for bit, summing once per run of equal clusters instead of once per
// cluster or pair (the tests' oracle calls these two directly); the
// simulator's traffic generator draws from exactly the same object (thinned
// per-cluster Poisson superposition, sampled flit counts). The default-constructed Workload is
// the paper's assumption 2 and reproduces the seed model and simulator
// outputs bit for bit (tests/workload_test.cc pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "workload/arrival_process.h"

namespace coc {

class SystemConfig;
struct MessageFormat;

/// Synthetic destination patterns. kUniform is the paper's assumption 2; the
/// others implement the paper's stated future work (non-uniform traffic).
enum class WorkloadPattern : std::uint8_t {
  kUniform,       ///< destination uniform over the other N-1 nodes
  kHotspot,       ///< with probability hotspot_fraction -> fixed hot node,
                  ///< otherwise uniform
  kClusterLocal,  ///< with probability locality_fraction -> own cluster,
                  ///< otherwise uniform over remote nodes
  kPermutation,   ///< fixed random derangement of the nodes
};

/// Canonical text name ("uniform", "hotspot", "local", "permutation").
const char* WorkloadPatternName(WorkloadPattern pattern);
/// Inverse of WorkloadPatternName; also accepts "cluster-local". Throws
/// std::invalid_argument with the valid names on unknown input.
WorkloadPattern ParseWorkloadPattern(const std::string& name);

/// Two-moment message-length distribution (flits). The default is the
/// paper's assumption 7: every message is exactly the system MessageFormat's
/// M flits (sampling then consumes no randomness, keeping the seed streams —
/// and the sim goldens — bit-identical).
class MessageLength {
 public:
  /// Upper bound on per-message flits, matching WormholeEngine::kMaxFlits
  /// (the simulator aborts past it, so the workload must reject such
  /// lengths up front instead of mid-run).
  static constexpr int kMaxFlits = 1 << 20;

  MessageLength() = default;  ///< fixed at the system's message length

  static MessageLength Fixed() { return MessageLength(); }
  /// Two-point mixture: `long_flits` with probability `long_fraction`,
  /// `short_flits` otherwise. Throws on non-positive lengths or a fraction
  /// outside [0, 1].
  static MessageLength Bimodal(int short_flits, int long_flits,
                               double long_fraction);

  bool is_fixed() const { return kind_ == Kind::kFixed; }

  /// E[M]; `base_flits` is the system MessageFormat length the fixed
  /// distribution inherits.
  double MeanFlits(int base_flits) const;
  /// E[M^2].
  double SecondMomentFlits(int base_flits) const;
  /// Var[M] = E[M^2] - E[M]^2 (exactly 0.0 for the fixed distribution).
  double VarianceFlits(int base_flits) const;

  /// Draws one message length. The fixed distribution returns base_flits
  /// without consuming any randomness.
  std::int32_t SampleFlits(int base_flits, Rng& rng) const;

  /// Canonical text form: "fixed" or "bimodal:S,L,P", with P in shortest
  /// round-trip form (Parse(ToString()) == *this).
  std::string ToString() const;
  /// Parses the ToString() syntax. Throws std::invalid_argument on
  /// malformed input.
  static MessageLength Parse(const std::string& text);

  friend bool operator==(const MessageLength&, const MessageLength&) = default;

 private:
  enum class Kind : std::uint8_t { kFixed, kBimodal };
  Kind kind_ = Kind::kFixed;
  int short_flits_ = 0;
  int long_flits_ = 0;
  double long_fraction_ = 0;
};

/// One traffic scenario. Plain aggregate data (WorkloadOverlay fills it from
/// keys and flags) plus the derived accessors both consumers share.
struct Workload {
  WorkloadPattern pattern = WorkloadPattern::kUniform;
  double locality_fraction = 0.8;  ///< kClusterLocal: share kept in-cluster
  double hotspot_fraction = 0.1;   ///< kHotspot: share of traffic to hot node
  std::int64_t hotspot_node = 0;   ///< kHotspot: global id of the hot node
  /// Per-cluster generation-rate multipliers s_i (lambda_g^(i) = s_i
  /// lambda_g). Empty means homogeneous (all 1) — the paper's single global
  /// rate.
  std::vector<double> rate_scale;
  MessageLength message_length;
  /// Temporal arrival process (default: Poisson, the paper's assumption 1).
  ArrivalProcess arrival;

  // --- factories ---------------------------------------------------------
  static Workload Uniform() { return Workload(); }
  static Workload ClusterLocal(double locality);
  static Workload Hotspot(double fraction, std::int64_t hot_node = 0);
  static Workload Permutation();

  /// Builder-style helpers (compose with the factories).
  Workload& WithRateScale(std::vector<double> per_cluster);
  Workload& WithMessageLength(MessageLength length);
  Workload& WithArrival(ArrivalProcess process);

  friend bool operator==(const Workload&, const Workload&) = default;

  // --- shared accessors --------------------------------------------------
  /// Whether every cluster generates at the same rate.
  bool uniform_rates() const;
  /// s_i (1.0 when rate_scale is empty).
  double RateScale(int cluster) const {
    return rate_scale.empty() ? 1.0
                              : rate_scale[static_cast<std::size_t>(cluster)];
  }
  /// Per-node generation rate of cluster i at global dial lambda_g.
  double NodeRate(double lambda_g, int cluster) const {
    return lambda_g * RateScale(cluster);
  }

  /// Checks the workload against a concrete system (rate_scale length,
  /// hotspot node range, fractions in range). Throws std::invalid_argument.
  void Validate(const SystemConfig& sys) const;

  /// One-line human-readable description for tables and logs.
  std::string Describe() const;

  /// Non-null when the analytical model approximates this workload rather
  /// than representing it exactly: the permutation pattern is modeled by its
  /// uniform destination marginal (a uniform random derangement's marginal
  /// IS uniform, so Eq. 2 applies), which averages out the fixed pairing's
  /// per-link contention; a non-Poisson arrival process is modeled by the
  /// Allen-Cunneen two-moment G/G/1 correction, which keeps only the
  /// interarrival SCV. The CLI prints the returned line next to model and
  /// bottleneck output so the approximation is never silent.
  const char* ModelApproximationNote() const;

  // --- model-facing accessors --------------------------------------------
  /// U^(i): probability a message generated in cluster i leaves the cluster.
  /// Uniform (and permutation, whose marginal is uniform) reproduces the
  /// paper's Eq. (2) bit for bit; cluster-local and hotspot resolve their
  /// pattern parameters.
  double EffectiveU(const SystemConfig& sys, int i) const;

  /// Whether inter-cluster destinations are skewed across clusters (only the
  /// hot-spot pattern; the others keep the paper's Eq. (35) arithmetic
  /// averaging over destination clusters, preserving the seed outputs).
  bool DestinationSkewed() const {
    return pattern == WorkloadPattern::kHotspot && hotspot_fraction > 0;
  }

  /// P(destination cluster = j | inter-cluster message from cluster i), for
  /// j != i. Uniform-family patterns: N_j / (N - N_i); hotspot gives each
  /// destination mass (1 - f) N_j / (N - 1), plus f for the hot cluster,
  /// normalized over the destinations other than i (O(C) per call).
  double InterDestProbability(const SystemConfig& sys, int i, int j) const;

  /// Per-unit-lambda_g message rate the pair equations attribute to cluster
  /// c's ECN1: N_c U_c s_c (the Eq. 22 term) for unskewed patterns, and the
  /// symmetrized actual load (outgoing + incoming)/2 under hotspot — the
  /// per-link rate overlay on the routes into the hot cluster (O(C^2) per
  /// call).
  double EcnLoadFactor(const SystemConfig& sys, int c) const;

  /// Message-length moments against the system's MessageFormat.
  double MeanFlits(const MessageFormat& msg) const;
  double FlitVariance(const MessageFormat& msg) const;
};

/// Field-wise workload overrides, and the one reader and writer of the
/// `workload.*` keys: config files (the [system] section, applied to the
/// uniform default), scenario files (applied to the system's workload) and
/// the CLI's workload flags (`--rate-scale I=S` is `workload.rate.I = S`).
/// The overlay's seven key rows in workload.cc declare them; in their
/// (canonical) order:
///
///   workload.pattern = hotspot          # uniform|local|hotspot|permutation
///   workload.locality = 0.8             # local: in-cluster share
///   workload.hotspot_fraction = 0.2     # hotspot: share to the hot node
///   workload.hotspot_node = 0           # hotspot: global node id
///   workload.msg_len = bimodal:8,64,0.1 # or "fixed" (MessageFormat's M)
///   workload.arrival = mmpp:4,8         # poisson|mmpp:RATIO,BURSTLEN|
///                                       #   trace:PATH
///   workload.rate.3 = 2.5               # cluster 3 generates at 2.5x
///
/// The semantics are the same at every entry point:
///   * `locality` implies `pattern = local`; `hotspot_fraction` and
///     `hotspot_node` imply `pattern = hotspot`;
///   * contradictory keys (an explicit pattern the other key does not
///     imply, or `locality` with a hotspot key, or `hotspot_node` over a
///     base workload that is local or permutation) are errors, never
///     silent overrides;
///   * a cluster index may be given only once, in any spelling (`rate.3`
///     and `rate.03` are one cluster); unnamed clusters keep scale 1;
///   * `hotspot_node` and the rate indices are range-checked against the
///     system the overlay is applied to.
struct WorkloadOverlay {
  std::optional<WorkloadPattern> pattern;
  std::optional<double> locality;
  std::optional<double> hotspot_fraction;
  std::optional<std::int64_t> hotspot_node;
  std::optional<MessageLength> msg_len;
  std::optional<ArrivalProcess> arrival;
  /// Sparse per-cluster rate multipliers (cluster index, scale), which Set
  /// keeps sorted by index. Non-empty replaces the base workload's table.
  std::vector<std::pair<int, double>> rate_scale;

  /// Parses one `workload.*` key into its field. Throws
  /// std::invalid_argument on an unknown key (with a did-you-mean
  /// suggestion), a malformed value, or a cluster index already set.
  void Set(const std::string& key, const std::string& value);

  /// Appends the `key = value` lines of the fields that are set, in the
  /// rows' order (Scenario::Serialize's workload part).
  void PrintKeys(std::string& out) const;

  /// Appends the key names, for other formats' did-you-mean suggestions.
  static void KeyNames(std::vector<std::string_view>& out);

  /// Applies the overlay to `base` and validates the result against `sys`.
  /// Throws std::invalid_argument with the CLI flag spellings on conflicts
  /// (the messages are pinned by cli_test).
  Workload ApplyTo(Workload base, const SystemConfig& sys) const;

  friend bool operator==(const WorkloadOverlay&,
                         const WorkloadOverlay&) = default;
};

}  // namespace coc
