// Compiled form of the analytical latency model: the structure / evaluation
// split the paper's "fixed algebraic evaluation per operating point" invites.
//
// LatencyModel re-derives every rate-invariant quantity — topology censuses,
// destination distributions, per-pair Eq. 20-39 constants, message-length
// moments — at every rate point, and evaluates the (r, v, d_l) journey
// recursion once per combination per ordered cluster pair. CompiledModel
// does all of that once, at construction:
//
//   * Per-cluster and per-pair constants are flattened into plain arrays,
//     so Evaluate(lambda_g) is a thin loop of multiply-adds plus the M/G/1
//     closed forms.
//   * Clusters and ordered pairs are deduplicated by their full constant
//     tuples (bit patterns, not tolerances): heterogeneous systems built
//     from a few cluster classes — e.g. the Table 1 organizations, whose
//     992 ordered pairs collapse to <= 9 classes — evaluate each distinct
//     class once per rate and fan the results back out.
//   * The (r, v, d_l) stage recursions of one pair class share suffixes:
//     one backward chain per (v, d_l) yields T_0 for every r in a single
//     pass, instead of re-running the recursion per combination.
//
//   * Clusters form runs: maximal blocks of adjacent clusters with one
//     pair-side shape. The model stores a side id per cluster and a K x K
//     pair-class table over the K shapes (O(C + K^2) state, never C x C),
//     and aggregates Eqs. 35/38 once per run.
//
// Every shortcut preserves IEEE operation order, so all outputs are
// bit-identical to LatencyModel's (tests/compiled_model_test.cc pins this
// across topology families and workload patterns). LatencyModel, the
// directly-equation-shaped statement of the paper, lives on as the tests'
// oracle (tests/oracle/latency_model.h); this is the one production model.
//
// Why a run's aggregate is exact for each of its clusters: cluster i sums
// its pair results over j = 0..C-1, skipping j = i. For adjacent clusters i
// and i+1 of one run (shape s), the two j-sequences differ only at position
// i, where one holds pair(s, s) toward i+1 and the other pair(s, s) toward
// i: the same class, so the same value, and the sums are bit-identical.
// Under hot-spot traffic each term is weighted by the destination's mass
// over the source's normalizer (every mass but its own); adjacent equal
// masses give equal normalizers by the same argument, and the hot cluster,
// whose mass differs, is a run of its own. The hot-spot ECN1 load sums
// are shared the same way by runs of equal outgoing rates and masses.
//
// The same split extends along the workload axis: Rebind(next) compiles a
// model for an adjacent workload by diffing the rate-invariant constant
// tuples against this model's structure and re-deriving only the classes
// whose inputs changed — a locality move touches destination probabilities
// and per-class utilizations but not topology censuses or the (r, v, d_l)
// combo tables; a rate_scale bump touches one cluster's classes and its
// incident pairs. Rebound models are bit-identical to cold compiles (the
// reuse rules only ever substitute values of identical subexpressions).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "model/model_options.h"
#include "model/results.h"
#include "model/saturation_search.h"
#include "system/system_config.h"
#include "topology/link_distribution.h"
#include "workload/workload.h"

namespace coc {

/// Immutable compiled model for one (system, workload, options) triple.
/// Construction costs roughly one LatencyModel::Evaluate; each evaluation
/// afterwards touches only the flattened class arrays. All methods are
/// const and thread-safe.
///
/// The optional `deadline` is probed once per class and per run of the
/// hot-spot sums while compiling and once per run while evaluating; a trip
/// throws DeadlineExceeded naming "model compilation" or "model
/// evaluation". Interleaved kinds make every run one cluster and an
/// evaluation C^2, so these probes are what bound such a request.
class CompiledModel {
 public:
  explicit CompiledModel(const SystemConfig& sys, ModelOptions opts = {},
                         const Deadline* deadline = nullptr);
  /// Same, under a non-default workload (validated against `sys`).
  CompiledModel(const SystemConfig& sys, const Workload& workload,
                ModelOptions opts = {}, const Deadline* deadline = nullptr);

  const SystemConfig& system() const { return sys_; }
  const Workload& workload() const { return workload_; }
  const ModelOptions& options() const { return opts_; }

  /// Bit-identical to LatencyModel::Evaluate on the same triple.
  ModelResult Evaluate(double lambda_g,
                       const Deadline* deadline = nullptr) const;

  /// Batch entry point: evaluates a whole sweep grid in one pass, reusing
  /// the per-rate scratch across points. out[k] is bit-identical to
  /// Evaluate(rates[k]). `deadline` (optional) is probed before each point,
  /// with the completed-point count as partial progress, and inside each.
  void EvaluateMany(std::span<const double> rates,
                    std::vector<ModelResult>& out,
                    const Deadline* deadline = nullptr) const;

  /// Bit-identical to LatencyModel::Bottleneck.
  BottleneckReport Bottleneck(double lambda_g,
                              const Deadline* deadline = nullptr) const;
  /// The same report from `r` = Evaluate(lambda_g), evaluated once already.
  BottleneckReport Bottleneck(const ModelResult& r, double lambda_g) const;

  /// Bit-identical to LatencyModel::SaturationRate. `deadline` (optional)
  /// is probed once per model evaluation, with the probe count as partial
  /// progress, and inside each evaluation once per run. `probes` (optional)
  /// receives the number of model evaluations the search spent.
  double SaturationRate(double upper_bound, double rel_tol = 1e-3,
                        const Deadline* deadline = nullptr,
                        int* probes = nullptr) const;

  /// The smallest lambda_g at which a queue linear in lambda_g that reaches
  /// the verdict has rho >= 1: a C/D queue some cluster with U > 0 counts,
  /// or a hot-node ejection link. Evaluate(r).saturated holds for every
  /// r >= it (SaturationSearch's saturated-side certificate); +infinity
  /// when no such queue carries load. Each such queue is searched on its
  /// own, over a bracket of bit patterns around 1 / rho(1) that widens
  /// geometrically: a few steps of O(1) per C/D class and O(C) for the
  /// hot-node link, where one bisection of the whole range took 64 steps of
  /// O(K^2 + C).
  double SaturatedFrom() const;

  /// Incrementally compiles a model for an adjacent workload on the same
  /// system and options. Bit-identical to
  /// CompiledModel(system(), next, options()): every reused class was
  /// matched by its full constant tuple, the shared (r, v, d_l) combo
  /// tables are workload-invariant, the ICN2 census is the system's, and the
  /// hot-spot masses are recomputed in the reference order.
  CompiledModel Rebind(const Workload& next,
                       const Deadline* deadline = nullptr) const;

  /// How much structure the compile reused. A cold compile reports zero
  /// class reuse (combos_shared may still count intra-compile combo-table
  /// dedup). Diagnostics for tests and the perf trajectory — never consulted
  /// during evaluation.
  struct RebindStats {
    int intra_reused = 0;   ///< intra classes copied from the source model
    int intra_rebuilt = 0;  ///< intra classes derived fresh
    int pair_reused = 0;    ///< pair classes copied from the source model
    int pair_rebuilt = 0;   ///< pair classes derived fresh
    int combos_shared = 0;  ///< combo-table cache hits (carried over from the
                            ///< rebind source or deduped within one compile)
  };
  const RebindStats& rebind_stats() const { return rebind_stats_; }

 private:
  /// One deduplicated intra-cluster class: everything Eqs. 4-19 need that
  /// does not depend on lambda_g.
  struct IntraClass {
    double s = 1;            ///< rate scale s_i
    double big_n = 0;        ///< N_i
    double one_minus_u = 0;  ///< 1 - U^(i)
    double mean_links = 0;   ///< ICN1 journey mean (Eq. 9)
    double eta_div = 0;      ///< ChannelsPerNode() * N_i (Eq. 10 divisor)
    double x_cs = 0;         ///< M t_cs
    double x_cn = 0;         ///< M t_cn
    double e_in = 0;         ///< Eq. 19 (rate-invariant)
    int chain_steps = 0;     ///< max_links - 2: interior stages of longest d
    std::vector<double> p;   ///< P(d), d = 2 .. max_links
  };

  /// The (r, v, d_l) combination table of one pair class, shared across
  /// rebound models: the journey distributions and Eq. 34's tail drain
  /// depend only on the two ECN1 topologies, their per-flit times, and the
  /// ICN2 census — never on the workload — so every rebind (including
  /// message-length moves, which scale the combos' consumers but not the
  /// combos themselves) reuses these arrays by shared_ptr.
  struct PairCombos {
    /// Non-zero (r, v, d_l) combinations in the original loop order:
    /// flattened T_0-table index and probability product.
    std::vector<int> idx;
    std::vector<double> p;
    double e_ex = 0;  ///< Eq. 34 (per-flit times only, so fully shared)
  };

  /// One deduplicated ordered-pair class: the Eq. 20-39 constants.
  struct PairClass {
    double sum_loads = 0;     ///< load_i + load_j (Eq. 22)
    double ni = 0, nj = 0;    ///< N_i, N_j
    double u_sum = 0;         ///< U_i s_i + U_j s_j (harmonic lambda_I2)
    double n_sum = 0;         ///< N_i + N_j
    double acc_mean_i = 0, acc_mean_j = 0;  ///< ECN1 access means
    double eta_src_div = 0, eta_dst_div = 0;  ///< Eq. 24 divisors
    double icn2_mean = 0;     ///< ICN2 journey mean
    double icn2_cpn = 0;      ///< ICN2 ChannelsPerNode()
    double delta = 0;         ///< Eq. 27/28 relaxing factor
    double x_ei = 0, x_i2 = 0, x_ej = 0;  ///< M t_cs per segment
    double x_cn_ej = 0;       ///< final-stage service M t_cn of ECN1(j)
    double mfl_tcn_ei = 0;    ///< M t_cn of ECN1(i) (Eq. 17 sigma baseline)
    double e_ex = 0;          ///< Eq. 34 (rate-invariant)
    double s_i = 1, u_i = 0;  ///< source-queue rate factors (Eq. 31)
    double x_cd = 0, var_cd = 0;  ///< C/D service moments (Eqs. 36-37)
    int r_max = 0, v_max = 0, d_max = 0;  ///< journey-distribution supports
    /// Shared combo table (never null; empty arrays when no combination has
    /// non-zero probability).
    std::shared_ptr<const PairCombos> combos;
  };

  /// Hot-spot overlay constants (all zero / unused when not skewed).
  struct HotConstants {
    int hot_cluster = -1;
    double f = 0;
    double s_hot = 1;           ///< rate scale of the hot cluster
    double nh_minus_1 = 0;      ///< N_h - 1
    double x_intra = 0, x_inter = 0;
    double var_intra = 0, var_inter = 0;
  };

  struct HotEject {
    double w_intra = 0;
    double w_inter = 0;
    double rho = 0;
  };

  /// A class key: the bit patterns of a class's inputs, topology instance
  /// pointers included. Equal keys => bit-identical classes.
  template <std::size_t N>
  using Key = std::array<std::uint64_t, N>;

  /// Distinct keys in first-seen order (id -> key) and an open-addressing
  /// index over them: a lookup hashes, it never scans the keys.
  template <std::size_t N>
  struct KeyIndex {
    std::vector<Key<N>> keys;
    std::vector<int> slots;  ///< power-of-two table of ids, -1 when empty
    int Find(const Key<N>& k) const {  ///< k's id, or -1
      return slots.empty() ? -1 : slots[SlotOf(k)];
    }
    /// k's id and whether it was added; tries id `hint` (a run's) first.
    std::pair<int, bool> Insert(const Key<N>& k, int hint = -1);
    std::size_t SlotOf(const Key<N>& k) const;  ///< k's slot, or the empty one
  };

  /// Combo tables by ECN1 topology instances and per-flit times: immutable
  /// once compiled, shared by a model and its rebinds.
  struct ComboTable {
    KeyIndex<7> index;
    std::vector<std::shared_ptr<const PairCombos>> combos;  ///< by index id
  };

  /// Reusable per-rate scratch (the batch path allocates it once).
  struct Scratch {
    std::vector<double> t0;  ///< suffix-shared T_0 table of one pair class
    std::vector<IntraResult> intra_vals;
    std::vector<InterPairResult> pair_vals;
  };

  /// Rebind's private constructor: same system and options, next workload,
  /// compiled against prev's structure.
  CompiledModel(const CompiledModel& prev, const Workload& next,
                const Deadline* deadline);

  /// The one compile path. `prev` == nullptr is a cold compile; otherwise
  /// classes whose full constant tuple matches one of prev's are copied
  /// (when the message-length moments also match bit for bit), and the
  /// workload-invariant combo cache is adopted outright.
  void CompileFrom(const CompiledModel* prev, const Deadline* deadline);
  /// Per-cluster Workload::EcnLoadFactor, bit for bit, with each hot-spot
  /// sum once per run of equal summands; also fills hot_mass_, hot_norm_.
  std::vector<double> EcnLoads(const Deadline* deadline);
  /// The class of pair (i, j), its combos from combo_table_ or built into
  /// `grown`, the compile's own table, made at its first miss.
  PairClass BuildPairClass(int i, int j, const std::vector<double>& loads,
                           std::shared_ptr<ComboTable>& grown);
  HotEject HotEjectOverlay(double lambda_g) const;
  /// Eq. 23's ICN2 rate of a pair class: its C/D queue's arrival rate.
  double LambdaI2(const PairClass& k, double lambda_g) const;
  IntraResult EvaluateIntraClass(const IntraClass& k, double lambda_g) const;
  InterPairResult EvaluatePairClass(const PairClass& k, double lambda_g,
                                    std::vector<double>& t0) const;
  InterResult AggregateInter(int i, const Scratch& scratch) const;
  void EvaluateInto(double lambda_g, Scratch& scratch, ModelResult& result,
                    const Deadline* deadline) const;

  SystemConfig sys_;
  Workload workload_;
  ModelOptions opts_;

  // Global message-format moments and option booleans. The arrival SCV
  // enters only the per-rate G/G/1 waits (mg1.h GG1Wait), never the
  // per-class constant tuples or a tracked utilization, so a burstiness dial
  // step reuses the full structure under Rebind. ArrivalProcess keeps it
  // finite: the search's finite-side certificate reads "every tracked
  // rho < 1" as "every wait finite", which an infinite SCV would break.
  double m_flits_ = 0;
  double flit_var_ = 0;
  double arrival_scv_ = 1.0;
  bool include_final_wait_ = true;
  bool src_per_node_ = true;
  bool skewed_ = false;

  std::vector<IntraClass> intra_classes_;
  std::vector<PairClass> pair_classes_;
  std::vector<int> intra_class_of_;  ///< cluster -> intra class
  std::vector<int> sid_;             ///< cluster -> pair-side shape id
  int num_sides_ = 0;                ///< K, the distinct side shapes
  /// sid_i * K + sid_j -> pair class of the ordered pair (i, j); -1 for a
  /// shape no pair takes (s, s when only one cluster has shape s).
  std::vector<int> pair_class_of_sides_;
  std::vector<double> u_;            ///< U^(i) per cluster
  std::vector<double> weight_;       ///< Eq. 3 weight N_i s_i / sum N_c s_c
  /// Hot-spot destination weights, empty when not skewed: P(j | i) =
  /// hot_mass_[j] / hot_norm_[i] (Workload::InterDestProbability's terms).
  std::vector<double> hot_mass_;
  std::vector<double> hot_norm_;
  HotConstants hot_;
  std::size_t max_t0_size_ = 0;

  // Dedup tables, retained so Rebind can match the next workload's constant
  // tuples against this model's classes: flat keys per intra class and per
  // side shape (a pair class is pair_class_of_sides_ of its two sides).
  KeyIndex<6> intra_keys_;
  KeyIndex<8> side_keys_;
  /// Workload-invariant (r, v, d_l) combo tables, shared with every model
  /// rebound from this one (null until a compile needs one).
  std::shared_ptr<const ComboTable> combo_table_;
  RebindStats rebind_stats_;
};

}  // namespace coc
