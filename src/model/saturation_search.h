// Shared saturation-point search (bisection with certified-classification
// shortcuts) used by CompiledModel and the tests' LatencyModel oracle.
//
// The search brackets the saturation rate lambda* — the largest rate at
// which the model is still finite — by bisection, exactly as the seed
// implementation did: lo = 0, hi = upper_bound, mid = (lo + hi) / 2 until
// (hi - lo) <= rel_tol * hi. What changed is *when a probe is necessary*.
// Finite side: every queue the model counts has utilization of the form
// rho_q(lambda) = c_q * lambda * s_q(lambda) with c_q >= 0 and the mean
// service s_q nondecreasing in lambda (stage services grow with eta, C/D
// and hot-eject services are constant). Hence for lambda <= p,
// rho_q(lambda) <= (lambda / p) * rho_q(p), and a saturated probe at p with
// max tracked utilization R certifies every lambda < p / R as finite (a
// finite arrival SCV makes rho < 1 a finite wait). Saturated side: rates at
// or above the caller's `saturated_from` (CompiledModel: where a queue
// linear in lambda, the C/D or a hot-node ejection link, reaches rho = 1)
// are saturated unprobed. The first time the bracket top reaches it, one
// probe at saturated_from seeds the finite side; when that queue binds,
// R ~ 1 there and no later midpoint needs a probe. The shortcuts leave the
// lo/hi trajectory — and therefore the returned value — bit-identical to an
// exhaustive probe-every-midpoint search.
//
// The seed silently returned upper_bound when the model was still finite
// there; this search instead expands the bracket (rho-guided: the linear
// extrapolation hi / max_rho is certified saturated by the superlinearity
// of rho, with geometric doubling as a fallback) and returns +infinity only
// if the model provably never saturates (no loaded queue at any rate).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace coc {

/// One model evaluation's verdict at a candidate rate: whether the model is
/// saturated there, and the maximum utilization over every tracked queue
/// (the Bottleneck maxima: C/D, inter/intra source queues, hot ejection).
struct SaturationProbe {
  bool saturated = false;
  double max_rho = 0;
};

/// Runs the search. `probe(lambda)` must evaluate the model and return a
/// SaturationProbe; it must report saturated at every rate >=
/// `saturated_from`. Returns the saturation rate within rel_tol, or
/// +infinity when the model never saturates.
template <typename ProbeFn>
double SaturationSearch(
    ProbeFn&& probe, double upper_bound, double rel_tol,
    double saturated_from = std::numeric_limits<double>::infinity()) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double finite_below = 0.0;  // rho-bound certificate: finite below this
  double last_max_rho = 0.0;
  bool seeded = false;  // the probe at saturated_from has run

  auto saturated = [&](double x) {
    if (x < finite_below) return false;
    const bool certified = x >= saturated_from;
    if (certified && std::exchange(seeded, true)) return true;
    if (certified) x = saturated_from;  // one probe here seeds finite_below
    const SaturationProbe p = probe(x);
    last_max_rho = p.max_rho;
    // rho superlinearity: every rate below x / max_rho keeps every tracked
    // rho strictly under 1, hence finite.
    if (p.saturated && p.max_rho > 0 && std::isfinite(p.max_rho)) {
      finite_below = std::max(finite_below, x / p.max_rho);
    }
    return certified || p.saturated;
  };

  double lo = 0.0;
  double hi = upper_bound;
  if (!saturated(hi)) {
    // Still finite at the caller's guess: the true saturation point lies
    // above it. Expand until a probe saturates. The rho-guided jump
    // hi / max_rho is certified to saturate the maximally-loaded queue;
    // doubling covers queues whose utilization the blend does not count.
    int expansions = 0;
    do {
      // No queue carries load (the model never saturates), or 200 jumps
      // found no saturated rate.
      if (last_max_rho <= 0 || ++expansions > 200) return kInf;
      const double next = std::max(2.0 * hi, hi / last_max_rho);
      if (!std::isfinite(next)) return kInf;
      lo = hi;
      hi = next;
    } while (!saturated(hi));
  }
  // Seed bisection, bit for bit: tolerance relative to the current bracket
  // top, so a generous upper bound still resolves small saturation rates.
  for (int iter = 0; iter < 200 && (hi - lo) > rel_tol * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (saturated(mid) ? hi : lo) = mid;
  }
  return lo;
}

}  // namespace coc
