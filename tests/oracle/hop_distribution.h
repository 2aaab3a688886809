// Hop-count (NCA-level) probability distribution in an m-port n-tree under
// uniform traffic — the paper's Eq. (6) — and the derived mean link counts
// (Eqs. 8-9).
//
// A message whose nearest common ancestor with its destination sits at level
// h crosses 2h links (h ascending + h descending). Under uniform destinations
// the probability of NCA level h is proportional to the number of nodes whose
// NCA with the source is at level h, which in an m-port n-tree (k = m/2) is
//     k^h - k^{h-1}          for h < n, and
//     2k^n - k^{n-1}         for h = n (roots cover the whole tree).
// The topology test suite verifies these counts against an exact census.
#pragma once

#include <vector>

namespace coc {

class HopDistribution {
 public:
  /// Builds the Eq. (6) distribution for an m-port n-tree.
  HopDistribution(int m, int n);

  /// Builds an empirical distribution from an NCA census (counts of
  /// destinations per level, as produced by MPortNTree::NcaCensus). Used for
  /// partially occupied ICN2 trees where Eq. (6) is not exact.
  explicit HopDistribution(const std::vector<double>& level_weights);

  int n() const { return static_cast<int>(p_.size()); }

  /// P_{h,n}: probability of NCA level h, h in [1, n]. Zero outside range.
  double P(int h) const;

  /// Mean number of links of a full up*/down* journey, sum 2h P_h (Eq. 8).
  double MeanLinksRoundTrip() const;

  /// Mean number of links of an ascending-only journey, sum h P_h. Used for
  /// the spine-tapped ECN1 traversal (r links; README, "The Topology layer").
  double MeanLinksOneWay() const;

  /// Eq. (9)'s closed form for the round-trip mean; must equal
  /// MeanLinksRoundTrip() for Eq. (6) distributions (cross-checked in tests).
  static double MeanLinksClosedForm(int m, int n);

 private:
  std::vector<double> p_;  // p_[h-1] = P(h)
};

}  // namespace coc
