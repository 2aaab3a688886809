#include "oracle/hop_distribution.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace coc {

HopDistribution::HopDistribution(int m, int n) {
  if (m < 4 || m % 2 != 0 || n < 1) {
    throw std::invalid_argument("HopDistribution requires even m >= 4, n >= 1");
  }
  const double k = m / 2;
  std::vector<double> counts(static_cast<std::size_t>(n));
  for (int h = 1; h <= n - 1; ++h) {
    counts[static_cast<std::size_t>(h - 1)] =
        std::pow(k, h) - std::pow(k, h - 1);
  }
  counts[static_cast<std::size_t>(n - 1)] =
      2 * std::pow(k, n) - std::pow(k, n - 1);
  const double total = std::accumulate(counts.begin(), counts.end(), 0.0);
  p_.resize(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) p_[i] = counts[i] / total;
}

HopDistribution::HopDistribution(const std::vector<double>& level_weights) {
  if (level_weights.empty()) {
    throw std::invalid_argument("empty level weights");
  }
  const double total =
      std::accumulate(level_weights.begin(), level_weights.end(), 0.0);
  if (total <= 0) throw std::invalid_argument("level weights sum to zero");
  p_.resize(level_weights.size());
  for (std::size_t i = 0; i < p_.size(); ++i) p_[i] = level_weights[i] / total;
}

double HopDistribution::P(int h) const {
  if (h < 1 || h > n()) return 0.0;
  return p_[static_cast<std::size_t>(h - 1)];
}

double HopDistribution::MeanLinksRoundTrip() const {
  double d = 0;
  for (int h = 1; h <= n(); ++h) d += 2.0 * h * P(h);
  return d;
}

double HopDistribution::MeanLinksOneWay() const {
  double d = 0;
  for (int h = 1; h <= n(); ++h) d += 1.0 * h * P(h);
  return d;
}

double HopDistribution::MeanLinksClosedForm(int m, int n) {
  // sum_{h=1}^{n-1} 2h (k^h - k^{h-1}) + 2n (2k^n - k^{n-1}), over N-1,
  // with sum_{h=1}^{x} h k^h = k (1 - (x+1) k^x + x k^{x+1}) / (1-k)^2.
  const double k = m / 2;
  const double big_n = 2 * std::pow(k, n);
  const int x = n - 1;
  const double t =
      k * (1.0 - (x + 1) * std::pow(k, x) + x * std::pow(k, x + 1)) /
      ((1.0 - k) * (1.0 - k));
  const double ascending_part = t * (k - 1.0) / k;  // sum h (k^h - k^{h-1})
  const double root_part = n * (2 * std::pow(k, n) - std::pow(k, n - 1));
  return 2.0 * (ascending_part + root_part) / (big_n - 1.0);
}

}  // namespace coc
