// Streaming statistics accumulator used by the simulator's metrics layer
// (mean latency, variance, confidence intervals).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace coc {

/// Numerically stable streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merges another accumulator into this one (parallel reduction friendly).
  void Merge(const RunningStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto na = static_cast<double>(n_), nb = static_cast<double>(o.n_);
    const double nt = na + nb;
    mean_ += delta * nb / nt;
    m2_ += o.m2_ + delta * delta * na * nb / nt;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  std::uint64_t Count() const { return n_; }
  double Mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double Variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double StdDev() const { return std::sqrt(Variance()); }
  double Min() const { return n_ ? min_ : 0.0; }
  double Max() const { return n_ ? max_ : 0.0; }
  /// Half-width of the normal-approximation 95% confidence interval.
  double HalfWidth95() const {
    return n_ > 1 ? 1.96 * StdDev() / std::sqrt(static_cast<double>(n_)) : 0.0;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace coc
