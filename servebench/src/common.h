// Small shared helpers of the served-evaluation benchmark: the seeded
// generator's RNG, a response digest, a monotonic clock and order
// statistics. Nothing here touches the program under test.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

/// SplitMix64: tiny, seedable, and identical on every platform, so the same
/// seed yields byte-identical request lines everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [lo, hi).
  double Range(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  /// Uniform integer in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// A stream position's private RNG: the draw for request k never depends on
/// which connection sent request k-1, so concurrent clients reproduce the
/// same stream.
inline Rng StreamRng(std::uint64_t seed, std::uint64_t salt,
                     std::uint64_t index) {
  Rng mix(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  const std::uint64_t a = mix.Next();
  return Rng(a ^ (index * 0x9e3779b97f4a7c15ULL) ^ (index << 17));
}

/// Length plus two independent 64-bit hashes of a byte string. Two equal
/// digests mean equal bytes with negligible collision odds; the benchmark
/// compares served and offline renders this way so a run need not keep
/// hundreds of megabytes of responses.
struct Digest {
  std::uint64_t size = 0;
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};

inline Digest DigestOf(std::string_view bytes) {
  constexpr std::uint64_t kM1 = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kM2 = 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t h1 = 0x243f6a8885a308d3ULL ^ bytes.size();
  std::uint64_t h2 = 0x13198a2e03707344ULL + bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h1 = (h1 ^ w) * kM1;
    h1 ^= h1 >> 29;
    h2 = (h2 + w) * kM2;
    h2 ^= h2 >> 31;
  }
  for (; i < bytes.size(); ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    h1 = (h1 ^ b) * kM1;
    h2 = (h2 + b) * kM2;
  }
  h1 ^= h1 >> 33;
  h2 ^= h2 >> 29;
  return Digest{bytes.size(), h1, h2};
}

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one. Sorts a copy.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

}  // namespace servebench
