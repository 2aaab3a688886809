// Pluggable arrival processes — the temporal half of the Workload layer.
//
// The paper's assumption 1 fixes Poisson arrivals at every source; this
// class turns that implicit constant into a first-class Workload dimension,
// the same move the destination patterns (WorkloadPattern) and message
// lengths (MessageLength) made for their axes. Three sources:
//
//   * kPoisson — the paper's assumption 1, and the default. Sampling and
//     modeling are bit-identical to the pre-seam code paths.
//   * kMmpp — a two-state on-off (interrupted Poisson) source parameterized
//     by the burstiness ratio r = peak rate / mean rate (r >= 1) and the
//     mean burst length L (mean messages per ON period). r = 1 degenerates
//     exactly to Poisson (same draws, same closed forms). The interarrival
//     distribution is hyperexponential; ArrivalScv() gives its squared
//     coefficient of variation in closed form.
//   * kTrace — replays a recorded message trace of (timestamp, src, dst,
//     flits) lines, cyclically extended past its end. The simulator takes
//     times, sources, destinations and lengths straight from the records
//     (bypassing pattern and length sampling); the analytical model sees the
//     trace through its empirical interarrival SCV.
//
// The analytical model consumes one number — ArrivalScv() — through the
// Allen-Cunneen two-moment G/G/1 correction (model/mg1.h GG1Wait); SCV = 1
// reproduces the M/G/1 forms bit for bit. The simulator's traffic generator
// branches on kind(): EffectivelyPoisson() keeps the seed draw sequence
// unchanged, so every existing golden holds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace coc {

/// One trace line, retained with its 1-based line number so later
/// validation (src/dst range against a concrete system) can name the line.
struct TraceRecord {
  double time = 0;         ///< arrival timestamp (microseconds, ascending)
  std::int64_t src = 0;    ///< global source node id
  std::int64_t dst = 0;    ///< global destination node id
  std::int32_t flits = 0;  ///< message length in flits
  std::int32_t line = 0;   ///< 1-based line number in the trace file
};

/// An immutable, loaded trace. Shared by value-copied Workloads (the
/// records are read once, at ArrivalProcess::TraceReplay time).
struct TraceData {
  std::string path;
  std::vector<TraceRecord> records;
  /// Empirical squared coefficient of variation of the record gaps
  /// (1.0 when fewer than two gaps exist).
  double arrival_scv = 1.0;
  /// Period of the cyclic extension: the last timestamp plus the mean gap
  /// (one more "virtual gap" closes the cycle), so replay wraps seamlessly.
  double wrap_period = 0;
};

/// The arrival process of one traffic scenario. Plain value type; the
/// trace variant shares its loaded records by shared_ptr, so copies are
/// cheap and the simulator's steady state allocates nothing per message.
class ArrivalProcess {
 public:
  enum class Kind : std::uint8_t { kPoisson, kMmpp, kTrace };

  ArrivalProcess() = default;  ///< Poisson (the paper's assumption 1)

  static ArrivalProcess Poisson() { return ArrivalProcess(); }
  /// Two-state on-off source: `burstiness` = peak/mean rate ratio (>= 1;
  /// 1 is exactly Poisson), `mean_burst_length` = mean messages per ON
  /// period (> 0). Throws std::invalid_argument on out-of-range values.
  static ArrivalProcess Mmpp(double burstiness, double mean_burst_length);
  /// Loads and validates a trace file (whitespace-separated
  /// `timestamp src dst flits` lines; '#' comments and blank lines
  /// skipped). Throws UsageError with the errno reason when the file
  /// cannot be opened, ScenarioError naming the path and line number on
  /// malformed content (bad fields, unsorted timestamps, negative ids,
  /// flits outside [1, 2^20]).
  static ArrivalProcess TraceReplay(const std::string& path);

  Kind kind() const { return kind_; }
  bool IsPoisson() const { return kind_ == Kind::kPoisson; }
  /// Whether sampling may take the exact Poisson path: Poisson, or MMPP
  /// with burstiness ratio 1 (which IS Poisson — the ON state never ends
  /// being representative). The sim branches on this to keep the seed draw
  /// sequence bit-identical.
  bool EffectivelyPoisson() const {
    return kind_ == Kind::kPoisson ||
           (kind_ == Kind::kMmpp && burstiness_ == 1.0);
  }
  bool IsTrace() const { return kind_ == Kind::kTrace; }

  double burstiness() const { return burstiness_; }
  double mean_burst_length() const { return mean_burst_length_; }
  /// The loaded trace (null unless kind() == kTrace).
  const std::shared_ptr<const TraceData>& trace() const { return trace_; }

  /// Squared coefficient of variation of the interarrival distribution —
  /// the one number the two-moment G/G/1 correction needs. Exactly 1.0 for
  /// Poisson and for MMPP with burstiness 1 (bit-identity discipline: the
  /// model's SCV == 1 branch must take the unmodified M/G/1 path); the
  /// IPP closed form otherwise; the empirical gap SCV for traces.
  double ArrivalScv() const;

  /// Canonical text form: "poisson", "mmpp:R,L", or "trace:PATH", with R
  /// and L in shortest round-trip form (Parse(ToString()) == *this).
  std::string ToString() const;
  /// Parses the ToString() syntax (loading the trace for "trace:PATH").
  /// Throws std::invalid_argument subclasses as the factories do.
  static ArrivalProcess Parse(const std::string& text);

  /// Semantic equality: traces compare by path (the canonical identity the
  /// cache keys and Serialize round-trip use), not by records pointer.
  friend bool operator==(const ArrivalProcess& a, const ArrivalProcess& b) {
    return a.kind_ == b.kind_ && a.burstiness_ == b.burstiness_ &&
           a.mean_burst_length_ == b.mean_burst_length_ &&
           a.trace_path_ == b.trace_path_;
  }

 private:
  Kind kind_ = Kind::kPoisson;
  double burstiness_ = 1.0;
  double mean_burst_length_ = 1.0;
  std::shared_ptr<const TraceData> trace_;
  std::string trace_path_;
};

}  // namespace coc
