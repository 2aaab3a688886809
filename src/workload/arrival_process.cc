#include "workload/arrival_process.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/json.h"
#include "common/parse_num.h"
#include "common/status.h"

namespace coc {
namespace {

/// WormholeEngine::kMaxFlits == MessageLength::kMaxFlits; restated here so
/// this file does not pull in the workload header it is included by
/// (workload.cc static_asserts the three agree).
constexpr int kTraceMaxFlits = 1 << 20;

/// "trace file PATH line N: " — every content diagnostic leads with this.
std::string TraceAt(const std::string& path, int line) {
  return "trace file " + path + " line " + std::to_string(line) + ": ";
}

}  // namespace

ArrivalProcess ArrivalProcess::Mmpp(double burstiness,
                                    double mean_burst_length) {
  if (!(burstiness >= 1.0) || !std::isfinite(burstiness)) {
    throw std::invalid_argument(
        "mmpp burstiness ratio must be finite and >= 1 (peak rate / mean "
        "rate); got " + std::to_string(burstiness));
  }
  if (!(mean_burst_length > 0.0) || !std::isfinite(mean_burst_length)) {
    throw std::invalid_argument(
        "mmpp mean burst length must be finite and > 0 (messages per ON "
        "period); got " + std::to_string(mean_burst_length));
  }
  ArrivalProcess p;
  p.kind_ = Kind::kMmpp;
  p.burstiness_ = burstiness;
  p.mean_burst_length_ = mean_burst_length;
  if (!std::isfinite(p.ArrivalScv())) {
    throw std::invalid_argument("mmpp:" + JsonNumber(burstiness) + "," +
                                JsonNumber(mean_burst_length) +
                                " has no finite interarrival SCV (the ratio "
                                "or burst length is too large)");
  }
  return p;
}

ArrivalProcess ArrivalProcess::TraceReplay(const std::string& path) {
  errno = 0;
  std::ifstream in(path);
  if (!in) {
    throw UsageError("cannot open trace file: " + path + ": " +
                     std::strerror(errno != 0 ? errno : ENOENT));
  }
  auto data = std::make_shared<TraceData>();
  data->path = path;
  std::string line;
  int lineno = 0;
  std::vector<std::string> tok;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    tok.clear();
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && std::isspace(static_cast<unsigned char>(
                                    line[i]))) {
        ++i;
      }
      const std::size_t start = i;
      while (i < line.size() && !std::isspace(static_cast<unsigned char>(
                                    line[i]))) {
        ++i;
      }
      if (i > start) tok.push_back(line.substr(start, i - start));
    }
    if (tok.empty()) continue;  // blank or comment-only line
    if (tok.size() != 4) {
      throw ScenarioError(TraceAt(path, lineno) +
                          "expected 'timestamp src dst flits', got " +
                          std::to_string(tok.size()) + " fields");
    }
    TraceRecord rec;
    rec.line = lineno;
    const auto t = ParseFullDouble(tok[0]);
    if (!t || !std::isfinite(*t) || *t < 0) {
      throw ScenarioError(TraceAt(path, lineno) + "'" + tok[0] +
                          "' is not a valid timestamp (finite, >= 0)");
    }
    rec.time = *t;
    if (!data->records.empty() && rec.time < data->records.back().time) {
      throw ScenarioError(
          TraceAt(path, lineno) + "timestamp " + tok[0] +
          " goes backwards (previous record at line " +
          std::to_string(data->records.back().line) +
          "); trace records must be time-sorted");
    }
    const auto src = ParseFullInteger<std::int64_t>(tok[1]);
    const auto dst = ParseFullInteger<std::int64_t>(tok[2]);
    if (!src || *src < 0) {
      throw ScenarioError(TraceAt(path, lineno) + "'" + tok[1] +
                          "' is not a valid source node id (integer >= 0)");
    }
    if (!dst || *dst < 0) {
      throw ScenarioError(TraceAt(path, lineno) + "'" + tok[2] +
                          "' is not a valid destination node id "
                          "(integer >= 0)");
    }
    if (*src == *dst) {
      throw ScenarioError(TraceAt(path, lineno) + "source and destination "
                          "are both node " + tok[1] +
                          " (messages must cross the network)");
    }
    rec.src = *src;
    rec.dst = *dst;
    const auto flits = ParseFullInteger<int>(tok[3]);
    if (!flits || *flits < 1 || *flits > kTraceMaxFlits) {
      throw ScenarioError(TraceAt(path, lineno) + "'" + tok[3] +
                          "' is not a valid flit count (integer in [1, " +
                          std::to_string(kTraceMaxFlits) + "])");
    }
    rec.flits = *flits;
    data->records.push_back(rec);
  }
  if (data->records.empty()) {
    throw ScenarioError("trace file " + path + ": no records (need at "
                        "least one 'timestamp src dst flits' line)");
  }

  // Empirical gap moments -> SCV; the cyclic wrap period appends one mean
  // gap after the last record so replay repeats at the trace's own rate.
  const std::size_t n = data->records.size();
  if (n >= 2) {
    const double span =
        data->records.back().time - data->records.front().time;
    const double mean_gap = span / static_cast<double>(n - 1);
    data->wrap_period = data->records.back().time + mean_gap;
    if (mean_gap > 0) {
      double sq = 0;
      for (std::size_t k = 1; k < n; ++k) {
        const double gap = data->records[k].time - data->records[k - 1].time;
        const double d = gap - mean_gap;
        sq += d * d;
      }
      const double var = sq / static_cast<double>(n - 1);
      data->arrival_scv = var / (mean_gap * mean_gap);
    }
  } else {
    data->wrap_period = data->records.back().time + 1.0;
  }
  if (!std::isfinite(data->arrival_scv) || !std::isfinite(data->wrap_period)) {
    throw ScenarioError("trace file " + path +
                        ": the gaps between timestamps overflow the "
                        "interarrival SCV or the wrap period");
  }

  ArrivalProcess p;
  p.kind_ = Kind::kTrace;
  p.trace_path_ = path;
  p.trace_ = std::move(data);
  return p;
}

double ArrivalProcess::ArrivalScv() const {
  switch (kind_) {
    case Kind::kPoisson:
      return 1.0;
    case Kind::kMmpp: {
      // Bit-identity discipline: ratio 1 IS Poisson, so return the literal
      // the model's SCV == 1 branch tests against.
      if (burstiness_ == 1.0) return 1.0;
      // Interrupted-Poisson interarrival moments at unit mean rate (the
      // SCV is rate-scale invariant). ON rate lambda = r; ON -> OFF rate
      // alpha = lambda / L; OFF -> ON rate beta = alpha / (r - 1), which
      // fixes the ON-state probability at 1/r. First-step analysis over
      // the competing exponentials in ON (arrival vs switch-off):
      //   f  = 1/lambda + alpha/(beta lambda)
      //   F2 (1-q) = 2/s^2 + 2 q g / s + q (2/beta^2 + 2 f / beta),
      // with s = lambda + alpha, q = alpha/s, g = 1/beta + f.
      const double r = burstiness_;
      const double lambda_on = r;
      const double alpha = lambda_on / mean_burst_length_;
      const double beta = alpha / (r - 1.0);
      const double s = lambda_on + alpha;
      const double q = alpha / s;
      const double f = 1.0 / lambda_on + alpha / (beta * lambda_on);
      const double g = 1.0 / beta + f;
      const double num = 2.0 / (s * s) + 2.0 * q * g / s +
                         q * (2.0 / (beta * beta) + 2.0 * f / beta);
      const double f2 = num * s / lambda_on;  // divide by (1 - q)
      return f2 / (f * f) - 1.0;
    }
    case Kind::kTrace:
      return trace_ ? trace_->arrival_scv : 1.0;
  }
  return 1.0;
}

std::string ArrivalProcess::ToString() const {
  switch (kind_) {
    case Kind::kPoisson:
      return "poisson";
    case Kind::kMmpp:
      return "mmpp:" + JsonNumber(burstiness_) + "," +
             JsonNumber(mean_burst_length_);
    case Kind::kTrace:
      return "trace:" + trace_path_;
  }
  return "poisson";
}

ArrivalProcess ArrivalProcess::Parse(const std::string& text) {
  if (text == "poisson") return Poisson();
  const std::string mmpp = "mmpp:";
  const std::string trace = "trace:";
  if (text.rfind(trace, 0) == 0) {
    return TraceReplay(text.substr(trace.size()));
  }
  if (text.rfind(mmpp, 0) != 0) {
    throw std::invalid_argument(
        "arrival spec '" + text +
        "': use poisson, mmpp:RATIO,BURSTLEN or trace:PATH");
  }
  const std::string params = text.substr(mmpp.size());
  const auto comma = params.find(',');
  if (comma == std::string::npos) {
    throw std::invalid_argument("arrival spec '" + text +
                                "': mmpp needs RATIO,BURSTLEN");
  }
  const auto ratio = ParseFullDouble(params.substr(0, comma));
  const auto burst = ParseFullDouble(params.substr(comma + 1));
  if (!ratio) {
    throw std::invalid_argument("arrival spec '" + text + "': '" +
                                params.substr(0, comma) +
                                "' is not a valid burstiness ratio");
  }
  if (!burst) {
    throw std::invalid_argument("arrival spec '" + text + "': '" +
                                params.substr(comma + 1) +
                                "' is not a valid mean burst length");
  }
  return Mmpp(*ratio, *burst);
}

}  // namespace coc
