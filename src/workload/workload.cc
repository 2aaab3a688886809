#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/ini.h"
#include "common/json.h"
#include "common/parse_num.h"
#include "system/system_config.h"

namespace coc {

// arrival_process.cc restates this bound for its trace flit validation
// (it cannot include this header); keep the two in lock step.
static_assert(MessageLength::kMaxFlits == (1 << 20));

namespace {

// "cluster-local" is an accepted alias; names read back as the first entry.
constexpr IniName<WorkloadPattern> kPatternNames[] = {
    {WorkloadPattern::kUniform, "uniform"},
    {WorkloadPattern::kHotspot, "hotspot"},
    {WorkloadPattern::kClusterLocal, "local"},
    {WorkloadPattern::kPermutation, "permutation"},
    {WorkloadPattern::kClusterLocal, "cluster-local"}};

}  // namespace

const char* WorkloadPatternName(WorkloadPattern pattern) {
  return IniNameOf(kPatternNames, pattern).data();  // names are literals
}

WorkloadPattern ParseWorkloadPattern(const std::string& name) {
  for (const auto& [pattern, n] : kPatternNames) {
    if (n == name) return pattern;
  }
  throw std::invalid_argument("unknown workload pattern '" + name +
                              "' (use uniform, hotspot, local or permutation)");
}

// --- MessageLength ---------------------------------------------------------

MessageLength MessageLength::Bimodal(int short_flits, int long_flits,
                                     double long_fraction) {
  if (short_flits < 1 || long_flits < 1) {
    throw std::invalid_argument("message lengths must be >= 1 flit");
  }
  if (short_flits > kMaxFlits || long_flits > kMaxFlits) {
    throw std::invalid_argument(
        "message lengths must be <= " + std::to_string(kMaxFlits) +
        " flits (the wormhole engine's per-message ceiling)");
  }
  if (!(long_fraction >= 0.0 && long_fraction <= 1.0)) {
    throw std::invalid_argument("bimodal long fraction must be in [0, 1]");
  }
  MessageLength len;
  len.kind_ = Kind::kBimodal;
  len.short_flits_ = short_flits;
  len.long_flits_ = long_flits;
  len.long_fraction_ = long_fraction;
  return len;
}

double MessageLength::MeanFlits(int base_flits) const {
  if (kind_ == Kind::kFixed) return static_cast<double>(base_flits);
  return (1.0 - long_fraction_) * short_flits_ + long_fraction_ * long_flits_;
}

double MessageLength::SecondMomentFlits(int base_flits) const {
  if (kind_ == Kind::kFixed) {
    const double m = static_cast<double>(base_flits);
    return m * m;
  }
  return (1.0 - long_fraction_) * short_flits_ * short_flits_ +
         long_fraction_ * long_flits_ * long_flits_;
}

double MessageLength::VarianceFlits(int base_flits) const {
  if (kind_ == Kind::kFixed) return 0.0;
  const double mean = MeanFlits(base_flits);
  return SecondMomentFlits(base_flits) - mean * mean;
}

std::int32_t MessageLength::SampleFlits(int base_flits, Rng& rng) const {
  if (kind_ == Kind::kFixed) return base_flits;
  return rng.NextDouble() < long_fraction_ ? long_flits_ : short_flits_;
}

std::string MessageLength::ToString() const {
  if (kind_ == Kind::kFixed) return "fixed";
  return "bimodal:" + std::to_string(short_flits_) + "," +
         std::to_string(long_flits_) + "," + JsonNumber(long_fraction_);
}

MessageLength MessageLength::Parse(const std::string& text) {
  if (text == "fixed") return Fixed();
  const std::string prefix = "bimodal:";
  if (text.rfind(prefix, 0) != 0) {
    throw std::invalid_argument("message length spec '" + text +
                                "': use fixed or bimodal:SHORT,LONG,FRACTION");
  }
  const std::string params = text.substr(prefix.size());
  const auto c1 = params.find(',');
  const auto c2 = c1 == std::string::npos ? c1 : params.find(',', c1 + 1);
  if (c1 == std::string::npos || c2 == std::string::npos) {
    throw std::invalid_argument("message length spec '" + text +
                                "': bimodal needs SHORT,LONG,FRACTION");
  }
  const auto to_int = [&text](const std::string& tok) {
    const auto v = ParseFullInteger<int>(tok);
    if (!v) {
      throw std::invalid_argument("message length spec '" + text + "': '" +
                                  tok + "' is not a valid flit count");
    }
    return *v;
  };
  const auto frac_tok = params.substr(c2 + 1);
  const auto frac = ParseFullDouble(frac_tok);
  if (!frac) {
    throw std::invalid_argument("message length spec '" + text + "': '" +
                                frac_tok + "' is not a valid fraction");
  }
  return Bimodal(to_int(params.substr(0, c1)),
                 to_int(params.substr(c1 + 1, c2 - c1 - 1)), *frac);
}

// --- Workload --------------------------------------------------------------

Workload Workload::ClusterLocal(double locality) {
  Workload wl;
  wl.pattern = WorkloadPattern::kClusterLocal;
  wl.locality_fraction = locality;
  return wl;
}

Workload Workload::Hotspot(double fraction, std::int64_t hot_node) {
  Workload wl;
  wl.pattern = WorkloadPattern::kHotspot;
  wl.hotspot_fraction = fraction;
  wl.hotspot_node = hot_node;
  return wl;
}

Workload Workload::Permutation() {
  Workload wl;
  wl.pattern = WorkloadPattern::kPermutation;
  return wl;
}

Workload& Workload::WithRateScale(std::vector<double> per_cluster) {
  rate_scale = std::move(per_cluster);
  return *this;
}

Workload& Workload::WithMessageLength(MessageLength length) {
  message_length = length;
  return *this;
}

Workload& Workload::WithArrival(ArrivalProcess process) {
  arrival = std::move(process);
  return *this;
}

bool Workload::uniform_rates() const {
  for (double s : rate_scale) {
    if (s != 1.0) return false;
  }
  return true;
}

void Workload::Validate(const SystemConfig& sys) const {
  if (!rate_scale.empty() &&
      rate_scale.size() != static_cast<std::size_t>(sys.num_clusters())) {
    throw std::invalid_argument(
        "workload rate_scale must have one entry per cluster (" +
        std::to_string(sys.num_clusters()) + "), got " +
        std::to_string(rate_scale.size()));
  }
  double total = 0;
  for (double s : rate_scale) {
    if (!(s >= 0.0) || !std::isfinite(s)) {
      throw std::invalid_argument("workload rate scales must be finite and >= 0");
    }
    total += s;
  }
  if (!rate_scale.empty() && total <= 0.0) {
    throw std::invalid_argument("workload rate scales must not all be zero");
  }
  if (pattern == WorkloadPattern::kClusterLocal &&
      !(locality_fraction >= 0.0 && locality_fraction <= 1.0)) {
    throw std::invalid_argument("locality fraction must be in [0, 1]");
  }
  if (pattern == WorkloadPattern::kHotspot) {
    if (!(hotspot_fraction >= 0.0 && hotspot_fraction < 1.0)) {
      throw std::invalid_argument("hotspot fraction must be in [0, 1)");
    }
    if (hotspot_node < 0 || hotspot_node >= sys.TotalNodes()) {
      throw std::invalid_argument("hotspot node " +
                                  std::to_string(hotspot_node) +
                                  " outside [0, N)");
    }
  }
  if (arrival.IsTrace() && arrival.trace() != nullptr) {
    // Node-id range checks need the concrete system, so they live here
    // rather than at trace-load time; each record kept its line number for
    // exactly this diagnostic.
    const std::int64_t n = sys.TotalNodes();
    for (const TraceRecord& rec : arrival.trace()->records) {
      if (rec.src >= n || rec.dst >= n) {
        throw std::invalid_argument(
            "trace file " + arrival.trace()->path + " line " +
            std::to_string(rec.line) + ": node id " +
            std::to_string(rec.src >= n ? rec.src : rec.dst) +
            " outside [0, " + std::to_string(n) + ") for this system");
      }
    }
  }
}

std::string Workload::Describe() const {
  std::string out = WorkloadPatternName(pattern);
  char buf[64];
  if (pattern == WorkloadPattern::kClusterLocal) {
    std::snprintf(buf, sizeof buf, " %.0f%%", 100.0 * locality_fraction);
    out += buf;
  } else if (pattern == WorkloadPattern::kHotspot) {
    std::snprintf(buf, sizeof buf, " %.0f%% -> node %lld",
                  100.0 * hotspot_fraction,
                  static_cast<long long>(hotspot_node));
    out += buf;
  }
  if (!uniform_rates()) out += ", per-cluster rates";
  if (!message_length.is_fixed()) out += ", " + message_length.ToString();
  if (!arrival.EffectivelyPoisson()) out += ", " + arrival.ToString();
  return out;
}

const char* Workload::ModelApproximationNote() const {
  const bool permutation = pattern == WorkloadPattern::kPermutation;
  const bool non_poisson = !arrival.EffectivelyPoisson();
  if (permutation && non_poisson) {
    return "note: permutation is modeled by its uniform destination marginal "
           "(Eq. 2), and the non-Poisson arrivals by the Allen-Cunneen "
           "two-moment G/G/1 correction (expect a few-percent band at "
           "moderate load, wider near saturation; "
           "tests/arrival_process_test.cc pins the model-vs-sim tolerance)";
  }
  if (permutation) {
    return "note: permutation is modeled by its uniform destination marginal "
           "(Eq. 2); the fixed pairing's per-link contention is averaged out "
           "(tests/workload_test.cc pins the resulting model-vs-sim "
           "tolerance)";
  }
  if (non_poisson) {
    return "note: non-Poisson arrivals use the Allen-Cunneen two-moment "
           "G/G/1 correction (arrival SCV only); expect a few-percent band "
           "at moderate load, wider near saturation "
           "(tests/arrival_process_test.cc pins the model-vs-sim tolerance)";
  }
  return nullptr;
}

double Workload::EffectiveU(const SystemConfig& sys, int i) const {
  switch (pattern) {
    case WorkloadPattern::kUniform:
    case WorkloadPattern::kPermutation:
      // A uniform random derangement's marginal destination distribution is
      // uniform, so the permutation pattern shares Eq. (2).
      return sys.OutgoingProbability(i);
    case WorkloadPattern::kClusterLocal:
      // Mirror the generator's edge cases: a single-node cluster cannot keep
      // traffic local; a single-cluster system cannot send any away.
      if (sys.NodesInCluster(i) <= 1) return 1.0;
      if (sys.NodesInCluster(i) == sys.TotalNodes()) return 0.0;
      return 1.0 - locality_fraction;
    case WorkloadPattern::kHotspot: {
      // With probability f the destination is the hot node (local to its own
      // cluster, remote to every other); the remaining 1-f is uniform. The
      // src == hot fall-through to uniform is a 1/N_h correction we absorb.
      const double base = sys.OutgoingProbability(i);
      if (sys.ClusterOfNode(hotspot_node) == i) {
        return (1.0 - hotspot_fraction) * base;
      }
      return hotspot_fraction + (1.0 - hotspot_fraction) * base;
    }
  }
  return sys.OutgoingProbability(i);
}

double Workload::InterDestProbability(const SystemConfig& sys, int i,
                                      int j) const {
  if (i == j || sys.num_clusters() < 2) return 0.0;
  const double n = static_cast<double>(sys.TotalNodes());
  const double ni = static_cast<double>(sys.NodesInCluster(i));
  const double nj = static_cast<double>(sys.NodesInCluster(j));
  if (!DestinationSkewed()) return nj / (n - ni);
  // Hotspot: unnormalized mass per destination cluster, then normalize over
  // the inter-cluster destinations of cluster i.
  const int h = sys.ClusterOfNode(hotspot_node);
  const double f = hotspot_fraction;
  double total = 0;
  double target = 0;
  for (int c = 0; c < sys.num_clusters(); ++c) {
    if (c == i) continue;
    const double nc = static_cast<double>(sys.NodesInCluster(c));
    double q = (1.0 - f) * nc / (n - 1.0);
    if (c == h && i != h) q += f;
    total += q;
    if (c == j) target = q;
  }
  return total > 0 ? target / total : 0.0;
}

double Workload::EcnLoadFactor(const SystemConfig& sys, int c) const {
  // Ordered so the default workload reproduces Eq. (22)'s N_c U_c term bit
  // for bit (the trailing * 1.0 is exact).
  const double out = static_cast<double>(sys.NodesInCluster(c)) *
                     EffectiveU(sys, c) * RateScale(c);
  if (!DestinationSkewed()) return out;
  // Hotspot overlay: an ECN1 carries access journeys (outgoing) and egress
  // journeys (incoming); the hot cluster's incoming side dwarfs its outgoing
  // one, so use the symmetrized actual load instead of the Eq. (22) proxy.
  double in = 0;
  for (int i = 0; i < sys.num_clusters(); ++i) {
    if (i == c) continue;
    in += static_cast<double>(sys.NodesInCluster(i)) * EffectiveU(sys, i) *
          RateScale(i) * InterDestProbability(sys, i, c);
  }
  return 0.5 * (out + in);
}

double Workload::MeanFlits(const MessageFormat& msg) const {
  return message_length.MeanFlits(msg.length_flits);
}

double Workload::FlitVariance(const MessageFormat& msg) const {
  return message_length.VarianceFlits(msg.length_flits);
}

// --- WorkloadOverlay ---------------------------------------------------------

namespace {

/// Keeps the rate table sorted by index, so equal overlays compare equal
/// and serialize alike whatever order their keys were read in.
void SetRateScale(WorkloadOverlay& o, const std::string& key,
                  const std::string& value) {
  const int idx = *ParseFullInteger<int>(
      std::string_view(key).substr(key.rfind('.') + 1));
  const double scale = ParseKeyDouble(key, value);
  const auto at = std::find_if(
      o.rate_scale.begin(), o.rate_scale.end(),
      [idx](const std::pair<int, double>& e) { return e.first >= idx; });
  if (at != o.rate_scale.end() && at->first == idx) {
    throw std::invalid_argument("duplicate cluster index " +
                                std::to_string(idx) + " in '" + key + "'");
  }
  o.rate_scale.emplace(at, idx, scale);
}

void PrintRateScale(const WorkloadOverlay& o, std::string_view name,
                    std::string& out) {
  for (const auto& [idx, s] : o.rate_scale) {
    std::string key(name.substr(0, name.rfind('<')));
    key += std::to_string(idx);
    AppendIniLine(out, key, JsonNumber(s));
  }
}

constexpr IniKey<WorkloadOverlay> kOverlayKeys[] = {
    IniFieldKey<&WorkloadOverlay::pattern, ParseWorkloadPattern,
                WorkloadPatternName>("workload.pattern"),
    IniNumberKey<&WorkloadOverlay::locality>("workload.locality"),
    IniNumberKey<&WorkloadOverlay::hotspot_fraction>(
        "workload.hotspot_fraction"),
    IniNumberKey<&WorkloadOverlay::hotspot_node>("workload.hotspot_node"),
    IniFieldKey<&WorkloadOverlay::msg_len, MessageLength::Parse,
                &MessageLength::ToString>("workload.msg_len"),
    IniFieldKey<&WorkloadOverlay::arrival, ArrivalProcess::Parse,
                &ArrivalProcess::ToString>("workload.arrival"),
    {"workload.rate.<cluster>", SetRateScale, PrintRateScale},
};

}  // namespace

void WorkloadOverlay::Set(const std::string& key, const std::string& value) {
  SetIniKey(kOverlayKeys, "workload", *this, key, value);
}

void WorkloadOverlay::PrintKeys(std::string& out) const {
  PrintIniKeys(kOverlayKeys, *this, out);
}

void WorkloadOverlay::KeyNames(std::vector<std::string_view>& out) {
  IniKeyNames(kOverlayKeys, out);
}

Workload WorkloadOverlay::ApplyTo(Workload base, const SystemConfig& sys) const {
  if (pattern) base.pattern = *pattern;
  if (locality) {
    // --locality implies the cluster-local pattern, but never by silently
    // overriding an explicitly contradictory pattern: --pattern hotspot
    // --locality 0.6 is a hard error, not a locality run.
    if (pattern && base.pattern != WorkloadPattern::kClusterLocal) {
      throw std::invalid_argument(
          std::string("--locality implies --pattern local and cannot be "
                      "combined with --pattern ") +
          WorkloadPatternName(base.pattern) +
          " (drop --locality or use --pattern local)");
    }
    if (hotspot_fraction || hotspot_node) {
      throw std::invalid_argument(
          "--locality cannot be combined with --hotspot-fraction or "
          "--hotspot-node (pick one pattern)");
    }
    base.pattern = WorkloadPattern::kClusterLocal;
    base.locality_fraction = *locality;
  }
  if (hotspot_fraction) {
    if (pattern && base.pattern != WorkloadPattern::kHotspot) {
      throw std::invalid_argument(
          std::string("--hotspot-fraction implies --pattern hotspot and "
                      "cannot be combined with --pattern ") +
          WorkloadPatternName(base.pattern) +
          " (drop --hotspot-fraction or use --pattern hotspot)");
    }
    base.pattern = WorkloadPattern::kHotspot;
    base.hotspot_fraction = *hotspot_fraction;
  }
  if (hotspot_node) {
    // Implies the hotspot pattern from the uniform default, but never
    // silently overrides an explicitly non-hotspot scenario — neither an
    // explicit conflicting pattern (mirrors the --hotspot-fraction guard)
    // nor a config file's local/permutation workload.
    if (pattern && base.pattern != WorkloadPattern::kHotspot) {
      throw std::invalid_argument(
          std::string("--hotspot-node implies --pattern hotspot and cannot "
                      "be combined with --pattern ") +
          WorkloadPatternName(base.pattern) +
          " (drop --hotspot-node or use --pattern hotspot)");
    }
    if (base.pattern == WorkloadPattern::kClusterLocal ||
        base.pattern == WorkloadPattern::kPermutation) {
      throw std::invalid_argument(
          "--hotspot-node requires the hotspot pattern (add "
          "--pattern hotspot or --hotspot-fraction F)");
    }
    base.pattern = WorkloadPattern::kHotspot;
    base.hotspot_node = *hotspot_node;
    // Range-check against this system here so the failure names the knob
    // instead of surfacing from deep inside the model.
    if (base.hotspot_node < 0 || base.hotspot_node >= sys.TotalNodes()) {
      throw std::invalid_argument(
          "--hotspot-node " + std::to_string(base.hotspot_node) +
          " outside [0, " + std::to_string(sys.TotalNodes()) +
          ") for this system");
    }
  }
  if (msg_len) base.message_length = *msg_len;
  if (arrival) base.arrival = *arrival;
  if (!rate_scale.empty()) {
    // (index, scale) pairs; unnamed clusters keep scale 1.
    std::vector<double> scale(static_cast<std::size_t>(sys.num_clusters()),
                              1.0);
    for (const auto& [idx, s] : rate_scale) {
      if (idx < 0 || idx >= sys.num_clusters()) {
        throw std::invalid_argument("--rate-scale: cluster index " +
                                    std::to_string(idx) + " out of range");
      }
      scale[static_cast<std::size_t>(idx)] = s;
    }
    base.rate_scale = std::move(scale);
  }
  base.Validate(sys);
  return base;
}

// --- WorkloadDial ------------------------------------------------------------

const char* WorkloadDialName(WorkloadDial dial) {
  switch (dial) {
    case WorkloadDial::kLocality:
      return "locality";
    case WorkloadDial::kHotspotFraction:
      return "hotspot_fraction";
    case WorkloadDial::kRateScale:
      return "rate_scale";
    case WorkloadDial::kBurstiness:
      return "burstiness";
  }
  return "?";
}

Workload ApplyWorkloadDial(const Workload& base, WorkloadDial dial,
                           double value, int rate_scale_cluster,
                           int num_clusters) {
  Workload w = base;
  switch (dial) {
    case WorkloadDial::kLocality:
      w.pattern = WorkloadPattern::kClusterLocal;
      w.locality_fraction = value;
      break;
    case WorkloadDial::kHotspotFraction:
      w.pattern = WorkloadPattern::kHotspot;
      w.hotspot_fraction = value;
      break;
    case WorkloadDial::kRateScale:
      if (w.rate_scale.empty()) {
        w.rate_scale.assign(static_cast<std::size_t>(num_clusters), 1.0);
      }
      if (rate_scale_cluster < 0 ||
          static_cast<std::size_t>(rate_scale_cluster) >=
              w.rate_scale.size()) {
        throw std::invalid_argument(
            "rate_scale dial: cluster index " +
            std::to_string(rate_scale_cluster) + " out of range [0, " +
            std::to_string(w.rate_scale.size()) + ")");
      }
      w.rate_scale[static_cast<std::size_t>(rate_scale_cluster)] = value;
      break;
    case WorkloadDial::kBurstiness:
      w.arrival = ArrivalProcess::Mmpp(
          value, base.arrival.kind() == ArrivalProcess::Kind::kMmpp
                     ? base.arrival.mean_burst_length()
                     : 8.0);
      break;
  }
  return w;
}

}  // namespace coc
