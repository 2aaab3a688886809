#include "workloads.h"

#include <cmath>
#include <cstdio>
#include <string_view>
#include <utility>

#include "common.h"

namespace servebench {
namespace {

/// A preset and the approximate uniform-traffic saturation rate of its
/// default workload; the generator places operating points as fractions of
/// it so every preset is probed at comparable load.
struct Preset {
  const char* spec;
  double saturation;
  int clusters;
};

constexpr Preset kTiny{"preset:tiny", 9.48e-3, 4};
constexpr Preset k544{"preset:544", 1.04e-3, 16};
constexpr Preset k1120{"preset:1120", 5.17e-4, 32};
constexpr Preset kDragonfly{"preset:dragonfly", 6.39e-3, 4};
constexpr Preset kMixed{"preset:mixed", 9.48e-3, 4};

constexpr Preset kHotPresets[] = {kTiny, k544, k1120, kDragonfly, kMixed};
constexpr Preset kDialPresets[] = {k1120, k544};
/// sim_serve's weighted system draw (out of 16): the fast small systems
/// carry most requests so a run completes enough of them for a stable p99.
constexpr Preset kSimPresets[] = {kTiny, kDragonfly, k544, k1120};
constexpr int kSimWeights[] = {8, 4, 2, 2};
constexpr double kSimRateFractions[] = {0.05, 0.2};

constexpr const char* kIcn2Overrides[] = {"crossbar", "tree:3", "mesh:4x8",
                                          "torus:4x8"};
constexpr std::pair<const char*, const char*> kModelOptions[] = {
    {"model.lambda_i2", "harmonic"},
    {"model.relaxing_factor", "off"},
    {"model.condis_service", "supply_limited"},
};

constexpr int kHotScenarios = 256;
/// hot_mix scenario i has shape i mod kShapes: preset i % 5, analyses
/// (i / 5) % 2, workload kind (i / 10) % 4, spellings iff i % 4 == 0.
constexpr int kShapes = 40;
constexpr int kBatchSize = 8;
constexpr int kSimMessages = 1000;

using KeyValues = std::vector<std::pair<std::string, std::string>>;

std::string Num(double v, int digits = 6) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string Canonical(const std::string& name, const KeyValues& kv) {
  std::string out = "[scenario " + name + "]\n";
  for (const auto& [k, v] : kv) out += k + " = " + v + "\n";
  return out;
}

/// Alternate spellings of one scenario: same section name and key/value
/// set, different key order, comments and whitespace. All parse to the same
/// Scenario, so all share one canonical cache key.
std::vector<std::string> Alternates(const std::string& name,
                                    const KeyValues& kv, Rng& rng) {
  std::vector<std::string> out;
  // 1: reversed key order, no spaces around '='.
  {
    std::string s = "[scenario " + name + "]\n";
    for (auto it = kv.rbegin(); it != kv.rend(); ++it) {
      s += it->first + "=" + it->second + "\n";
    }
    out.push_back(std::move(s));
  }
  // 2: comments, blank lines and padded separators.
  {
    std::string s = "# alternate spelling\n\n[scenario " + name +
                    "]   # same scenario\n";
    for (const auto& [k, v] : kv) {
      s += "  " + k + "   =   " + v + "    # " + k + "\n\n";
    }
    out.push_back(std::move(s));
  }
  // 3 (sometimes): a seeded shuffle with tab separators.
  if (rng.Below(2) == 0) {
    KeyValues shuffled = kv;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
    }
    std::string s = "[scenario " + name + "]\n";
    for (const auto& [k, v] : shuffled) s += "\t" + k + "\t=\t" + v + "\t\n";
    out.push_back(std::move(s));
  }
  return out;
}

/// A smooth seeded walk in [lo, hi) along the stream index, so requests
/// close in the stream carry close dial values (adjacent workloads).
double Walk(std::uint64_t seed, int dial, std::uint64_t index, double lo,
            double hi) {
  const double phase =
      static_cast<double>((seed * 2654435761ULL + dial * 97ULL) % 6283) /
      1000.0;
  const double t = phase + static_cast<double>(index) * 0.0137 *
                               (1.0 + 0.31 * dial);
  return lo + (hi - lo) * (0.5 + 0.5 * std::sin(t));
}

}  // namespace

bool ParseWorkloadKind(const std::string& name, WorkloadKind* out) {
  for (const WorkloadKind k :
       {WorkloadKind::kHotMix, WorkloadKind::kDialWalk,
        WorkloadKind::kSimServe}) {
    if (name == WorkloadName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHotMix: return "hot_mix";
    case WorkloadKind::kDialWalk: return "dial_walk";
    case WorkloadKind::kSimServe: return "sim_serve";
  }
  return "?";
}

std::string RequestLine(const std::string& scenario_text, bool batch) {
  std::string line = batch ? R"({"op":"batch","scenarios":")"
                           : R"({"op":"evaluate","scenario":")";
  for (const char c : scenario_text) {
    switch (c) {
      case '"': line += "\\\""; break;
      case '\\': line += "\\\\"; break;
      case '\n': line += "\\n"; break;
      case '\t': line += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          line += buf;
        } else {
          line += c;
        }
    }
  }
  line += "\"}\n";
  return line;
}

Generator::Generator(WorkloadKind kind, std::uint64_t seed)
    : kind_(kind), seed_(seed) {
  switch (kind) {
    case WorkloadKind::kHotMix: {
      for (int i = 0; i < kHotScenarios; ++i) {
        Rng rng = StreamRng(seed, 1, static_cast<std::uint64_t>(i));
        const Preset& p = kHotPresets[i % 5];
        KeyValues kv;
        kv.emplace_back("system", p.spec);
        kv.emplace_back("analyses", (i / 5) % 2 == 0 ? "model,bottleneck"
                                                     : "model,saturation");
        kv.emplace_back("rate", Num(p.saturation * rng.Range(0.05, 0.45), 4));
        switch ((i / 10) % 4) {
          case 1:
            kv.emplace_back("workload.locality", Num(rng.Range(0.3, 0.9), 3));
            break;
          case 2:
            kv.emplace_back("workload.hotspot_fraction",
                            Num(rng.Range(0.02, 0.12), 3));
            break;
          case 3:
            kv.emplace_back("workload.rate.1", Num(rng.Range(1.5, 3.0), 3));
            break;
          default:
            break;  // the preset's uniform workload
        }
        const std::string name = "h" + std::to_string(i);
        Spellings s;
        s.canonical = Canonical(name, kv);
        if (i % 4 == 0) s.alternates = Alternates(name, kv, rng);
        warmup_.push_back(RequestLine(s.canonical, /*batch=*/false));
        scenarios_.push_back(std::move(s));
      }
      // Zipf(1.1) over ranks. A seeded permutation decides which scenario
      // holds which rank, but only among scenarios of one shape (preset,
      // analyses, workload kind: index mod kShapes), so every seed puts the
      // same mix of response sizes at each popularity and seeds differ in
      // values, not in cost.
      double total = 0;
      for (int r = 0; r < kHotScenarios; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
        zipf_cdf_.push_back(total);
      }
      for (double& c : zipf_cdf_) c /= total;
      rank_to_scenario_.resize(kHotScenarios);
      Rng perm = StreamRng(seed, 5, 0);
      for (int shape = 0; shape < kShapes; ++shape) {
        std::vector<std::size_t> members;
        for (int i = shape; i < kHotScenarios; i += kShapes) {
          members.push_back(static_cast<std::size_t>(i));
        }
        for (std::size_t i = members.size(); i > 1; --i) {
          std::swap(members[i - 1], members[perm.Below(i)]);
        }
        for (std::size_t j = 0; j < members.size(); ++j) {
          rank_to_scenario_[static_cast<std::size_t>(shape) + j * kShapes] =
              members[j];
        }
      }
      break;
    }
    case WorkloadKind::kDialWalk: {
      // One request per distinct system the stream uses, counting an ICN2
      // override as its own system, as the Engine's system table does.
      int w = 0;
      for (const Preset& p : kDialPresets) {
        for (int o = -1; o < 4; ++o) {
          KeyValues kv = {{"system", p.spec}};
          if (o >= 0) kv.emplace_back("icn2_topology", kIcn2Overrides[o]);
          kv.emplace_back("analyses", "model,bottleneck,saturation");
          kv.emplace_back("rate", Num(p.saturation * 0.3, 4));
          warmup_.push_back(
              RequestLine(Canonical("w" + std::to_string(w++), kv), false));
        }
      }
      break;
    }
    case WorkloadKind::kSimServe: {
      int w = 0;
      for (const Preset& p : kSimPresets) {
        KeyValues kv = {{"system", p.spec},
                        {"analyses", "sim"},
                        {"rate", Num(p.saturation * kSimRateFractions[0], 4)},
                        {"sim.messages", std::to_string(kSimMessages)}};
        warmup_.push_back(
            RequestLine(Canonical("w" + std::to_string(w++), kv), false));
      }
      break;
    }
  }
}

int Generator::num_classes() const {
  return kind_ == WorkloadKind::kSimServe ? 4 * 2 * 2 : 0;
}

GeneratedRequest Generator::Measured(std::uint64_t index) const {
  switch (kind_) {
    case WorkloadKind::kHotMix: return HotMix(index);
    case WorkloadKind::kDialWalk: return DialWalk(index);
    case WorkloadKind::kSimServe: return SimServe(index);
  }
  return {};
}

std::size_t Generator::ZipfDraw(double u) const {
  std::size_t lo = 0, hi = zipf_cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (zipf_cdf_[mid] < u) lo = mid + 1;
    else hi = mid;
  }
  return rank_to_scenario_[lo];
}

GeneratedRequest Generator::HotMix(std::uint64_t index) const {
  Rng rng = StreamRng(seed_, 2, index);
  GeneratedRequest req;
  if (rng.Below(16) == 0) {
    // An 8-scenario batch envelope of distinct scenarios, canonical text.
    std::vector<std::size_t> picked;
    std::string text;
    while (picked.size() < static_cast<std::size_t>(kBatchSize)) {
      const std::size_t s = ZipfDraw(rng.Uniform());
      bool seen = false;
      for (const std::size_t p : picked) seen = seen || p == s;
      if (seen) continue;
      picked.push_back(s);
      if (!text.empty()) text += "\n";
      text += scenarios_[s].canonical;
    }
    req.line = RequestLine(text, /*batch=*/true);
    req.batch = true;
    return req;
  }
  const Spellings& s = scenarios_[ZipfDraw(rng.Uniform())];
  const std::size_t pick = rng.Below(1 + s.alternates.size());
  req.line = RequestLine(pick == 0 ? s.canonical : s.alternates[pick - 1],
                         /*batch=*/false);
  return req;
}

GeneratedRequest Generator::DialWalk(std::uint64_t index) const {
  Rng rng = StreamRng(seed_, 3, index);
  const std::string name = "d" + std::to_string(index);
  KeyValues kv;
  const Preset* p = nullptr;
  if (index % 16 == 7) {
    // The rotating pool: 2 systems x 4 ICN2 overrides x 3 model options =
    // 24 families, more than the Engine's 16 rebind sources hold.
    const std::uint64_t family = (index / 16) % 24;
    p = &kDialPresets[family % 2];
    kv.emplace_back("system", p->spec);
    kv.emplace_back("icn2_topology", kIcn2Overrides[(family / 2) % 4]);
    kv.emplace_back("analyses", "model,bottleneck,saturation");
    kv.emplace_back("rate", Num(p->saturation * rng.Range(0.1, 0.5), 4));
    kv.emplace_back(kModelOptions[family / 8].first,
                    kModelOptions[family / 8].second);
  } else if (index % 8 == 3) {
    p = &kDialPresets[rng.Below(2)];
    kv.emplace_back("system", p->spec);
    kv.emplace_back("analyses", "sweep");
    kv.emplace_back("sweep.max_rate",
                    Num(p->saturation * rng.Range(0.5, 0.95), 4));
    kv.emplace_back("sweep.points", "16");
    kv.emplace_back("sweep.sim", "false");
  } else {
    p = &kDialPresets[rng.Below(2)];
    kv.emplace_back("system", p->spec);
    kv.emplace_back("analyses", "model,bottleneck,saturation");
    kv.emplace_back("rate", Num(p->saturation * rng.Range(0.1, 0.5), 4));
  }
  // The four dials, each on its own smooth walk.
  switch (rng.Below(4)) {
    case 0:
      kv.emplace_back("workload.locality",
                      Num(Walk(seed_, 0, index, 0.2, 0.9)));
      break;
    case 1:
      kv.emplace_back("workload.hotspot_fraction",
                      Num(Walk(seed_, 1, index, 0.005, 0.08)));
      break;
    case 2:
      kv.emplace_back(
          "workload.rate." + std::to_string(rng.Below(
                                 static_cast<std::uint64_t>(p->clusters))),
          Num(Walk(seed_, 2, index, 1.1, 2.5)));
      break;
    default:
      kv.emplace_back("workload.arrival",
                      "mmpp:" + Num(Walk(seed_, 3, index, 1.5, 8.0), 4) +
                          "," + std::to_string(4 + rng.Below(29)));
      break;
  }
  GeneratedRequest req;
  req.line = RequestLine(Canonical(name, kv), /*batch=*/false);
  return req;
}

GeneratedRequest Generator::SimServe(std::uint64_t index) const {
  Rng rng = StreamRng(seed_, 4, index);
  int draw = static_cast<int>(rng.Below(16));
  int sys = 0;
  while (draw >= kSimWeights[sys]) draw -= kSimWeights[sys++];
  const Preset& p = kSimPresets[sys];
  const int rate_level = static_cast<int>(rng.Below(2));
  const bool store_forward = rng.Below(4) == 0;
  const bool mmpp = rng.Below(4) == 0;
  KeyValues kv = {
      {"system", p.spec},
      {"analyses", "sim"},
      {"rate", Num(p.saturation * kSimRateFractions[rate_level], 4)},
      {"sim.messages", std::to_string(kSimMessages)},
      {"sim.seed", std::to_string(1 + (rng.Next() >> 20))}};
  if (store_forward) kv.emplace_back("sim.condis", "store-forward");
  if (mmpp) kv.emplace_back("workload.arrival", "mmpp:4,8");
  GeneratedRequest req;
  req.line = RequestLine(Canonical("s" + std::to_string(index), kv), false);
  req.cls = (sys * 2 + rate_level) * 2 + (store_forward ? 1 : 0);
  return req;
}

}  // namespace servebench
