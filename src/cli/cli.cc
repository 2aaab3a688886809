#include "cli/cli.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "config/config_parser.h"
#include "common/fault_injection.h"
#include "common/parse_num.h"
#include "common/status.h"
#include "common/table.h"
#include "harness/sweep.h"
#include "server/server.h"
#include "topology/topology_spec.h"

namespace coc {
namespace {

constexpr const char* kUsage = R"(usage:
  coc_cli info       <system>
  coc_cli model      <system> --rate R [workload flags] [--format F]
  coc_cli sim        <system> --rate R [--messages N] [--seed S]
                     [--condis cut-through|store-forward] [workload flags]
                     [--format F]
  coc_cli sweep      <system> --max-rate R [--points N] [--no-sim]
                     [--threads N] [--sim-abort-latency L] [workload flags]
                     [--sweep-locality LO:HI:STEP |
                      --sweep-hotspot-fraction LO:HI:STEP |
                      --sweep-rate-scale LO:HI:STEP [--dial-cluster I] |
                      --sweep-burstiness LO:HI:STEP]
                     [--format F]
  coc_cli bottleneck <system> --rate R [workload flags] [--format F]
  coc_cli batch      <scenarios-file> [--threads N] [--format text|json|csv]
                     [--fail-fast] [--deadline-ms MS]
  coc_cli serve      --port P [--host A] [--threads N] [--cache-entries K]
                     [--max-queue Q]
  coc_cli submit     <scenarios-file> --port P [--host A] [--deadline-ms MS]
                     [--format text|json]

Workload flags (shared by model, sim, sweep and bottleneck; they override the
config file's workload.* keys so the analytical model and the simulator always
see the same traffic):
  --pattern uniform|hotspot|local|permutation
  --locality P            (implies --pattern local)
  --hotspot-fraction F    (implies --pattern hotspot)
  --hotspot-node ID       (implies --pattern hotspot; rejected against an
                           explicitly non-hotspot workload)
  --rate-scale I=S[,I=S...]   per-cluster generation-rate multipliers
  --msg-len fixed|bimodal:SHORT,LONG,FRACTION
  --arrival poisson|mmpp:RATIO,BURSTLEN|trace:PATH
                          arrival process: Poisson (default), bursty on-off
                          (RATIO = peak/mean rate, BURSTLEN = mean messages
                          per burst), or trace replay of
                          'timestamp src dst flits' lines (sim only takes
                          endpoints/lengths from the trace; the model uses
                          its interarrival SCV)

--format F selects the output encoding: text (default, human-readable),
json (the schema-versioned Report tree), or csv.

Every single-system command (info, model, sim, sweep, bottleneck) accepts
--icn2-topology SPEC to override the global network's topology (SPEC:
tree[:n], crossbar[:ports], mesh:RADIXxDIMS[,tap=center],
torus:RADIXxDIMS[,tap=center], dragonfly:A,P,H[,routing=min|valiant]);
batch scenarios set it per section with the icn2_topology key.
Per-cluster topologies are set in the config file ('topology =' keys).

<system> is a config file (see src/config/config_parser.h) or preset:1120,
preset:544, preset:small, preset:tiny, preset:mixed, preset:dragonfly —
optionally preset:NAME:M:dm.

A --sweep-locality / --sweep-hotspot-fraction / --sweep-rate-scale /
--sweep-burstiness flag turns sweep's x-axis into that workload dial
(LO:HI:STEP, inclusive): each dial value is one scenario named DIAL=VALUE,
evaluated in order over the --max-rate/--points rate grid plus its
saturation rate; the probes column counts the saturation search's model
evaluations. Dial sweeps are model-only (simulation flags and --threads are
ignored), --deadline-ms bounds the whole sweep, and --format json prints the
points' reports as one batch; --dial-cluster I picks the cluster the
rate-scale dial moves (default 0).

<scenarios-file> holds [scenario NAME] sections (see src/api/scenario.h and
examples/batch_scenarios.cfg); the batch is evaluated in parallel over
--threads workers with bit-identical output for any worker count. A failed
scenario becomes a structured "status" record in its report (the other
scenarios are unaffected); --fail-fast aborts on the first failure instead.

Every evaluating command accepts --deadline-ms MS, a cooperative per-scenario
deadline; a tripped deadline reports deadline_exceeded with partial results.

serve runs the long-lived evaluation daemon: a newline-delimited JSON
protocol over TCP (README "Server mode" has the grammar), a worker pool
sharing one Engine, and a content-addressed result cache — responses are
batch reports with an added "cache": "hit"|"miss" per report. A full
pending queue (--max-queue) answers a structured "overloaded" status
instead of blocking; --cache-entries sizes the cache (0 disables);
SIGINT/SIGTERM drains (finish in-flight, flush stats, exit 0). submit
sends <scenarios-file> to a running server as one batch request and exits
like batch (0 all ok, 3 partial failure, 1 connection/server error).

Exit codes: 0 success; 1 evaluation error; 2 usage error; 3 batch completed
but at least one scenario failed (see each report's "status" block).
)";

/// Minimal --flag/value parser; flags without a value are boolean.
class Flags {
 public:
  Flags(const std::vector<std::string>& args, std::size_t first) {
    for (std::size_t i = first; i < args.size(); ++i) {
      const std::string& a = args[i];
      if (a.rfind("--", 0) != 0) {
        throw std::invalid_argument("unexpected argument: " + a);
      }
      const std::string key = a.substr(2);
      if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        values_[key] = args[++i];
      } else {
        values_[key] = "";
      }
    }
  }

  /// Numeric flags parse the whole token (common/parse_num.h), so "1e-4x",
  /// or "3.7" for an integer flag, is a usage error naming the flag rather
  /// than a silently different number. Integer flags parse at the full
  /// width of T: seeds above 2^53 never pass through a double.
  double Number(const std::string& key, std::optional<double> fallback = {}) {
    return Parsed(key, fallback, ParseFullDouble, "a number");
  }

  template <typename T>
  T Integer(const std::string& key, std::optional<T> fallback = {}) {
    return Parsed(key, fallback, ParseFullInteger<T>, "an integer");
  }

  std::string Text(const std::string& key, const std::string& fallback) {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    used_.insert(key);
    return it->second;
  }

  bool Present(const std::string& key) {
    const bool has = values_.count(key) != 0;
    if (has) used_.insert(key);
    return has;
  }

  /// Rejects unknown flags (typo protection).
  void CheckAllUsed() const {
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) {
        throw std::invalid_argument("unknown flag --" + key);
      }
    }
  }

 private:
  template <typename T, typename Parse>
  T Parsed(const std::string& key, std::optional<T> fallback, Parse parse,
           const char* what) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      if (fallback) return *fallback;
      throw std::invalid_argument("missing required flag --" + key);
    }
    used_.insert(key);
    const std::optional<T> v = parse(it->second);
    if (!v) {
      throw UsageError("--" + key + " expects " + what + ", got '" +
                       it->second + "'");
    }
    return *v;
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

enum class Format { kText, kJson, kCsv };

Format FormatFromFlags(Flags& flags) {
  const std::string f = flags.Text("format", "text");
  if (f == "text") return Format::kText;
  if (f == "json") return Format::kJson;
  if (f == "csv") return Format::kCsv;
  throw UsageError("--format expects text, json or csv, got '" + f + "'");
}

/// Lifts the shared workload flags into a field-wise overlay; the conflict
/// guards and range checks run when the overlay is applied to a concrete
/// system (WorkloadOverlay::ApplyTo), so one code path serves the CLI,
/// scenario files and config files.
WorkloadOverlay OverlayFromFlags(Flags& flags) {
  WorkloadOverlay overlay;
  if (flags.Present("pattern")) {
    overlay.pattern = ParseWorkloadPattern(flags.Text("pattern", "uniform"));
  }
  if (flags.Present("locality")) {
    overlay.locality = flags.Number("locality");
  }
  if (flags.Present("hotspot-fraction")) {
    overlay.hotspot_fraction = flags.Number("hotspot-fraction");
  }
  if (flags.Present("hotspot-node")) {
    overlay.hotspot_node = flags.Integer<std::int64_t>("hotspot-node");
  }
  if (flags.Present("msg-len")) {
    overlay.msg_len = MessageLength::Parse(flags.Text("msg-len", "fixed"));
  }
  if (flags.Present("arrival")) {
    overlay.arrival = ArrivalProcess::Parse(flags.Text("arrival", "poisson"));
  }
  if (flags.Present("rate-scale")) {
    // Each I=S pair is the key workload.rate.I = S.
    std::istringstream in(flags.Text("rate-scale", ""));
    std::string pair;
    while (std::getline(in, pair, ',')) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument(
            "--rate-scale expects I=S[,I=S...], got '" + pair + "'");
      }
      try {
        overlay.Set("workload.rate." + pair.substr(0, eq),
                    pair.substr(eq + 1));
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(std::string("--rate-scale: ") + e.what());
      }
    }
  }
  return overlay;
}

/// The shared <system> + --icn2-topology + workload-flag prefix of every
/// evaluating command, as a Scenario (analyses/rate filled per command).
Scenario ScenarioFromFlags(const std::string& system, Flags& flags) {
  Scenario s;
  s.name = "cli";
  s.system = system;
  s.analyses = 0;
  if (flags.Present("icn2-topology")) {
    s.icn2_override = ParseTopologySpec(flags.Text("icn2-topology", ""));
  }
  s.workload = OverlayFromFlags(flags);
  return s;
}

/// --deadline-ms for every evaluating command; validated at flag level.
std::optional<double> DeadlineFromFlags(Flags& flags) {
  if (!flags.Present("deadline-ms")) return std::nullopt;
  const double ms = flags.Number("deadline-ms");
  if (!(ms > 0)) {
    throw UsageError("--deadline-ms must be > 0, got " + FormatSci(ms));
  }
  return ms;
}

/// --rate for model/sim/bottleneck: validated at flag level so a bad value
/// is a usage error naming the flag, not a scenario-vocabulary rejection.
double RateFromFlags(Flags& flags) {
  const double rate = flags.Number("rate");
  if (!(rate > 0)) {
    throw UsageError("--rate must be > 0, got " + FormatSci(rate));
  }
  return rate;
}

/// --threads for sweep and batch: defaults to the hardware concurrency;
/// results are bit-identical for any worker count, so this only sizes the
/// pool. Non-positive values are usage errors.
int ThreadsFromFlags(Flags& flags) {
  const int default_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int threads = flags.Integer<int>("threads", default_threads);
  if (threads < 1) {
    throw UsageError("--threads must be >= 1, got " + std::to_string(threads));
  }
  return threads;
}

// --- text renderers --------------------------------------------------------
// These reproduce the pre-facade command output byte for byte (pinned by
// cli_test); the Report carries every number they print.

void RenderModelText(const Report& r, std::ostream& out) {
  const ModelAnalysisResult& a = *r.model;
  out << "lambda_g = " << FormatSci(a.rate) << "  (workload: " << r.workload
      << ")\n";
  if (!a.note.empty()) {
    out << a.note << "\n";
  }
  if (a.result.saturated) {
    out << "mean latency: saturated (model invalid at this rate)\n";
  } else {
    out << "mean latency: " << FormatDouble(a.result.mean_latency, 2)
        << " us\n";
  }
  Table t({"cluster", "U^(i)", "L_in", "W_in", "L_out", "W_d", "blended"});
  for (std::size_t i = 0; i < a.result.clusters.size(); ++i) {
    const auto& cl = a.result.clusters[i];
    t.AddRow({std::to_string(i), FormatDouble(cl.u, 3),
              FormatDouble(cl.intra.l_in, 2), FormatDouble(cl.intra.w_in, 2),
              FormatDouble(cl.inter.l_out, 2), FormatDouble(cl.inter.w_d, 2),
              FormatDouble(cl.blended, 2)});
  }
  out << t.ToString();
  out << "saturation rate: " << FormatSci(a.saturation_rate) << "\n";
}

void RenderSimText(const Report& r, std::ostream& out) {
  const SimAnalysisResult& a = *r.sim;
  out << "workload: " << r.workload << "\n";
  out << "delivered " << a.delivered << " messages over "
      << FormatDouble(a.duration, 1) << " us simulated time\n";
  out << "mean latency: " << FormatDouble(a.mean, 2) << " +/- "
      << FormatDouble(a.ci95, 2) << " us  (min " << FormatDouble(a.min, 2)
      << ", max " << FormatDouble(a.max, 2) << ")\n";
  out << "intra: " << FormatDouble(a.intra_mean, 2) << " us ("
      << a.intra_count << " msgs), inter: " << FormatDouble(a.inter_mean, 2)
      << " us (" << a.inter_count << " msgs)\n";
  out << "utilization (mean/max): ICN1 " << FormatDouble(a.icn1_mean, 3)
      << "/" << FormatDouble(a.icn1_max, 3) << ", ECN1 "
      << FormatDouble(a.ecn1_mean, 3) << "/" << FormatDouble(a.ecn1_max, 3)
      << ", ICN2 " << FormatDouble(a.icn2_mean, 3) << "/"
      << FormatDouble(a.icn2_max, 3) << "\n";
}

void RenderSweepText(const Report& r, std::ostream& out) {
  out << FormatSweepTable(
      "mean message latency (us), workload: " + r.workload, r.sweep->points);
  out << FormatSweepPlot("analysis vs simulation", r.sweep->points);
}

void RenderBottleneckText(const Report& r, std::ostream& out) {
  const BottleneckAnalysisResult& a = *r.bottleneck;
  if (!a.note.empty()) {
    out << a.note << "\n";
  }
  Table t({"resource", "utilization"});
  t.AddRow({"concentrator/dispatcher", FormatDouble(a.report.condis_rho, 4)});
  t.AddRow({"inter-cluster source queue",
            FormatDouble(a.report.inter_source_rho, 4)});
  t.AddRow({"intra-cluster source queue",
            FormatDouble(a.report.intra_source_rho, 4)});
  if (a.destination_skewed) {
    t.AddRow({"hot-node ejection link",
              FormatDouble(a.report.hot_eject_rho, 4)});
  }
  out << t.ToString();
  out << "binding resource: " << a.report.binding << "\n";
  out << "saturation rate: " << FormatSci(a.saturation_rate) << "\n";
}

/// Batch text mode: every present analysis of every report, in order. The
/// model and bottleneck renderers already end with the saturation rate, so
/// the standalone saturation line prints only when neither ran.
void RenderReportText(const Report& r, std::ostream& out) {
  if (r.model) RenderModelText(r, out);
  if (r.bottleneck) RenderBottleneckText(r, out);
  if (r.saturation_rate && !r.model && !r.bottleneck) {
    out << "saturation rate: " << FormatSci(*r.saturation_rate) << "\n";
  }
  if (r.sweep) RenderSweepText(r, out);
  if (r.sim) RenderSimText(r, out);
}

void EmitJson(const Json& json, std::ostream& out) {
  out << json.Dump(2) << "\n";
}

// --- commands --------------------------------------------------------------

void PrintSystem(const SystemConfig& sys, const Workload& workload,
                 std::ostream& out) {
  out << "clusters: " << sys.num_clusters() << ", nodes: " << sys.TotalNodes()
      << ", m: " << sys.m() << ", ICN2: " << sys.icn2_topology().Name()
      << (sys.icn2_exact_fit() ? "" : " (partial occupancy)") << "\n";
  out << "message: " << sys.message().length_flits << " flits x "
      << FormatDouble(sys.message().flit_bytes) << " bytes\n";
  out << "workload: " << workload.Describe() << "\n";
  Table t({"cluster", "N_i", "U^(i)", "rate", "ICN1", "ECN1", "ICN1 BW",
           "ECN1 BW"});
  for (int i = 0; i < sys.num_clusters(); ++i) {
    t.AddRow({std::to_string(i), std::to_string(sys.NodesInCluster(i)),
              FormatDouble(workload.EffectiveU(sys, i), 4),
              FormatDouble(workload.RateScale(i), 2),
              sys.icn1_topology(i).Name(), sys.ecn1_topology(i).Name(),
              FormatDouble(sys.cluster(i).icn1.bandwidth),
              FormatDouble(sys.cluster(i).ecn1.bandwidth)});
  }
  out << t.ToString();
}

int CmdInfo(const std::string& system, Flags& flags, std::ostream& out) {
  const Scenario s = ScenarioFromFlags(system, flags);
  flags.CheckAllUsed();
  Experiment exp = LoadExperiment(s.system);
  SystemConfig& sys = exp.system;
  if (s.icn2_override) sys = sys.WithIcn2Topology(*s.icn2_override);
  PrintSystem(sys, s.workload.ApplyTo(exp.workload, sys), out);
  return 0;
}

int CmdModel(const std::string& system, Flags& flags, std::ostream& out) {
  Scenario s = ScenarioFromFlags(system, flags);
  s.Request(Analysis::kModel);
  s.rate = RateFromFlags(flags);
  s.deadline_ms = DeadlineFromFlags(flags);
  const Format format = FormatFromFlags(flags);
  flags.CheckAllUsed();
  Engine engine;
  const Report r = engine.Evaluate(s);
  switch (format) {
    case Format::kText: RenderModelText(r, out); break;
    case Format::kJson: EmitJson(r.ToJson(), out); break;
    case Format::kCsv: out << ModelCsv(*r.model); break;
  }
  return 0;
}

int CmdSim(const std::string& system, Flags& flags, std::ostream& out) {
  Scenario s = ScenarioFromFlags(system, flags);
  s.Request(Analysis::kSim);
  s.rate = RateFromFlags(flags);
  s.sim_seed = flags.Integer<std::uint64_t>("seed", 1);
  if (flags.Present("messages")) {
    s.sim_messages = flags.Integer<std::int64_t>("messages");
  }
  // --condis is the scenario key sim.condis.
  if (flags.Present("condis")) s.Set("sim.condis", flags.Text("condis", ""));
  s.deadline_ms = DeadlineFromFlags(flags);
  const Format format = FormatFromFlags(flags);
  flags.CheckAllUsed();
  Engine engine;
  const Report r = engine.Evaluate(s);
  switch (format) {
    case Format::kText: RenderSimText(r, out); break;
    case Format::kJson: EmitJson(r.ToJson(), out); break;
    case Format::kCsv: out << SimCsv(*r.sim); break;
  }
  return 0;
}

/// Parses a --sweep-* dial grid "LO:HI:STEP" into the inclusive value list.
std::vector<double> ParseDialGrid(const std::string& flag,
                                  const std::string& text) {
  const auto c1 = text.find(':');
  const auto c2 = c1 == std::string::npos ? c1 : text.find(':', c1 + 1);
  const auto field = [&text](std::size_t from, std::size_t to, double& out) {
    const auto v = ParseFullDouble(text.substr(from, to - from));
    if (v) out = *v;
    return v.has_value();
  };
  double lo = 0, hi = 0, step = 0;
  if (c2 == std::string::npos || !field(0, c1, lo) || !field(c1 + 1, c2, hi) ||
      !field(c2 + 1, text.size(), step)) {
    throw UsageError("--" + flag + " expects LO:HI:STEP, got '" + text + "'");
  }
  if (!(step > 0)) {
    throw UsageError("--" + flag + ": STEP must be > 0, got " +
                     FormatSci(step));
  }
  if (hi < lo) {
    throw UsageError("--" + flag + ": HI must be >= LO, got '" + text + "'");
  }
  // Count before building: (HI - LO) / STEP steps give one more point.
  if (!((hi - lo) / step < Scenario::kMaxSweepPoints)) {
    throw UsageError("--" + flag + ": grid '" + text + "' has more than " +
                     std::to_string(Scenario::kMaxSweepPoints) + " points");
  }
  std::vector<double> values;
  for (int i = 0;; ++i) {
    double v = lo + i * step;
    if (v > hi + step * 1e-9) break;
    // Clamp accumulated rounding at the top edge so e.g. 0:1:0.1 never
    // produces a value fractionally above a [0, 1] parameter bound.
    values.push_back(std::min(v, hi));
  }
  return values;
}

/// The workload-dial variant of sweep: each dial value is one Scenario, the
/// flags' scenario with the dial's overlay field at that value, asking for
/// its saturation rate and a model-only sweep of the rate grid. The points
/// run in order through one Engine that keeps one model, so each compile
/// rebinds the point before it and memory does not grow with the points.
/// `s.deadline_ms` bounds the whole sweep: each point gets the time left.
int RunDialSweep(Scenario s, const std::string& dial,
                 const std::vector<double>& values, int dial_cluster,
                 Format format, std::ostream& out) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const std::optional<double> budget_ms = s.deadline_ms;
  s.Request(Analysis::kSaturation);
  s.sweep_sim = false;
  // The rate-scale dial spells every cluster's scale from the base workload
  // (the system's under the flags), so a config file's table is kept and the
  // dial wins over --rate-scale on its cluster; the burstiness dial keeps
  // the base's MMPP burst length.
  std::vector<std::pair<int, double>> scales;
  double burst_length = 8;
  if (dial == "rate_scale" || dial == "burstiness") {
    Experiment exp = LoadExperiment(s.system);
    SystemConfig& sys = exp.system;
    if (s.icn2_override) sys = sys.WithIcn2Topology(*s.icn2_override);
    if (dial == "rate_scale" &&
        (dial_cluster < 0 || dial_cluster >= sys.num_clusters())) {
      throw UsageError("--dial-cluster " + std::to_string(dial_cluster) +
                       " outside [0, " + std::to_string(sys.num_clusters()) +
                       ") for this system");
    }
    const Workload base = s.workload.ApplyTo(exp.workload, sys);
    if (base.arrival.kind() == ArrivalProcess::Kind::kMmpp) {
      burst_length = base.arrival.mean_burst_length();
    }
    if (dial == "rate_scale") {
      for (int i = 0; i < sys.num_clusters(); ++i) {
        scales.emplace_back(i, base.RateScale(i));
      }
    }
  }
  // Text and CSV rows render as each point completes; only JSON keeps the
  // reports.
  std::vector<std::string> header{"dial", "dial_value", "lambda_g",
                                  "analysis", "saturated", "saturation_rate",
                                  "saturation_probes"};
  if (format == Format::kText) {
    header = {dial, "sat_rate", "probes"};
    for (const double rate : LinearRates(*s.sweep_max_rate, s.sweep_points)) {
      header.push_back("L@" + FormatSci(rate));
    }
  }
  Table table(std::move(header));
  std::vector<Report> reports;
  Engine engine(Engine::Options{.model_entries = 1});
  for (std::size_t k = 0; k < values.size(); ++k) {
    Scenario point = s;
    if (budget_ms) {
      const double left =
          *budget_ms -
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      Deadline::After(left).Check(
          "workload grid", std::to_string(k) + " of " +
                               std::to_string(values.size()) +
                               " dial points completed");
      point.deadline_ms = left;
    }
    const double v = values[k];
    point.name = dial + "=" + JsonNumber(v);
    if (dial == "locality") point.workload.locality = v;
    if (dial == "hotspot_fraction") point.workload.hotspot_fraction = v;
    if (dial == "rate_scale") {
      scales[static_cast<std::size_t>(dial_cluster)].second = v;
      point.workload.rate_scale = scales;
    }
    if (dial == "burstiness") {
      point.workload.arrival = ArrivalProcess::Mmpp(v, burst_length);
    }
    // Every point is a distinct model, so its search runs exactly once.
    const std::size_t before = engine.Stats().saturation_probes;
    Report r = engine.Evaluate(point);
    const std::string probes =
        std::to_string(engine.Stats().saturation_probes - before);
    if (format == Format::kJson) {
      reports.push_back(std::move(r));
    } else if (format == Format::kCsv) {
      for (const SweepPoint& p : r.sweep->points) {
        table.AddRow({dial, FormatDouble(v, 6),
                      FormatSci(p.lambda_g, 6),
                      p.model_saturated ? "" : FormatDouble(p.model_latency, 4),
                      p.model_saturated ? "1" : "0",
                      FormatSci(*r.saturation_rate, 6), probes});
      }
    } else {
      std::vector<std::string> row{FormatDouble(v, 4),
                                   FormatSci(*r.saturation_rate, 4), probes};
      for (const SweepPoint& p : r.sweep->points) {
        row.push_back(p.model_saturated ? "sat"
                                        : FormatDouble(p.model_latency, 1));
      }
      table.AddRow(std::move(row));
    }
  }
  switch (format) {
    case Format::kText:
      out << "workload-dial sweep (" << dial << "), system: " << s.system
          << '\n' << table.ToString();
      break;
    case Format::kJson: EmitJson(BatchToJson(reports), out); break;
    case Format::kCsv: out << table.ToCsv(); break;
  }
  return 0;
}

int CmdSweep(const std::string& system, Flags& flags, std::ostream& out) {
  Scenario s = ScenarioFromFlags(system, flags);
  s.Request(Analysis::kSweep);
  // Malformed grids are usage errors (exit 2): the old behavior silently
  // produced an empty or nonsensical sweep.
  const double max_rate = flags.Number("max-rate");
  if (!(max_rate > 0)) {
    throw UsageError("--max-rate must be > 0, got " + FormatSci(max_rate));
  }
  const int points = flags.Integer<int>("points", 8);
  if (points < 1) {
    throw UsageError("--points must be >= 1, got " + std::to_string(points));
  }
  if (points > Scenario::kMaxSweepPoints) {
    throw UsageError("--points must be <= " +
                     std::to_string(Scenario::kMaxSweepPoints) + ", got " +
                     std::to_string(points));
  }
  // Workload-dial mode: at most one --sweep-<dial> flag turns the sweep's
  // x-axis into that workload parameter (model-only; sim flags ignored).
  const struct {
    const char* flag;
    const char* dial;  ///< the table's first column and the CSV's dial
  } kDialFlags[] = {
      {"sweep-locality", "locality"},
      {"sweep-hotspot-fraction", "hotspot_fraction"},
      {"sweep-rate-scale", "rate_scale"},
      {"sweep-burstiness", "burstiness"},
  };
  const char* dial = nullptr;
  std::vector<double> dial_values;
  for (const auto& df : kDialFlags) {
    if (!flags.Present(df.flag)) continue;
    if (dial != nullptr) {
      throw UsageError("at most one --sweep-<dial> flag may be given");
    }
    dial = df.dial;
    dial_values = ParseDialGrid(df.flag, flags.Text(df.flag, ""));
  }
  const int dial_cluster = flags.Integer<int>("dial-cluster", 0);
  if (dial == nullptr && flags.Present("dial-cluster")) {
    throw UsageError("--dial-cluster requires a --sweep-<dial> flag");
  }
  s.sweep_max_rate = max_rate;
  s.sweep_points = points;
  s.sweep_sim = !flags.Present("no-sim");
  if (flags.Present("sim-abort-latency")) {
    const double abort_latency = flags.Number("sim-abort-latency");
    if (!(abort_latency > 0)) {
      throw UsageError("--sim-abort-latency must be > 0, got " +
                       FormatSci(abort_latency));
    }
    s.sim_abort_latency = abort_latency;
  }
  s.deadline_ms = DeadlineFromFlags(flags);
  const int threads = ThreadsFromFlags(flags);
  const Format format = FormatFromFlags(flags);
  flags.CheckAllUsed();
  if (dial != nullptr) {
    return RunDialSweep(s, dial, dial_values, dial_cluster, format, out);
  }
  Engine engine;
  const Report r = engine.Evaluate(s, threads);
  switch (format) {
    case Format::kText: RenderSweepText(r, out); break;
    case Format::kJson: EmitJson(r.ToJson(), out); break;
    case Format::kCsv: out << SweepCsv(*r.sweep); break;
  }
  return 0;
}

int CmdBottleneck(const std::string& system, Flags& flags, std::ostream& out) {
  Scenario s = ScenarioFromFlags(system, flags);
  s.Request(Analysis::kBottleneck);
  s.rate = RateFromFlags(flags);
  s.deadline_ms = DeadlineFromFlags(flags);
  const Format format = FormatFromFlags(flags);
  flags.CheckAllUsed();
  Engine engine;
  const Report r = engine.Evaluate(s);
  switch (format) {
    case Format::kText: RenderBottleneckText(r, out); break;
    case Format::kJson: EmitJson(r.ToJson(), out); break;
    case Format::kCsv: out << BottleneckCsv(*r.bottleneck); break;
  }
  return 0;
}

int CmdBatch(const std::vector<std::string>& args, std::ostream& out) {
  Flags flags(args, 2);
  Engine::BatchOptions opts;
  opts.threads = ThreadsFromFlags(flags);
  opts.fail_fast = flags.Present("fail-fast");
  opts.default_deadline_ms = DeadlineFromFlags(flags);
  // Deterministic fault-injection seam for tests and failure drills:
  // COC_FAULT="site:index[,...]" (sites parse|model|sim_budget|deadline;
  // the server site only fires in serve mode).
  opts.faults = FaultInjector::FromEnv();
  const Format format = FormatFromFlags(flags);
  flags.CheckAllUsed();
  const std::vector<Scenario> scenarios = LoadScenarios(args[1]);
  Engine engine;
  const std::vector<Report> reports = engine.EvaluateBatch(scenarios, opts);
  bool any_failed = false;
  for (const Report& r : reports) {
    if (!r.status.ok()) any_failed = true;
  }
  if (format == Format::kJson) {
    EmitJson(BatchToJson(reports), out);
  } else if (format == Format::kCsv) {
    out << BatchCsv(reports);
  } else {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (i != 0) out << "\n";
      out << "=== scenario " << reports[i].scenario << " ("
          << reports[i].system_spec << ") ===\n";
      if (!reports[i].status.ok()) {
        out << "status: " << StatusCodeName(reports[i].status.code) << ": "
            << reports[i].status.message << "\n";
      }
      RenderReportText(reports[i], out);
    }
  }
  // Partial failure is its own exit code so scripts can tell "every
  // scenario evaluated" (0) from "the envelope is complete but some
  // scenarios failed" (3) without parsing the JSON.
  return any_failed ? 3 : 0;
}

// --- server mode -----------------------------------------------------------

int PortFromFlags(Flags& flags) {
  const std::int64_t port = flags.Integer<std::int64_t>("port");
  if (port < 0 || port > 65535) {
    throw UsageError("--port expects an integer in [0, 65535]");
  }
  return static_cast<int>(port);
}

int CmdServe(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  Flags flags(args, 1);
  ServerOptions opts;
  opts.port = PortFromFlags(flags);
  opts.host = flags.Text("host", "127.0.0.1");
  opts.threads = ThreadsFromFlags(flags);
  if (flags.Present("cache-entries")) {
    const std::int64_t n = flags.Integer<std::int64_t>("cache-entries");
    if (n < 0) {
      throw UsageError(
          "--cache-entries expects an integer >= 0 (0 disables caching)");
    }
    opts.cache_entries = static_cast<std::size_t>(n);
  }
  if (flags.Present("max-queue")) {
    const std::int64_t n = flags.Integer<std::int64_t>("max-queue");
    if (n < 1) {
      throw UsageError("--max-queue expects an integer >= 1");
    }
    opts.max_queue = static_cast<std::size_t>(n);
  }
  // COC_FAULT="server:index" arms the request-isolation drill site.
  opts.faults = FaultInjector::FromEnv();
  flags.CheckAllUsed();
  EvalServer server(std::move(opts));
  server.Start();
  InstallDrainSignalHandlers(server);
  // The port line is the readiness signal (and, with --port 0, the only
  // place the ephemeral port is visible) — flush it through any pipe.
  out << "listening on " << server.port() << "\n";
  out.flush();
  const int code = server.Wait();
  // Drain flushes the run's counters so operators see cache effectiveness.
  err << "drained: " << server.handler().StatsJson().Dump(0) << "\n";
  return code;
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw UsageError("cannot open '" + path + "': " + std::strerror(errno));
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int CmdSubmit(const std::vector<std::string>& args, std::ostream& out) {
  // The <scenario-file> may come before or after the flags; every submit
  // flag takes a value, so bare tokens are unambiguous.
  static const std::set<std::string> kValueFlags = {"port", "host", "format",
                                                    "deadline-ms"};
  std::vector<std::string> flag_args;
  std::string path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) == 0) {
      flag_args.push_back(args[i]);
      if (kValueFlags.count(args[i].substr(2)) != 0 && i + 1 < args.size()) {
        flag_args.push_back(args[++i]);
      }
    } else if (path.empty()) {
      path = args[i];
    } else {
      throw UsageError("unexpected argument: " + args[i]);
    }
  }
  if (path.empty()) {
    throw UsageError("submit needs a <scenario-file>");
  }
  Flags flags(flag_args, 0);
  const int port = PortFromFlags(flags);
  const std::string host = flags.Text("host", "127.0.0.1");
  const std::optional<double> deadline_ms = DeadlineFromFlags(flags);
  const Format format = FormatFromFlags(flags);
  if (format == Format::kCsv) {
    throw UsageError("submit supports --format text or json");
  }
  flags.CheckAllUsed();
  // The server parses and validates; the client ships the file verbatim.
  Json request = Json::Object();
  request.Set("op", "batch");
  request.Set("scenarios", ReadFileText(path));
  if (deadline_ms) request.Set("deadline_ms", *deadline_ms);
  const Json response = Json::Parse(SubmitLine(host, port, JsonLine(request)));
  const Json* reports = response.Find("reports");
  if (reports == nullptr) {
    // A status-only envelope: the request was rejected as a whole
    // (malformed batch text, overload, injected server fault).
    const Json* status = response.Find("status");
    const Json* message =
        status != nullptr ? status->Find("message") : nullptr;
    throw std::runtime_error(
        "server: " +
        (message != nullptr ? message->AsString() : response.Dump(0)));
  }
  bool any_failed = false;
  for (std::size_t i = 0; i < reports->Size(); ++i) {
    const Json* status = reports->At(i).Find("status");
    const Json* ok = status != nullptr ? status->Find("ok") : nullptr;
    if (ok == nullptr || !ok->AsBool()) any_failed = true;
  }
  if (format == Format::kJson) {
    EmitJson(response, out);
  } else {
    for (std::size_t i = 0; i < reports->Size(); ++i) {
      const Json& r = reports->At(i);
      const Json* name = r.Find("scenario");
      const Json* status = r.Find("status");
      const Json* code = status != nullptr ? status->Find("code") : nullptr;
      const Json* message =
          status != nullptr ? status->Find("message") : nullptr;
      const Json* cache = r.Find("cache");
      out << "scenario " << (name != nullptr ? name->AsString() : "?") << ": "
          << (code != nullptr ? code->AsString() : "?");
      if (message != nullptr) out << ": " << message->AsString();
      out << " (cache "
          << (cache != nullptr ? cache->AsString() : "?") << ")\n";
    }
  }
  return any_failed ? 3 : 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.size() < 2) {
    err << kUsage;
    return 2;
  }
  const std::string& command = args[0];
  try {
    if (command == "batch") return CmdBatch(args, out);
    if (command == "serve") return CmdServe(args, out, err);
    if (command == "submit") return CmdSubmit(args, out);
    Flags flags(args, 2);
    const std::string& system = args[1];
    if (command == "info") return CmdInfo(system, flags, out);
    if (command == "model") return CmdModel(system, flags, out);
    if (command == "sim") return CmdSim(system, flags, out);
    if (command == "sweep") return CmdSweep(system, flags, out);
    if (command == "bottleneck") return CmdBottleneck(system, flags, out);
    err << "unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const UsageError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace coc
