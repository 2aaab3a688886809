#include "replay.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "common.h"
#include "common/json.h"
#include "harness/sweep.h"
#include "load.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"

namespace servebench {
namespace {

/// Measured lines replayed per workload: enough for >1024 distinct keys on
/// dial_walk (so the result cache evicts) and a few seconds of simulation
/// on sim_serve.
std::uint64_t ReplayLines(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kHotMix: return 20000;
    case WorkloadKind::kDialWalk: return 2000;
    case WorkloadKind::kSimServe: return 32;
  }
  return 0;
}
constexpr int kRounds = 4;  ///< traced/plain replay pairs (even)
constexpr std::size_t kDirectInputs = 32;  ///< miss inputs timed directly
constexpr std::size_t kSweepInputs = 8;
constexpr std::size_t kSpanLinesWritten = 4096;

/// The layer spans of one HandleLine, in call order. kEvaluate and
/// kToJson run inside kLookup's miss path; every other span is a direct
/// child of kLine.
enum Layer : std::uint8_t {
  kLine,
  kJsonParse,
  kScenarioParse,
  kSerialize,
  kLookup,
  kEvaluate,
  kToJson,
  kAssemble,
  kDump,
  kLayers
};
constexpr const char* kLayerNames[kLayers] = {
    "protocol.handle_line", "json.parse",    "scenario.parse",
    "scenario.serialize",   "result_cache.lookup", "engine.evaluate",
    "report.to_json",       "protocol.assemble",   "json.dump"};

struct Span {
  std::uint32_t line = 0;
  Layer layer = kLine;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

std::int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// RequestHandler::HandleLine's evaluate/batch path re-expressed through the
/// same public calls, with a span around each. A fresh instance starts from
/// the same empty Engine and result cache as a fresh RequestHandler.
class TracedHandler {
 public:
  TracedHandler()
      : engine_(coc::ServerOptions{}.engine), cache_(kCacheEntries) {}

  /// Handles one line; appends its spans when `spans` is non-null.
  std::string Handle(const std::string& line, std::uint32_t id,
                     std::vector<Span>* spans) {
    const auto epoch = epoch_;
    const auto span = [&](Layer layer, Clock::time_point t0) {
      const auto t1 = Clock::now();
      if (spans != nullptr) {
        spans->push_back(Span{id, layer, Nanos(t0 - epoch), Nanos(t1 - t0)});
      }
      return t1;
    };
    const auto t_line = Clock::now();
    auto t = t_line;
    std::string out;
    {
      coc::Json response;
      try {
        {
          const coc::Json request = coc::Json::Parse(line);
          t = span(kJsonParse, t);
          const bool envelope = request.Find("op")->AsString() == "batch";
          const coc::Json* text =
              request.Find(envelope ? "scenarios" : "scenario");
          const std::vector<coc::Scenario> scenarios =
              coc::ParseScenarios(text->AsString());
          t = span(kScenarioParse, t);
          coc::Engine::BatchOptions opts;
          opts.threads = 1;
          std::vector<coc::Json> rendered;
          rendered.reserve(scenarios.size());
          for (std::uint32_t pos = 0; pos < scenarios.size(); ++pos) {
            const coc::Scenario& scenario = scenarios[pos];
            const std::string key = scenario.Serialize();
            t = span(kSerialize, t);
            coc::Json report;
            bool hit = false;
            bool computed_here = false;
            {
              const coc::ResultCache::Lookup lookup = cache_.GetOrCompute(
                  key, [&]() -> coc::ResultCache::Computed {
                    auto te = Clock::now();
                    const std::vector<coc::Report> reports =
                        engine_.EvaluateBatch({scenario}, opts);
                    te = span(kEvaluate, te);
                    coc::ResultCache::Computed computed;
                    computed.report = reports.front().ToJson();
                    computed.cacheable = reports.front().status.ok();
                    span(kToJson, te);
                    computed_here = true;
                    return computed;
                  });
              report = std::move(lookup.report);  // a copy, as in HandleLine
              hit = lookup.hit;
            }
            t = span(kLookup, t);
            report.Set("cache", hit ? "hit" : "miss");
            rendered.push_back(std::move(report));
            t = span(kAssemble, t);
            if (computed_here) misses.emplace_back(id, pos);
          }
          coc::Json server = coc::Json::Object();
          server.Set("elapsed_ms", Micros(Clock::now() - t_line) / 1000.0);
          if (!envelope) {
            response = std::move(rendered.front());
          } else {
            coc::Json reports = coc::Json::Array();
            for (coc::Json& r : rendered) reports.Push(std::move(r));
            response = coc::Json::Object();
            response.Set("schema_version", coc::kReportSchemaVersion);
            response.Set("reports", std::move(reports));
          }
          response.Set("server", std::move(server));
        }  // the request and scenario trees are freed here, as in HandleLine
        t = span(kAssemble, t);
      } catch (const std::exception& e) {
        response = coc::JsonStatusMessage(coc::ErrorCodeOf(e), e.what());
        t = Clock::now();
      }
      out = coc::JsonLine(response);
    }  // the response tree is freed inside the dump span, as in HandleLine
    span(kDump, t);
    span(kLine, t_line);
    return out;
  }

  coc::Engine& engine() { return engine_; }
  coc::ResultCache& cache() { return cache_; }

  /// (line, section) of every scenario whose compute ran.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> misses;

 private:
  coc::Engine engine_;
  coc::ResultCache cache_;
  const Clock::time_point epoch_ = Clock::now();
};

/// Direct timings of the layers below the Engine on the replay's miss
/// inputs, each call timed on its own.
struct Direct {
  std::vector<double> resolve, compile, rebind, rebind_base, saturation,
      evaluate, bottleneck, sweep, sim_build, sim_run;
  double sim_messages = 0, sim_seconds = 0;
};

double TimeUs(const auto& fn) {
  const auto t0 = Clock::now();
  fn();
  return Micros(Clock::now() - t0);
}

Direct TimeLayersDirectly(
    const std::vector<std::string>& lines,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& misses,
    WorkloadKind kind) {
  Direct d;
  // Evenly spaced miss inputs across the replay.
  std::vector<coc::Scenario> inputs;
  const std::size_t stride =
      std::max<std::size_t>(1, misses.size() / kDirectInputs);
  for (std::size_t i = 0; i < misses.size() && inputs.size() < kDirectInputs;
       i += stride) {
    const auto [line, pos] = misses[i];
    const coc::Json request = coc::Json::Parse(lines[line]);
    const bool batch = request.Find("op")->AsString() == "batch";
    inputs.push_back(coc::ParseScenarios(
        request.Find(batch ? "scenarios" : "scenario")->AsString())[pos]);
  }
  // The previous compiled model of each (system, ICN2 override, options)
  // family: the rebind source, as in the Engine.
  std::vector<std::pair<std::string, std::shared_ptr<const coc::CompiledModel>>>
      families;
  const std::size_t sim_inputs = kind == WorkloadKind::kSimServe ? 8 : 2;
  coc::SimScratch scratch;
  std::size_t sims = 0, sweeps = 0;
  for (const coc::Scenario& s : inputs) {
    std::optional<coc::Experiment> exp;
    d.resolve.push_back(TimeUs([&] {
      exp = coc::LoadExperiment(s.system);
      if (s.icn2_override) {
        exp->system = exp->system.WithIcn2Topology(*s.icn2_override);
      }
    }));
    const coc::SystemConfig& sys = exp->system;
    const coc::Workload workload = s.workload.ApplyTo(exp->workload, sys);
    std::shared_ptr<const coc::CompiledModel> model;
    d.compile.push_back(TimeUs([&] {
      model = std::make_shared<const coc::CompiledModel>(sys, workload,
                                                         s.model);
    }));
    const std::string family =
        s.system + "|" +
        (s.icn2_override ? s.icn2_override->ToString() : std::string());
    auto fam = std::find_if(families.begin(), families.end(),
                            [&](const auto& f) {
                              return f.first == family &&
                                     f.second->options() == s.model;
                            });
    if (fam != families.end()) {
      // Interleaved: cold compile and rebind of the same target alternate,
      // so drift on a shared machine hits both sides alike.
      for (int rep = 0; rep < 3; ++rep) {
        d.rebind_base.push_back(TimeUs([&] {
          const coc::CompiledModel cold(sys, workload, s.model);
        }));
        d.rebind.push_back(TimeUs([&] {
          const coc::CompiledModel warm = fam->second->Rebind(workload);
        }));
      }
      fam->second = model;
    } else {
      families.emplace_back(family, model);
    }
    double sat = 0;
    d.saturation.push_back(TimeUs([&] { sat = model->SaturationRate(1.0); }));
    const double rate =
        s.rate > 0 ? s.rate
                    : (std::isfinite(sat) && sat > 0 ? 0.3 * sat : 1e-4);
    d.evaluate.push_back(TimeUs([&] { (void)model->Evaluate(rate); }));
    d.bottleneck.push_back(TimeUs([&] { (void)model->Bottleneck(rate); }));
    if (sweeps < kSweepInputs) {
      ++sweeps;
      coc::SweepSpec spec;
      const bool sweep = s.Has(coc::Analysis::kSweep);
      const double max_rate =
          sweep ? *s.sweep_max_rate
                : (std::isfinite(sat) && sat > 0 ? 0.9 * sat : 2 * rate);
      spec.rates = coc::LinearRates(max_rate, sweep ? s.sweep_points : 16);
      spec.run_sim = sweep && s.sweep_sim;
      spec.sim_base = coc::DefaultSimBudget(1e-4);
      spec.model_opts = s.model;
      spec.workload = workload;
      spec.sim_abort_latency = s.sim_abort_latency;
      d.sweep.push_back(
          TimeUs([&] { (void)coc::RunSweepParallel(sys, spec, 1); }));
    }
    if (sims < sim_inputs &&
        (kind != WorkloadKind::kSimServe || s.Has(coc::Analysis::kSim))) {
      ++sims;
      std::optional<coc::CocSystemSim> sim;
      d.sim_build.push_back(TimeUs([&] { sim.emplace(sys); }));
      coc::SimConfig cfg = coc::DefaultSimBudget(rate);
      cfg.seed = s.sim_seed;
      cfg.measured_messages = s.sim_messages.value_or(2000);
      cfg.warmup_messages = cfg.measured_messages / 10;
      cfg.drain_messages = cfg.measured_messages / 10;
      cfg.condis_mode = s.condis;
      cfg.workload = workload;
      std::int64_t delivered = 0;
      const double us =
          TimeUs([&] { delivered = sim->Run(cfg, scratch).delivered; });
      d.sim_run.push_back(us);
      d.sim_messages += static_cast<double>(delivered);
      d.sim_seconds += us * 1e-6;
    }
  }
  return d;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                std::uint32_t first_line) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans) {
    if (s.line >= first_line + kSpanLinesWritten) break;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"line\":%u}}",
                  first ? "" : ",\n", kLayerNames[s.layer],
                  static_cast<double>(s.start_ns) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0, s.line);
    out << buf;
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace

TraceResult RunTrace(const Generator& gen, const std::string& spans_path) {
  TraceResult result;
  const std::vector<std::string>& warm = gen.warmup();
  std::vector<std::string> lines = warm;
  const std::uint64_t n = ReplayLines(gen.kind());
  for (std::uint64_t k = 0; k < n; ++k) lines.push_back(gen.Measured(k).line);
  const auto first = static_cast<std::uint32_t>(warm.size());
  std::uint64_t result_mismatches = 0;

  // Each round replays every line through a fresh plain RequestHandler and
  // a fresh TracedHandler in lockstep, so both see the same cache/Engine
  // state sequence and the same machine noise. The handler that goes second
  // on a line runs with warmer CPU caches, so each line goes traced-first
  // in one round and plain-first in the other, and the totals add both
  // rounds up.
  double plain_total = 0, traced_total = 0;
  double self_us[kLayers] = {};
  std::vector<double> plain_line_us;
  std::vector<Digest> plain_digests;
  std::vector<Span> spans;
  std::unique_ptr<TracedHandler> traced;
  ServerCounters after_warmup;
  for (int round = 0; round < kRounds; ++round) {
    coc::RequestHandler plain(coc::ServerOptions{}.engine, kCacheEntries,
                              coc::FaultInjector{});
    traced = std::make_unique<TracedHandler>();
    spans.clear();
    spans.reserve(lines.size() * 12);
    plain_digests.clear();
    for (std::uint32_t i = 0; i < lines.size(); ++i) {
      if (i == first) {
        after_warmup = CountersOf(traced->cache(), traced->engine());
      }
      const bool measured = i >= first;
      std::string p_out, t_out;
      double p_us = 0;
      const auto run_plain = [&] {
        const auto t0 = Clock::now();
        p_out = plain.HandleLine(lines[i]);
        p_us = Micros(Clock::now() - t0);
      };
      const auto run_traced = [&] {
        t_out = traced->Handle(lines[i], i, measured ? &spans : nullptr);
      };
      if ((i + round) % 2 == 0) {
        run_plain();
        run_traced();
      } else {
        run_traced();
        run_plain();
      }
      if (!measured) continue;
      plain_line_us.push_back(p_us);
      plain_total += p_us;
      traced_total += static_cast<double>(spans.back().dur_ns) / 1e3;
      p_out.pop_back();
      t_out.pop_back();
      plain_digests.push_back(DigestOf(StripServedFields(p_out)));
      if (DigestOf(StripServedFields(t_out)) != plain_digests.back()) {
        ++result_mismatches;
      }
    }
    for (const Span& s : spans) {
      self_us[s.layer] += static_cast<double>(s.dur_ns) / 1e3;
    }
  }
  const ServerCounters end = CountersOf(traced->cache(), traced->engine());

  // Self time per layer, per measured line.
  self_us[kLookup] -= self_us[kEvaluate] + self_us[kToJson];
  double span_sum = 0;
  for (int l = kJsonParse; l < kLayers; ++l) span_sum += self_us[l];
  const double per_line = 1.0 / static_cast<double>(n * kRounds);
  const double coverage = span_sum / plain_total;
  const double overhead_pct =
      100.0 * (traced_total - plain_total) / plain_total;

  double response_bytes = 0;
  for (const Digest& dg : plain_digests) {
    response_bytes += static_cast<double>(dg.size);
  }
  response_bytes /= static_cast<double>(n);
  const ServerCounters& w = after_warmup;
  const std::uint64_t hits = end.cache_hits - w.cache_hits;
  const std::uint64_t misses = end.cache_misses - w.cache_misses;
  const std::uint64_t evictions = end.cache_evictions - w.cache_evictions;
  const std::uint64_t rebinds = end.model_rebinds - w.model_rebinds;
  const std::uint64_t model_evictions =
      end.model_evictions - w.model_evictions;
  const std::uint64_t cold = end.cold_compiles() - w.cold_compiles();

  const Direct d = TimeLayersDirectly(lines, traced->misses, gen.kind());
  const double rebind_speedup =
      d.rebind.empty() ? 0 : Median(d.rebind_base) / Median(d.rebind);
  const double hit_ratio =
      hits + misses == 0 ? 0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  const auto per = [&](Layer l) { return self_us[l] * per_line; };
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  result.metrics = {
      {"protocol.handle_line_us", Median(plain_line_us), "us"},
      {"protocol.assemble_us", per(kAssemble), "us"},
      {"json.parse_us", per(kJsonParse), "us"},
      {"json.dump_us", per(kDump), "us"},
      {"json.response_bytes", response_bytes, "bytes"},
      {"scenario.parse_us", per(kScenarioParse), "us"},
      {"scenario.serialize_us", per(kSerialize), "us"},
      {"result_cache.hit_ratio", hit_ratio, "ratio"},
      {"result_cache.lookup_us", per(kLookup), "us"},
      {"result_cache.evictions", count(evictions), "count"},
      {"engine.evaluate_us", per(kEvaluate), "us"},
      {"engine.model_rebinds", count(rebinds), "count"},
      {"engine.model_cold_compiles", count(cold), "count"},
      {"engine.model_evictions", count(model_evictions), "count"},
      {"report.to_json_us", per(kToJson), "us"},
      {"model.compile_us", Median(d.compile), "us"},
      {"model.rebind_us", Median(d.rebind), "us"},
      {"model.rebind_speedup", rebind_speedup, "ratio"},
      {"model.saturation_us", Median(d.saturation), "us"},
      {"model.evaluate_us", Median(d.evaluate), "us"},
      {"model.bottleneck_us", Median(d.bottleneck), "us"},
      {"harness.sweep_us", Median(d.sweep), "us"},
      {"sim.build_us", Median(d.sim_build), "us"},
      {"sim.run_us", Median(d.sim_run), "us"},
      {"sim.msgs_per_s",
       d.sim_seconds > 0 ? d.sim_messages / d.sim_seconds : 0, "1/s"},
      {"system.resolve_us", Median(d.resolve), "us"},
      {"trace.coverage", coverage, "ratio"},
      {"trace.overhead_pct", overhead_pct, "%"},
  };

  auto& warn = result.trace_warnings;
  if (result_mismatches != 0) {
    warn.push_back("traced replay responses differ from HandleLine's");
  }
  if (std::fabs(coverage - 1.0) > 0.05) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "trace.coverage %.4f not within 5%% of 1",
                  coverage);
    warn.push_back(buf);
  }

  // Workload shape checks.
  auto& fail = result.shape_failures;
  switch (gen.kind()) {
    case WorkloadKind::kHotMix:
      if (misses != 0) fail.push_back("hot_mix: a measured line missed");
      for (const auto& s : gen.scenarios()) {
        const std::string key = coc::ParseScenario(s.canonical).Serialize();
        for (const std::string& alt : s.alternates) {
          if (coc::ParseScenario(alt).Serialize() != key) {
            fail.push_back("hot_mix: an alternate spelling changes the key");
          }
        }
      }
      break;
    case WorkloadKind::kDialWalk:
      if (hits != 0) fail.push_back("dial_walk: a measured line hit");
      if (evictions == 0) fail.push_back("dial_walk: no result-cache eviction");
      if (rebinds == 0) fail.push_back("dial_walk: no model rebind");
      if (cold == 0) fail.push_back("dial_walk: no cold model compile");
      break;
    case WorkloadKind::kSimServe:
      if (end.models + end.model_evictions != 0) {
        fail.push_back("sim_serve: the Engine compiled a model");
      }
      break;
  }
  if (!spans_path.empty()) WriteSpans(spans_path, spans, first);
  return result;
}

}  // namespace servebench
