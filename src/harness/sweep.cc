#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>

#include "common/ascii_plot.h"
#include "common/parallel_for.h"
#include "common/table.h"

namespace coc {

std::vector<double> LinearRates(double max, int count) {
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(count));
  for (int i = 1; i <= count; ++i) {
    rates.push_back(max * static_cast<double>(i) / count);
  }
  return rates;
}

std::vector<SweepPoint> RunSweepParallel(const SystemConfig& sys,
                                         const SweepSpec& spec, int threads) {
  // The first point's probe runs before the compile it would wait on.
  spec.deadline.Check("sweep", "0 of " + std::to_string(spec.rates.size()) +
                                   " points completed");
  return RunSweepParallel(
      CompiledModel(sys, spec.workload, spec.model_opts, &spec.deadline), spec,
      threads);
}

std::vector<SweepPoint> RunSweepParallel(const CompiledModel& model,
                                         const SweepSpec& spec, int threads) {
  std::vector<ModelResult> model_results;
  model.EvaluateMany(spec.rates, model_results, &spec.deadline);
  std::optional<CocSystemSim> sim;
  if (spec.run_sim) sim.emplace(model.system());

  std::vector<SweepPoint> points(spec.rates.size());
  for (std::size_t i = 0; i < spec.rates.size(); ++i) {
    points[i].lambda_g = spec.rates[i];
    points[i].model_latency = model_results[i].mean_latency;
    points[i].model_saturated = model_results[i].saturated;
  }

  // The lowest-index point observed past sim_abort_latency; later points
  // skip their simulation.
  std::atomic<std::size_t> abort_after{points.size()};
  // A point may throw (sim budgets, deadlines); capture per point and
  // rethrow the lowest-index error after the loop, so the surfaced failure
  // does not depend on worker scheduling.
  std::vector<std::exception_ptr> errors(points.size());
  ParallelFor<SimScratch>(
      points.size(), sim ? threads : 1,
      [&](std::size_t i, SimScratch& scratch) {
        SweepPoint& p = points[i];
        try {
          spec.deadline.Check("sweep", std::to_string(i) + " of " +
                                           std::to_string(points.size()) +
                                           " points completed");
          if (!sim || i > abort_after.load()) return true;
          SimConfig cfg = spec.sim_base;
          cfg.lambda_g = p.lambda_g;
          cfg.workload = spec.workload;
          const SimResult sr = sim->Run(cfg, scratch);
          p.sim_latency = sr.latency.Mean();
          p.sim_ci95 = sr.latency.HalfWidth95();
          p.sim_intra = sr.intra_latency.Mean();
          p.sim_inter = sr.inter_latency.Mean();
          p.sim_icn2_max_util = sr.icn2_util.Max(sr.duration);
        } catch (...) {
          errors[i] = std::current_exception();
          return false;
        }
        if (spec.sim_abort_latency > 0 &&
            *p.sim_latency > spec.sim_abort_latency) {
          std::size_t cur = abort_after.load();
          while (i < cur && !abort_after.compare_exchange_weak(cur, i)) {
          }
        }
        return true;
      });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  // With several workers a point after the cut-off may already have run:
  // drop its result so the output matches the one-worker semantics.
  for (std::size_t i = abort_after.load() + 1; i < points.size(); ++i) {
    points[i].sim_latency.reset();
    points[i].sim_ci95 = points[i].sim_intra = points[i].sim_inter = 0;
    points[i].sim_icn2_max_util = 0;
  }
  return points;
}

std::string FormatSweepTable(const std::string& label,
                             const std::vector<SweepPoint>& points) {
  Table t({"lambda_g", "analysis", "simulation", "sim_ci95", "sim_intra",
           "sim_inter", "err_%"});
  for (const auto& p : points) {
    std::string sim = "-", ci = "-", intra = "-", inter = "-", err = "-";
    if (p.sim_latency) {
      sim = FormatDouble(*p.sim_latency, 1);
      ci = FormatDouble(p.sim_ci95, 1);
      intra = FormatDouble(p.sim_intra, 1);
      inter = FormatDouble(p.sim_inter, 1);
      if (std::isfinite(p.model_latency) && *p.sim_latency > 0) {
        err = FormatDouble(
            100.0 * (p.model_latency - *p.sim_latency) / *p.sim_latency, 1);
      }
    }
    t.AddRow({FormatSci(p.lambda_g), FormatDouble(p.model_latency, 1), sim, ci,
              intra, inter, err});
  }
  std::ostringstream out;
  out << label << '\n' << t.ToString();
  return out.str();
}

std::string FormatSweepPlot(const std::string& title,
                            const std::vector<SweepPoint>& points) {
  // Cap the y-range the way the paper's axes do: saturated simulation
  // points (orders of magnitude above the steady-state region) would
  // otherwise squash the informative part of the curve.
  double max_model = 0;
  for (const auto& p : points) {
    if (std::isfinite(p.model_latency)) {
      max_model = std::max(max_model, p.model_latency);
    }
  }
  const double cap = 4.0 * max_model;
  PlotSeries analysis{"analysis (model)", '*', {}};
  PlotSeries simulation{"simulation (points above 4x max analysis omitted)",
                        'o', {}};
  for (const auto& p : points) {
    analysis.points.emplace_back(p.lambda_g, p.model_latency);
    if (p.sim_latency && (cap <= 0 || *p.sim_latency <= cap)) {
      simulation.points.emplace_back(p.lambda_g, *p.sim_latency);
    }
  }
  return RenderAsciiPlot({analysis, simulation}, 72, 18, title);
}

std::string FormatSweepCsv(const std::vector<SweepPoint>& points) {
  Table t({"lambda_g", "analysis", "simulation", "sim_ci95", "sim_intra",
           "sim_inter"});
  for (const auto& p : points) {
    t.AddRow({FormatSci(p.lambda_g, 6), FormatDouble(p.model_latency, 4),
              p.sim_latency ? FormatDouble(*p.sim_latency, 4) : "",
              p.sim_latency ? FormatDouble(p.sim_ci95, 4) : "",
              p.sim_latency ? FormatDouble(p.sim_intra, 4) : "",
              p.sim_latency ? FormatDouble(p.sim_inter, 4) : ""});
  }
  return t.ToCsv();
}

std::string MaybeWriteCsv(const std::string& name, const std::string& csv) {
  const char* dir = std::getenv("COC_CSV_DIR");
  if (dir == nullptr || dir[0] == '\0') return "";
  const std::string path = std::string(dir) + "/" + name + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    // The caller opted in via $COC_CSV_DIR, so a silent empty return would
    // hide a lost artifact; say why the write failed and keep going.
    std::fprintf(stderr, "warning: cannot write %s: %s (COC_CSV_DIR=%s)\n",
                 path.c_str(), std::strerror(errno), dir);
    return "";
  }
  const std::size_t written = std::fwrite(csv.data(), 1, csv.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != csv.size() || !flushed) {
    // Same contract for short writes / failed flushes (e.g. ENOSPC): warn
    // and report the artifact as not written.
    std::fprintf(stderr, "warning: cannot write %s: %s (COC_CSV_DIR=%s)\n",
                 path.c_str(), std::strerror(errno), dir);
    return "";
  }
  return path;
}

SimConfig DefaultSimBudget(double lambda_g) {
  const char* full = std::getenv("COC_FULL");
  if (full != nullptr && full[0] == '1') {
    return SimConfig::PaperProtocol(lambda_g);
  }
  SimConfig cfg;
  cfg.lambda_g = lambda_g;
  cfg.warmup_messages = 2000;
  cfg.measured_messages = 20000;
  cfg.drain_messages = 2000;
  return cfg;
}

}  // namespace coc
