#include "api/report.h"

#include <cmath>
#include <limits>

#include "common/table.h"

namespace coc {
namespace {

// Non-finite doubles go through JsonSetNumber: null plus an explicit
// "<key>_nonfinite" sentinel, so a saturated +inf is distinguishable from a
// missing measurement (schema v2; v1 emitted a bare null).

Json ModelToJson(const ModelAnalysisResult& a) {
  Json j = Json::Object();
  JsonSetNumber(j, "rate", a.rate);
  j.Set("saturated", a.result.saturated);
  JsonSetNumber(j, "mean_latency_us", a.result.mean_latency);
  JsonSetNumber(j, "saturation_rate", a.saturation_rate);
  if (!a.note.empty()) j.Set("note", a.note);
  Json clusters = Json::Array();
  for (const ClusterLatency& cl : a.result.clusters) {
    Json c = Json::Object();
    JsonSetNumber(c, "u", cl.u);
    JsonSetNumber(c, "l_in", cl.intra.l_in);
    JsonSetNumber(c, "w_in", cl.intra.w_in);
    JsonSetNumber(c, "l_out", cl.inter.l_out);
    JsonSetNumber(c, "w_d", cl.inter.w_d);
    JsonSetNumber(c, "blended", cl.blended);
    clusters.Push(std::move(c));
  }
  j.Set("clusters", std::move(clusters));
  return j;
}

Json BottleneckToJson(const BottleneckAnalysisResult& a) {
  Json j = Json::Object();
  JsonSetNumber(j, "rate", a.rate);
  JsonSetNumber(j, "condis_rho", a.report.condis_rho);
  JsonSetNumber(j, "inter_source_rho", a.report.inter_source_rho);
  JsonSetNumber(j, "intra_source_rho", a.report.intra_source_rho);
  if (a.destination_skewed) {
    JsonSetNumber(j, "hot_eject_rho", a.report.hot_eject_rho);
  }
  j.Set("binding", a.report.binding);
  JsonSetNumber(j, "saturation_rate", a.saturation_rate);
  if (!a.note.empty()) j.Set("note", a.note);
  return j;
}

Json SweepPointToJson(const SweepPoint& p) {
  Json j = Json::Object();
  JsonSetNumber(j, "lambda_g", p.lambda_g);
  JsonSetNumber(j, "model_latency_us", p.model_latency);
  j.Set("model_saturated", p.model_saturated);
  if (p.sim_latency) {
    JsonSetNumber(j, "sim_latency_us", *p.sim_latency);
    JsonSetNumber(j, "sim_ci95", p.sim_ci95);
    JsonSetNumber(j, "sim_intra_us", p.sim_intra);
    JsonSetNumber(j, "sim_inter_us", p.sim_inter);
    JsonSetNumber(j, "sim_icn2_max_util", p.sim_icn2_max_util);
  }
  return j;
}

Json SimToJson(const SimAnalysisResult& a) {
  Json j = Json::Object();
  JsonSetNumber(j, "rate", a.rate);
  j.Set("seed", a.seed);
  j.Set("delivered", a.delivered);
  JsonSetNumber(j, "duration_us", a.duration);
  Json latency = Json::Object();
  JsonSetNumber(latency, "mean", a.mean);
  JsonSetNumber(latency, "ci95", a.ci95);
  JsonSetNumber(latency, "min", a.min);
  JsonSetNumber(latency, "max", a.max);
  j.Set("latency_us", std::move(latency));
  Json intra = Json::Object();
  JsonSetNumber(intra, "mean_us", a.intra_mean);
  intra.Set("messages", a.intra_count);
  j.Set("intra", std::move(intra));
  Json inter = Json::Object();
  JsonSetNumber(inter, "mean_us", a.inter_mean);
  inter.Set("messages", a.inter_count);
  j.Set("inter", std::move(inter));
  Json util = Json::Object();
  const auto net = [](double mean, double max) {
    Json n = Json::Object();
    JsonSetNumber(n, "mean", mean);
    JsonSetNumber(n, "max", max);
    return n;
  };
  util.Set("icn1", net(a.icn1_mean, a.icn1_max));
  util.Set("ecn1", net(a.ecn1_mean, a.ecn1_max));
  util.Set("icn2", net(a.icn2_mean, a.icn2_max));
  j.Set("utilization", std::move(util));
  return j;
}

Json StatusToJson(const ReportStatus& s) {
  Json j = Json::Object();
  j.Set("code", StatusCodeName(s.code));
  j.Set("ok", s.ok());
  if (!s.message.empty()) j.Set("message", s.message);
  return j;
}

}  // namespace

Json Report::ToJson() const {
  Json j = Json::Object();
  j.Set("schema_version", kReportSchemaVersion);
  j.Set("scenario", scenario);
  j.Set("status", StatusToJson(status));
  Json system = Json::Object();
  system.Set("spec", system_spec);
  system.Set("clusters", clusters);
  system.Set("nodes", nodes);
  system.Set("m", m);
  system.Set("icn2_topology", icn2_topology);
  system.Set("icn2_exact_fit", icn2_exact_fit);
  system.Set("message_flits", message_flits);
  JsonSetNumber(system, "flit_bytes", flit_bytes);
  j.Set("system", std::move(system));
  j.Set("workload", workload);
  if (model) j.Set("model", ModelToJson(*model));
  if (bottleneck) j.Set("bottleneck", BottleneckToJson(*bottleneck));
  if (saturation_rate) {
    Json s = Json::Object();
    JsonSetNumber(s, "rate", *saturation_rate);
    j.Set("saturation", std::move(s));
  }
  if (sweep) {
    Json s = Json::Object();
    Json points = Json::Array();
    for (const SweepPoint& p : sweep->points) {
      points.Push(SweepPointToJson(p));
    }
    s.Set("points", std::move(points));
    j.Set("sweep", std::move(s));
  }
  if (sim) j.Set("sim", SimToJson(*sim));
  return j;
}

Json BatchToJson(const std::vector<Report>& reports) {
  Json j = Json::Object();
  j.Set("schema_version", kReportSchemaVersion);
  Json arr = Json::Array();
  for (const Report& r : reports) arr.Push(r.ToJson());
  j.Set("reports", std::move(arr));
  return j;
}

std::string ModelCsv(const ModelAnalysisResult& a) {
  Table t({"cluster", "u", "l_in", "w_in", "l_out", "w_d", "blended"});
  for (std::size_t i = 0; i < a.result.clusters.size(); ++i) {
    const ClusterLatency& cl = a.result.clusters[i];
    t.AddRow({std::to_string(i), JsonNumber(cl.u), JsonNumber(cl.intra.l_in),
              JsonNumber(cl.intra.w_in), JsonNumber(cl.inter.l_out),
              JsonNumber(cl.inter.w_d), JsonNumber(cl.blended)});
  }
  return t.ToCsv();
}

std::string BottleneckCsv(const BottleneckAnalysisResult& a) {
  Table t({"resource", "utilization"});
  t.AddRow({"concentrator/dispatcher", JsonNumber(a.report.condis_rho)});
  t.AddRow({"inter-cluster source queue",
            JsonNumber(a.report.inter_source_rho)});
  t.AddRow({"intra-cluster source queue",
            JsonNumber(a.report.intra_source_rho)});
  if (a.destination_skewed) {
    t.AddRow({"hot-node ejection link", JsonNumber(a.report.hot_eject_rho)});
  }
  return t.ToCsv();
}

std::string SimCsv(const SimAnalysisResult& a) {
  Table t({"rate", "seed", "delivered", "duration_us", "mean_us", "ci95",
           "min_us", "max_us", "intra_mean_us", "inter_mean_us",
           "icn2_max_util"});
  t.AddRow({JsonNumber(a.rate), std::to_string(a.seed),
            std::to_string(a.delivered), JsonNumber(a.duration),
            JsonNumber(a.mean), JsonNumber(a.ci95), JsonNumber(a.min),
            JsonNumber(a.max), JsonNumber(a.intra_mean),
            JsonNumber(a.inter_mean), JsonNumber(a.icn2_max)});
  return t.ToCsv();
}

std::string SweepCsv(const SweepAnalysisResult& a) {
  return FormatSweepCsv(a.points);
}

std::string BatchCsv(const std::vector<Report>& reports) {
  Table t({"scenario", "status", "workload",
           "model_mean_latency_us", "saturation_rate", "binding",
           "sweep_points", "sim_mean_us", "sim_delivered"});
  for (const Report& r : reports) {
    // The headline number of every analysis that ran; a blank cell means
    // that analysis was not requested (or the failure preempted it).
    double saturation = std::numeric_limits<double>::quiet_NaN();
    if (r.model) {
      saturation = r.model->saturation_rate;
    } else if (r.bottleneck) {
      saturation = r.bottleneck->saturation_rate;
    } else if (r.saturation_rate) {
      saturation = *r.saturation_rate;
    }
    t.AddRow({r.scenario, StatusCodeName(r.status.code), r.workload,
              r.model ? JsonNumber(r.model->result.mean_latency) : "",
              std::isnan(saturation) ? "" : JsonNumber(saturation),
              r.bottleneck ? r.bottleneck->report.binding : "",
              r.sweep ? std::to_string(r.sweep->points.size()) : "",
              r.sim ? JsonNumber(r.sim->mean) : "",
              r.sim ? std::to_string(r.sim->delivered) : ""});
  }
  return t.ToCsv();
}

}  // namespace coc
