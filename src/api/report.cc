#include "api/report.h"

#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/table.h"

namespace coc {
namespace {

// Non-finite doubles go through JsonWriter::Number: null plus an explicit
// "<key>_nonfinite" sentinel, so a saturated +inf is distinguishable from a
// missing measurement (schema v2; v1 emitted a bare null).

void WriteModel(JsonWriter& w, const ModelAnalysisResult& a) {
  w.Key("model").BeginObject().Number("rate", a.rate);
  w.Key("saturated").Bool(a.result.saturated);
  w.Number("mean_latency_us", a.result.mean_latency);
  w.Number("saturation_rate", a.saturation_rate);
  if (!a.note.empty()) w.Key("note").String(a.note);
  w.Key("clusters").BeginArray();
  // A run of equal clusters evaluates to bit-equal rows (compiled_model.h),
  // and a row whose doubles are bit-equal to the last one's prints its
  // bytes, so those are copied instead of formatted again.
  std::array<double, 6> last{};
  std::size_t begin = 0, end = 0;  // the last formatted row in w.text()
  for (const ClusterLatency& cl : a.result.clusters) {
    const std::array<double, 6> row{cl.u,          cl.intra.l_in,
                                    cl.intra.w_in, cl.inter.l_out,
                                    cl.inter.w_d,  cl.blended};
    if (end != 0 && std::memcmp(&row, &last, sizeof row) == 0) {
      w.Repeat(begin, end);
      continue;
    }
    last = row;
    begin = w.BeginObject().text().size() - 1;  // at its '{'
    w.Number("u", row[0]).Number("l_in", row[1]).Number("w_in", row[2]);
    w.Number("l_out", row[3]).Number("w_d", row[4]).Number("blended", row[5]);
    end = w.EndObject().text().size();
  }
  w.EndArray().EndObject();
}

void WriteBottleneck(JsonWriter& w, const BottleneckAnalysisResult& a) {
  w.Key("bottleneck").BeginObject().Number("rate", a.rate);
  w.Number("condis_rho", a.report.condis_rho);
  w.Number("inter_source_rho", a.report.inter_source_rho);
  w.Number("intra_source_rho", a.report.intra_source_rho);
  if (a.destination_skewed) w.Number("hot_eject_rho", a.report.hot_eject_rho);
  w.Key("binding").String(a.report.binding);
  w.Number("saturation_rate", a.saturation_rate);
  if (!a.note.empty()) w.Key("note").String(a.note);
  w.EndObject();
}

void WriteSweep(JsonWriter& w, const SweepAnalysisResult& a) {
  w.Key("sweep").BeginObject().Key("points").BeginArray();
  for (const SweepPoint& p : a.points) {
    w.BeginObject().Number("lambda_g", p.lambda_g);
    w.Number("model_latency_us", p.model_latency);
    w.Key("model_saturated").Bool(p.model_saturated);
    if (p.sim_latency) {
      w.Number("sim_latency_us", *p.sim_latency);
      w.Number("sim_ci95", p.sim_ci95).Number("sim_intra_us", p.sim_intra);
      w.Number("sim_inter_us", p.sim_inter);
      w.Number("sim_icn2_max_util", p.sim_icn2_max_util);
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
}

void WriteSim(JsonWriter& w, const SimAnalysisResult& a) {
  w.Key("sim").BeginObject().Number("rate", a.rate);
  w.Key("seed").Uint(a.seed).Key("delivered").Int(a.delivered);
  w.Number("duration_us", a.duration);
  w.Key("latency_us").BeginObject().Number("mean", a.mean);
  w.Number("ci95", a.ci95).Number("min", a.min).Number("max", a.max);
  w.EndObject();
  w.Key("intra").BeginObject().Number("mean_us", a.intra_mean);
  w.Key("messages").Int(a.intra_count).EndObject();
  w.Key("inter").BeginObject().Number("mean_us", a.inter_mean);
  w.Key("messages").Int(a.inter_count).EndObject();
  const auto net = [&w](const char* name, double mean, double max) {
    w.Key(name).BeginObject().Number("mean", mean).Number("max", max);
    w.EndObject();
  };
  w.Key("utilization").BeginObject();
  net("icn1", a.icn1_mean, a.icn1_max);
  net("ecn1", a.ecn1_mean, a.ecn1_max);
  net("icn2", a.icn2_mean, a.icn2_max);
  w.EndObject().EndObject();
}

void WriteReport(JsonWriter& w, const Report& r) {
  w.BeginObject().Key("schema_version").Int(kReportSchemaVersion);
  w.Key("scenario").String(r.scenario);
  w.Key("status").BeginObject();
  w.Key("code").String(StatusCodeName(r.status.code));
  w.Key("ok").Bool(r.status.ok());
  if (!r.status.message.empty()) w.Key("message").String(r.status.message);
  w.EndObject();
  w.Key("system").BeginObject().Key("spec").String(r.system_spec);
  w.Key("clusters").Int(r.clusters).Key("nodes").Int(r.nodes);
  w.Key("m").Int(r.m).Key("icn2_topology").String(r.icn2_topology);
  w.Key("icn2_exact_fit").Bool(r.icn2_exact_fit);
  w.Key("message_flits").Int(r.message_flits);
  w.Number("flit_bytes", r.flit_bytes).EndObject();
  w.Key("workload").String(r.workload);
  if (r.model) WriteModel(w, *r.model);
  if (r.bottleneck) WriteBottleneck(w, *r.bottleneck);
  if (r.saturation_rate) {
    w.Key("saturation").BeginObject().Number("rate", *r.saturation_rate);
    w.EndObject();
  }
  if (r.sweep) WriteSweep(w, *r.sweep);
  if (r.sim) WriteSim(w, *r.sim);
  w.EndObject();
}

}  // namespace

std::string Report::ToJsonText() const {
  JsonWriter w;
  WriteReport(w, *this);
  return w.Take();
}

Json Report::ToJson() const { return Json::Parse(ToJsonText()); }

Json BatchToJson(const std::vector<Report>& reports) {
  JsonWriter w;
  w.BeginObject().Key("schema_version").Int(kReportSchemaVersion);
  w.Key("reports").BeginArray();
  for (const Report& r : reports) WriteReport(w, r);
  w.EndArray().EndObject();
  return Json::Parse(w.text());
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
