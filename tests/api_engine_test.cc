// Engine facade tests: the golden JSON snapshot (schema-versioned, stable
// key order — any byte change here is a schema change and must bump
// kReportSchemaVersion or be additive), the pinned compact report bytes,
// batch determinism across thread counts, and the cross-call caches the
// facade exists for.
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "common/json.h"
#include "gtest/gtest.h"

namespace coc {
namespace {

// The exact scenarios behind the golden below; regenerate the golden with
//   coc_cli batch <this text> --threads 1 --format json
constexpr const char* kGoldenScenarios = R"cfg([scenario tiny]
system = preset:tiny:16:64
analyses = model,bottleneck,sweep
rate = 1e-4
sweep.max_rate = 1e-3
sweep.points = 3
sweep.sim = false

[scenario dragonfly]
system = preset:dragonfly:16:64
analyses = model,bottleneck,saturation
rate = 1e-4
workload.pattern = local
workload.locality = 0.9
)cfg";

constexpr const char* kGoldenJson = R"json({
  "schema_version": 3,
  "reports": [
    {
      "schema_version": 3,
      "scenario": "tiny",
      "status": {
        "code": "ok",
        "ok": true
      },
      "system": {
        "spec": "preset:tiny:16:64",
        "clusters": 4,
        "nodes": 32,
        "m": 4,
        "icn2_topology": "4-port 1-tree",
        "icn2_exact_fit": true,
        "message_flits": 16,
        "flit_bytes": 64
      },
      "workload": "uniform",
      "model": {
        "rate": 1e-04,
        "saturated": false,
        "mean_latency_us": 4.962604158902051,
        "saturation_rate": 0.06817626953125,
        "clusters": [
          {
            "u": 0.7741935483870968,
            "l_in": 2.853536086279237,
            "w_in": 6.197327273605172e-05,
            "l_out": 5.577749013417039,
            "w_d": 0.005689046500405447,
            "blended": 4.962604158902051
          },
          {
            "u": 0.7741935483870968,
            "l_in": 2.853536086279237,
            "w_in": 6.197327273605172e-05,
            "l_out": 5.577749013417039,
            "w_d": 0.005689046500405447,
            "blended": 4.962604158902051
          },
          {
            "u": 0.7741935483870968,
            "l_in": 2.853536086279237,
            "w_in": 6.197327273605172e-05,
            "l_out": 5.577749013417039,
            "w_d": 0.005689046500405447,
            "blended": 4.962604158902051
          },
          {
            "u": 0.7741935483870968,
            "l_in": 2.853536086279237,
            "w_in": 6.197327273605172e-05,
            "l_out": 5.577749013417039,
            "w_d": 0.005689046500405447,
            "blended": 4.962604158902051
          }
        ]
      },
      "bottleneck": {
        "rate": 1e-04,
        "condis_rho": 0.0014666322580645162,
        "inter_source_rho": 0.0003296017482061004,
        "intra_source_rho": 5.269780255175971e-05,
        "binding": "concentrator/dispatcher",
        "saturation_rate": 0.06817626953125
      },
      "sweep": {
        "points": [
          {
            "lambda_g": 0.0003333333333333333,
            "model_latency_us": 4.976716030015545,
            "model_saturated": false
          },
          {
            "lambda_g": 0.0006666666666666666,
            "model_latency_us": 4.9970155649356895,
            "model_saturated": false
          },
          {
            "lambda_g": 0.001,
            "model_latency_us": 5.017481532002339,
            "model_saturated": false
          }
        ]
      }
    },
    {
      "schema_version": 3,
      "scenario": "dragonfly",
      "status": {
        "code": "ok",
        "ok": true
      },
      "system": {
        "spec": "preset:dragonfly:16:64",
        "clusters": 4,
        "nodes": 48,
        "m": 4,
        "icn2_topology": "4-port 1-tree",
        "icn2_exact_fit": true,
        "message_flits": 16,
        "flit_bytes": 64
      },
      "workload": "local 90%",
      "model": {
        "rate": 1e-04,
        "saturated": false,
        "mean_latency_us": 3.257765253641925,
        "saturation_rate": 0.2158203125,
        "clusters": [
          {
            "u": 0.09999999999999998,
            "l_in": 2.8548370993064824,
            "w_in": 0.0002499521325158869,
            "l_out": 5.913586617986377,
            "w_d": 0.0011009490056694507,
            "blended": 3.160712051174472
          },
          {
            "u": 0.09999999999999998,
            "l_in": 2.8548370993064824,
            "w_in": 0.0002499521325158869,
            "l_out": 5.913586617986377,
            "w_d": 0.0011009490056694507,
            "blended": 3.160712051174472
          },
          {
            "u": 0.09999999999999998,
            "l_in": 3.0705108825674894,
            "w_in": 0.00025004473112904933,
            "l_out": 5.913586617986377,
            "w_d": 0.0011009490056694507,
            "blended": 3.354818456109378
          },
          {
            "u": 0.09999999999999998,
            "l_in": 3.0705108825674894,
            "w_in": 0.00025004473112904933,
            "l_out": 5.913586617986377,
            "w_d": 0.0011009490056694507,
            "blended": 3.354818456109378
          }
        ]
      },
      "bottleneck": {
        "rate": 1e-04,
        "condis_rho": 0.00028415999999999994,
        "inter_source_rho": 4.256394793576222e-05,
        "intra_source_rho": 0.0002112125663143634,
        "binding": "concentrator/dispatcher",
        "saturation_rate": 0.2158203125
      },
      "saturation": {
        "rate": 0.2158203125
      }
    }
  ]
}
)json";

// A schema v2 document, abridged to one report, whose status block carries
// the "degraded"/"degraded_note" pair v3 dropped (a v2 Engine set them when
// a compiled-model failure fell back to a reference implementation). v2
// documents live in downstream archives; this pins that they still parse.
constexpr const char* kGoldenJsonV2 = R"json({
  "schema_version": 2,
  "reports": [
    {
      "schema_version": 2,
      "scenario": "tiny",
      "status": {
        "code": "ok",
        "ok": true,
        "degraded": true,
        "degraded_note": "model analysis fell back to the reference LatencyModel"
      },
      "system": {
        "spec": "preset:tiny:16:64",
        "clusters": 4,
        "nodes": 32,
        "m": 4,
        "icn2_topology": "4-port 1-tree",
        "icn2_exact_fit": true,
        "message_flits": 16,
        "flit_bytes": 64
      },
      "workload": "uniform",
      "model": {
        "rate": 1e-04,
        "saturated": false,
        "mean_latency_us": 4.962604158902051,
        "saturation_rate": 0.06817626953125,
        "clusters": []
      }
    }
  ]
}
)json";

// A schema v1 document as PR 5 emitted it (no "status" block, bare nulls
// for non-finite), abridged to one cluster entry per report. v1 documents
// live in downstream archives; this pins that they still parse and their
// fields still read.
constexpr const char* kGoldenJsonV1 = R"json({
  "schema_version": 1,
  "reports": [
    {
      "schema_version": 1,
      "scenario": "tiny",
      "system": {
        "spec": "preset:tiny:16:64",
        "clusters": 4,
        "nodes": 32,
        "m": 4,
        "icn2_topology": "4-port 1-tree",
        "icn2_exact_fit": true,
        "message_flits": 16,
        "flit_bytes": 64
      },
      "workload": "uniform",
      "model": {
        "rate": 1e-04,
        "saturated": false,
        "mean_latency_us": 4.962604158902051,
        "saturation_rate": 0.06817626953125,
        "clusters": [
          {
            "u": 0.7741935483870968,
            "l_in": 2.853536086279237,
            "w_in": 6.197327273605172e-05,
            "l_out": 5.577749013417039,
            "w_d": 0.005689046500405447,
            "blended": 4.962604158902051
          }
        ]
      },
      "bottleneck": {
        "rate": 1e-04,
        "condis_rho": 0.0014666322580645162,
        "inter_source_rho": 0.0003296017482061004,
        "intra_source_rho": 5.269780255175971e-05,
        "binding": "concentrator/dispatcher",
        "saturation_rate": 0.06817626953125
      },
      "sweep": {
        "points": [
          {
            "lambda_g": 0.0003333333333333333,
            "model_latency_us": 4.976716030015545,
            "model_saturated": false
          },
          {
            "lambda_g": 0.001,
            "model_latency_us": 5.017481532002339,
            "model_saturated": false
          }
        ]
      }
    },
    {
      "schema_version": 1,
      "scenario": "dragonfly",
      "system": {
        "spec": "preset:dragonfly:16:64",
        "clusters": 4,
        "nodes": 48,
        "m": 4,
        "icn2_topology": "4-port 1-tree",
        "icn2_exact_fit": true,
        "message_flits": 16,
        "flit_bytes": 64
      },
      "workload": "local 90%",
      "model": {
        "rate": 1e-04,
        "saturated": false,
        "mean_latency_us": 3.257765253641925,
        "saturation_rate": 0.2158203125,
        "clusters": [
          {
            "u": 0.09999999999999998,
            "l_in": 2.8548370993064824,
            "w_in": 0.0002499521325158869,
            "l_out": 5.913586617986377,
            "w_d": 0.0011009490056694507,
            "blended": 3.160712051174472
          }
        ]
      },
      "bottleneck": {
        "rate": 1e-04,
        "condis_rho": 0.00028415999999999994,
        "inter_source_rho": 4.256394793576222e-05,
        "intra_source_rho": 0.0002112125663143634,
        "binding": "concentrator/dispatcher",
        "saturation_rate": 0.2158203125
      },
      "saturation": {
        "rate": 0.2158203125
      }
    }
  ]
}
)json";

// The compact bytes of one hand-built report per optional block, captured
// from the tree renderer that the streaming writer replaced. Every value
// that a spelling can go wrong on appears: -0, a denormal, 2^53 + 1, a
// seed above INT64_MAX, non-finite sentinels in the model, sweep and sim
// blocks, and a status message that needs escaping.
/// A report with every summary field set; each pinned case adds its block.
Report PinnedBase(const std::string& name) {
  Report r;
  r.scenario = name;
  r.system_spec = "preset:1120";
  r.clusters = 32;
  r.nodes = 1120;
  r.m = 8;
  r.icn2_topology = "tree:3";
  r.icn2_exact_fit = false;
  r.message_flits = 32;
  r.flit_bytes = 256;
  r.workload = "uniform, poisson arrivals";
  return r;
}

ClusterLatency PinnedCluster(double u, double l_in, double w_in, double l_out,
                             double w_d, double blended) {
  ClusterLatency c;
  c.u = u;
  c.intra.l_in = l_in;
  c.intra.w_in = w_in;
  c.inter.l_out = l_out;
  c.inter.w_d = w_d;
  c.blended = blended;
  return c;
}

SimAnalysisResult PinnedSim() {
  SimAnalysisResult s;
  s.rate = 1e-4;
  s.seed = 18446744073709551615ull;  // above INT64_MAX
  s.delivered = 9000;
  s.duration = 812345.125;
  s.mean = 33.25;
  s.ci95 = 0.0625;
  s.min = -0.0;
  s.max = 1e300;
  s.intra_mean = 20.5;
  s.intra_count = 4000;
  s.inter_mean = 41.75;
  s.inter_count = 5000;
  s.icn1_mean = 0.1;
  s.icn1_max = 0.2;
  s.ecn1_mean = 4.9406564584124654e-324;  // the smallest denormal
  s.ecn1_max = 0.3;
  s.icn2_mean = 1.0 / 3.0;
  s.icn2_max = 9007199254740993.0;  // 2^53 + 1 rounds to 2^53
  return s;
}

/// One report per optional block, and one with non-finite values in the
/// model, sweep and sim blocks.
std::vector<Report> PinnedReports() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Report> reports;

  Report model = PinnedBase("model");
  model.model.emplace();
  model.model->rate = 1e-4;
  model.model->result.mean_latency = 33.19123456789;
  model.model->saturation_rate = 5.1700000000000003e-4;
  model.model->note = "permutation traffic: \"approximate\"";
  model.model->result.clusters = {
      PinnedCluster(0.9375, 20.25, 0.5, 41.5, 1.25, 33.0),
      PinnedCluster(0.5, 1e21, 1e-7, 123456789.0, -0.0, 2.0)};
  reports.push_back(model);

  Report bottleneck = PinnedBase("bottleneck");
  bottleneck.bottleneck.emplace();
  bottleneck.bottleneck->rate = 4e-4;
  bottleneck.bottleneck->report.condis_rho = 0.7727;
  bottleneck.bottleneck->report.inter_source_rho = 0.25;
  bottleneck.bottleneck->report.intra_source_rho = 0.125;
  bottleneck.bottleneck->report.hot_eject_rho = 0.9;
  bottleneck.bottleneck->report.binding = "hot-node ejection link";
  bottleneck.bottleneck->destination_skewed = true;
  bottleneck.bottleneck->saturation_rate = 4.4e-4;
  bottleneck.bottleneck->note = "hot-spot traffic";
  reports.push_back(bottleneck);

  Report saturation = PinnedBase("saturation");
  saturation.saturation_rate = 5.17e-4;
  reports.push_back(saturation);

  Report sweep = PinnedBase("sweep");
  sweep.sweep.emplace();
  for (int i = 1; i <= 2; ++i) {
    SweepPoint p;
    p.lambda_g = 1e-4 * i;
    p.model_latency = 30.5 * i;
    sweep.sweep->points.push_back(p);
  }
  reports.push_back(sweep);

  Report sweep_sim = PinnedBase("sweep_sim");
  sweep_sim.sweep.emplace();
  SweepPoint p;
  p.lambda_g = 2e-4;
  p.model_latency = 36.75;
  p.sim_latency = 37.5;
  p.sim_ci95 = 0.5;
  p.sim_intra = 21.0;
  p.sim_inter = 44.0;
  p.sim_icn2_max_util = 0.625;
  sweep_sim.sweep->points.push_back(p);
  reports.push_back(sweep_sim);

  Report sim = PinnedBase("sim");
  sim.sim = PinnedSim();
  reports.push_back(sim);

  Report failed = PinnedBase("failed \"one\"");
  failed.status.code = StatusCode::kScenarioError;
  failed.status.message =
      "config line 3: 'rate' is not a number: \"fa\\st\"\n\tnext\x01 \xc2\xb5s";
  reports.push_back(failed);

  Report nonfinite = PinnedBase("nonfinite");
  nonfinite.flit_bytes = nan;
  nonfinite.status.code = StatusCode::kModelError;
  nonfinite.status.message = "saturated";
  nonfinite.model.emplace();
  nonfinite.model->rate = 1e-3;
  nonfinite.model->result.saturated = true;
  nonfinite.model->result.mean_latency = inf;
  nonfinite.model->saturation_rate = nan;
  nonfinite.model->result.clusters = {
      PinnedCluster(0.5, inf, inf, -inf, nan, inf)};
  nonfinite.sweep.emplace();
  SweepPoint q;
  q.lambda_g = 1e-3;
  q.model_latency = inf;
  q.model_saturated = true;
  q.sim_latency = nan;
  q.sim_ci95 = inf;
  q.sim_intra = -inf;
  q.sim_inter = 1.5;
  q.sim_icn2_max_util = nan;
  nonfinite.sweep->points.push_back(q);
  nonfinite.sim = PinnedSim();
  nonfinite.sim->mean = inf;
  nonfinite.sim->ci95 = nan;
  nonfinite.sim->max = -inf;
  nonfinite.sim->icn2_max = nan;
  reports.push_back(nonfinite);
  return reports;
}

constexpr const char* kPinnedCompact[] = {
    // model
    "{\"schema_version\":3,\"scenario\":\"model\",\"status\":{\"code\":\"ok\","
    "\"ok\":true},\"system\":{\"spec\":\"preset:1120\","
    "\"clusters\":32,\"nodes\":1120,\"m\":8,\"icn2_topology\":\"tree:3\","
    "\"icn2_exact_fit\":false,\"message_flits\":32,"
    "\"flit_bytes\":256},\"workload\":\"uniform, poisson arrivals\","
    "\"model\":{\"rate\":1e-04,\"saturated\":false,"
    "\"mean_latency_us\":33.19123456789,\"saturation_rate\":0.000517,"
    "\"note\":\"permutation traffic: \\\"approximate\\\"\","
    "\"clusters\":[{\"u\":0.9375,\"l_in\":20.25,\"w_in\":0.5,"
    "\"l_out\":41.5,\"w_d\":1.25,\"blended\":33},{\"u\":0.5,"
    "\"l_in\":1e+21,\"w_in\":1e-07,\"l_out\":123456789,"
    "\"w_d\":-0,\"blended\":2}]}}",
    // bottleneck
    "{\"schema_version\":3,\"scenario\":\"bottleneck\","
    "\"status\":{\"code\":\"ok\",\"ok\":true},\"system\":{\"spec\":\"preset:1120\","
    "\"clusters\":32,\"nodes\":1120,\"m\":8,\"icn2_topology\":\"tree:3\","
    "\"icn2_exact_fit\":false,\"message_flits\":32,"
    "\"flit_bytes\":256},\"workload\":\"uniform, poisson arrivals\","
    "\"bottleneck\":{\"rate\":4e-04,\"condis_rho\":0.7727,"
    "\"inter_source_rho\":0.25,\"intra_source_rho\":0.125,"
    "\"hot_eject_rho\":0.9,\"binding\":\"hot-node ejection link\","
    "\"saturation_rate\":0.00044,\"note\":\"hot-spot traffic\"}}",
    // saturation
    "{\"schema_version\":3,\"scenario\":\"saturation\","
    "\"status\":{\"code\":\"ok\",\"ok\":true},\"system\":{\"spec\":\"preset:1120\","
    "\"clusters\":32,\"nodes\":1120,\"m\":8,\"icn2_topology\":\"tree:3\","
    "\"icn2_exact_fit\":false,\"message_flits\":32,"
    "\"flit_bytes\":256},\"workload\":\"uniform, poisson arrivals\","
    "\"saturation\":{\"rate\":0.000517}}",
    // sweep
    "{\"schema_version\":3,\"scenario\":\"sweep\",\"status\":{\"code\":\"ok\","
    "\"ok\":true},\"system\":{\"spec\":\"preset:1120\","
    "\"clusters\":32,\"nodes\":1120,\"m\":8,\"icn2_topology\":\"tree:3\","
    "\"icn2_exact_fit\":false,\"message_flits\":32,"
    "\"flit_bytes\":256},\"workload\":\"uniform, poisson arrivals\","
    "\"sweep\":{\"points\":[{\"lambda_g\":1e-04,\"model_latency_us\":30.5,"
    "\"model_saturated\":false},{\"lambda_g\":2e-04,"
    "\"model_latency_us\":61,\"model_saturated\":false}]}}",
    // sweep_sim
    "{\"schema_version\":3,\"scenario\":\"sweep_sim\","
    "\"status\":{\"code\":\"ok\",\"ok\":true},\"system\":{\"spec\":\"preset:1120\","
    "\"clusters\":32,\"nodes\":1120,\"m\":8,\"icn2_topology\":\"tree:3\","
    "\"icn2_exact_fit\":false,\"message_flits\":32,"
    "\"flit_bytes\":256},\"workload\":\"uniform, poisson arrivals\","
    "\"sweep\":{\"points\":[{\"lambda_g\":2e-04,\"model_latency_us\":36.75,"
    "\"model_saturated\":false,\"sim_latency_us\":37.5,"
    "\"sim_ci95\":0.5,\"sim_intra_us\":21,\"sim_inter_us\":44,"
    "\"sim_icn2_max_util\":0.625}]}}",
    // sim
    "{\"schema_version\":3,\"scenario\":\"sim\",\"status\":{\"code\":\"ok\","
    "\"ok\":true},\"system\":{\"spec\":\"preset:1120\","
    "\"clusters\":32,\"nodes\":1120,\"m\":8,\"icn2_topology\":\"tree:3\","
    "\"icn2_exact_fit\":false,\"message_flits\":32,"
    "\"flit_bytes\":256},\"workload\":\"uniform, poisson arrivals\","
    "\"sim\":{\"rate\":1e-04,\"seed\":18446744073709551615,"
    "\"delivered\":9000,\"duration_us\":812345.125,"
    "\"latency_us\":{\"mean\":33.25,\"ci95\":0.0625,"
    "\"min\":-0,\"max\":1e+300},\"intra\":{\"mean_us\":20.5,"
    "\"messages\":4000},\"inter\":{\"mean_us\":41.75,"
    "\"messages\":5000},\"utilization\":{\"icn1\":{\"mean\":0.1,"
    "\"max\":0.2},\"ecn1\":{\"mean\":5e-324,\"max\":0.3},"
    "\"icn2\":{\"mean\":0.3333333333333333,\"max\":9007199254740992}}}}",
    // failed "one"
    "{\"schema_version\":3,\"scenario\":\"failed \\\"one\\\"\","
    "\"status\":{\"code\":\"scenario_error\",\"ok\":false,"
    "\"message\":\"config line 3: 'rate' is not a number: \\\"fa\\\\st\\\"\\n\\tnext\\u0001 \xc2\xb5s\"},"
    "\"system\":{\"spec\":\"preset:1120\",\"clusters\":32,"
    "\"nodes\":1120,\"m\":8,\"icn2_topology\":\"tree:3\","
    "\"icn2_exact_fit\":false,\"message_flits\":32,"
    "\"flit_bytes\":256},\"workload\":\"uniform, poisson arrivals\"}",
    // nonfinite
    "{\"schema_version\":3,\"scenario\":\"nonfinite\","
    "\"status\":{\"code\":\"model_error\",\"ok\":false,"
    "\"message\":\"saturated\"},\"system\":{\"spec\":\"preset:1120\","
    "\"clusters\":32,\"nodes\":1120,\"m\":8,\"icn2_topology\":\"tree:3\","
    "\"icn2_exact_fit\":false,\"message_flits\":32,"
    "\"flit_bytes\":null,\"flit_bytes_nonfinite\":\"nan\"},"
    "\"workload\":\"uniform, poisson arrivals\",\"model\":{\"rate\":0.001,"
    "\"saturated\":true,\"mean_latency_us\":null,\"mean_latency_us_nonfinite\":\"inf\","
    "\"saturation_rate\":null,\"saturation_rate_nonfinite\":\"nan\","
    "\"clusters\":[{\"u\":0.5,\"l_in\":null,\"l_in_nonfinite\":\"inf\","
    "\"w_in\":null,\"w_in_nonfinite\":\"inf\",\"l_out\":null,"
    "\"l_out_nonfinite\":\"-inf\",\"w_d\":null,\"w_d_nonfinite\":\"nan\","
    "\"blended\":null,\"blended_nonfinite\":\"inf\"}]},"
    "\"sweep\":{\"points\":[{\"lambda_g\":0.001,\"model_latency_us\":null,"
    "\"model_latency_us_nonfinite\":\"inf\",\"model_saturated\":true,"
    "\"sim_latency_us\":null,\"sim_latency_us_nonfinite\":\"nan\","
    "\"sim_ci95\":null,\"sim_ci95_nonfinite\":\"inf\","
    "\"sim_intra_us\":null,\"sim_intra_us_nonfinite\":\"-inf\","
    "\"sim_inter_us\":1.5,\"sim_icn2_max_util\":null,"
    "\"sim_icn2_max_util_nonfinite\":\"nan\"}]},\"sim\":{\"rate\":1e-04,"
    "\"seed\":18446744073709551615,\"delivered\":9000,"
    "\"duration_us\":812345.125,\"latency_us\":{\"mean\":null,"
    "\"mean_nonfinite\":\"inf\",\"ci95\":null,\"ci95_nonfinite\":\"nan\","
    "\"min\":-0,\"max\":null,\"max_nonfinite\":\"-inf\"},"
    "\"intra\":{\"mean_us\":20.5,\"messages\":4000},"
    "\"inter\":{\"mean_us\":41.75,\"messages\":5000},"
    "\"utilization\":{\"icn1\":{\"mean\":0.1,\"max\":0.2},"
    "\"ecn1\":{\"mean\":5e-324,\"max\":0.3},\"icn2\":{\"mean\":0.3333333333333333,"
    "\"max\":null,\"max_nonfinite\":\"nan\"}}}}",
};

TEST(Report, CompactBytesArePinned) {
  const std::vector<Report> reports = PinnedReports();
  ASSERT_EQ(reports.size(), std::size(kPinnedCompact));
  std::string batch = "{\"schema_version\":3,\"reports\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].ToJsonText(), kPinnedCompact[i]) << i;
    EXPECT_EQ(reports[i].ToJson().Dump(), kPinnedCompact[i]) << i;
    if (i != 0) batch += ',';
    batch += kPinnedCompact[i];
  }
  EXPECT_EQ(BatchToJson(reports).Dump(), batch + "]}");
}

TEST(Engine, GoldenJsonSnapshot) {
  Engine engine;
  const auto reports =
      engine.EvaluateBatch(ParseScenarios(kGoldenScenarios), {});
  EXPECT_EQ(BatchToJson(reports).Dump(2) + "\n", kGoldenJson);
}

TEST(Engine, GoldenJsonParsesAndCarriesSchemaVersion) {
  const Json doc = Json::Parse(kGoldenJson);
  ASSERT_NE(doc.Find("schema_version"), nullptr);
  EXPECT_EQ(doc.Find("schema_version")->AsInt(), kReportSchemaVersion);
  const Json* reports = doc.Find("reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->Size(), 2u);
  EXPECT_EQ(reports->At(0).Find("scenario")->AsString(), "tiny");
  EXPECT_EQ(reports->At(1).Find("scenario")->AsString(), "dragonfly");
  // Every v2+ report carries a status block; these two are ok.
  for (std::size_t i = 0; i < reports->Size(); ++i) {
    const Json* status = reports->At(i).Find("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->Find("code")->AsString(), "ok");
    EXPECT_TRUE(status->Find("ok")->AsBool());
  }
}

TEST(Engine, V2GoldenStillParsesAsArchivedDocument) {
  // v3 only dropped the degraded status keys, so archived v2 documents read
  // with the same accessors; consumers ignore the keys they do not know.
  const Json doc = Json::Parse(kGoldenJsonV2);
  EXPECT_EQ(doc.Find("schema_version")->AsInt(), 2);
  const Json& tiny = doc.Find("reports")->At(0);
  const Json* status = tiny.Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_TRUE(status->Find("ok")->AsBool());
  EXPECT_TRUE(status->Find("degraded")->AsBool());
  EXPECT_DOUBLE_EQ(tiny.Find("model")->Find("mean_latency_us")->AsDouble(),
                   4.962604158902051);
  // The live emitter writes neither degraded key.
  Engine engine;
  const Report live = engine.Evaluate(ParseScenarios(kGoldenScenarios)[0]);
  EXPECT_EQ(live.ToJson().Find("status")->Find("degraded"), nullptr);
}

TEST(Engine, V1GoldenStillParsesAsArchivedDocument) {
  // Schema v2 is additive over v1 (status block, non-finite sentinels), so
  // archived v1 documents remain readable with the same accessors.
  const Json doc = Json::Parse(kGoldenJsonV1);
  EXPECT_EQ(doc.Find("schema_version")->AsInt(), 1);
  const Json* reports = doc.Find("reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_EQ(reports->Size(), 2u);
  const Json& tiny = reports->At(0);
  EXPECT_EQ(tiny.Find("scenario")->AsString(), "tiny");
  EXPECT_EQ(tiny.Find("status"), nullptr);  // v1 has no status block
  EXPECT_DOUBLE_EQ(tiny.Find("model")->Find("mean_latency_us")->AsDouble(),
                   4.962604158902051);
  EXPECT_EQ(reports->At(1).Find("saturation")->Find("rate")->AsDouble(),
            0.2158203125);
}

TEST(Engine, BatchDeterministicAcrossThreadCounts) {
  // Sim-heavy batch (plain sims and a sim-backed sweep): the reports — and
  // therefore the emitted JSON — must be bit-identical for any worker count.
  const char* text = R"cfg(
[scenario a]
system = preset:tiny:8:32
analyses = model,sim
rate = 1e-4
sim.messages = 500

[scenario b]
system = preset:tiny:8:32
analyses = sim
rate = 2e-4
sim.messages = 500
sim.seed = 5
workload.pattern = hotspot
workload.hotspot_fraction = 0.2

[scenario c]
system = preset:mixed:8:32
analyses = sweep
sweep.max_rate = 4e-4
sweep.points = 3
sim.messages = 400

[scenario d]
system = preset:dragonfly:8:32
analyses = model,bottleneck,sim
rate = 1e-4
sim.messages = 500
workload.pattern = local
workload.locality = 0.9
)cfg";
  const auto scenarios = ParseScenarios(text);
  Engine serial;
  const std::string one =
      BatchToJson(serial.EvaluateBatch(scenarios, {})).Dump(2);
  for (const int threads : {2, 8}) {
    Engine parallel;
    Engine::BatchOptions opts;
    opts.threads = threads;
    const std::string many =
        BatchToJson(parallel.EvaluateBatch(scenarios, opts)).Dump(2);
    EXPECT_EQ(many, one) << "threads=" << threads;
  }
}

TEST(Engine, CachesDedupeSystemsModelsAndSims) {
  // Four scenarios over two distinct systems; only one asks for a sim, and
  // two share (system, workload, opts) so the model memoizes.
  const char* text = R"cfg(
[scenario m1]
system = preset:tiny:16:64
analyses = model
rate = 1e-4

[scenario m2]
system = preset:tiny:16:64
analyses = bottleneck
rate = 2e-4

[scenario m3]
system = preset:tiny:16:64
analyses = model
rate = 1e-4
workload.pattern = local
workload.locality = 0.5

[scenario s1]
system = preset:tiny:8:32
analyses = sim
rate = 1e-4
sim.messages = 200
)cfg";
  Engine engine;
  engine.EvaluateBatch(ParseScenarios(text), {});
  const Engine::CacheStats stats = engine.Stats();
  EXPECT_EQ(stats.systems, 2u);  // preset:tiny:16:64 and preset:tiny:8:32
  EXPECT_EQ(stats.sims, 1u);     // only s1 needed the simulator
  EXPECT_EQ(stats.models, 2u);   // m1/m2 share one model; m3 has its own
}

TEST(Engine, RepeatedEvaluateReusesCachesAndAgrees) {
  Scenario s = ParseScenario(
      "[scenario x]\nsystem = preset:tiny:16:64\nrate = 1e-4\n"
      "analyses = model,saturation\n");
  Engine engine;
  const Report first = engine.Evaluate(s);
  const Report second = engine.Evaluate(s);
  EXPECT_EQ(first.ToJson().Dump(2), second.ToJson().Dump(2));
  EXPECT_EQ(engine.Stats().systems, 1u);
  EXPECT_EQ(engine.Stats().models, 1u);
}

TEST(Engine, StatsCountSaturationSearchesAndTheirProbes) {
  // On preset:1120 the C/D queue binds, so the search evaluates the model
  // once, at CompiledModel::SaturatedFrom(). A re-evaluation answers from
  // the lambda* memo and counts neither a search nor a probe.
  const Scenario s = ParseScenario(
      "[scenario sat]\nsystem = preset:1120\nanalyses = saturation\n");
  Engine engine;
  ASSERT_TRUE(engine.Evaluate(s).status.ok());
  EXPECT_EQ(engine.Stats().saturation_searches, 1u);
  EXPECT_EQ(engine.Stats().saturation_probes, 1u);
  ASSERT_TRUE(engine.Evaluate(s).status.ok());
  EXPECT_EQ(engine.Stats().saturation_searches, 1u);
  EXPECT_EQ(engine.Stats().saturation_probes, 1u);
}

TEST(Engine, CanonicalWorkloadKeySharesExplicitAllOneRateScale) {
  // An explicit all-1.0 rate_scale table describes the same traffic as an
  // empty one; the memoization key must canonicalize the two onto one cache
  // entry (and the reports must agree exactly).
  const char* text = R"cfg(
[scenario implicit]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4

[scenario explicit]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4
workload.rate.0 = 1.0
)cfg";
  Engine engine;
  const std::vector<Report> reports = engine.EvaluateBatch(ParseScenarios(text), {});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(engine.Stats().models, 1u);
  Json a = reports[0].ToJson();
  Json b = reports[1].ToJson();
  a.Set("scenario", Json("x"));
  b.Set("scenario", Json("x"));
  EXPECT_EQ(a.Dump(2), b.Dump(2));
}

TEST(Engine, ModelCacheMissRebindsFromWorkloadAdjacentSibling) {
  // Four workloads on one (system, options) family: the first compiles
  // cold, the rest rebind from the family's latest model. The reports must
  // be byte-identical to a fresh engine that compiles each one cold.
  const char* text = R"cfg(
[scenario uniform]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4

[scenario local]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4
workload.pattern = local
workload.locality = 0.7

[scenario hotspot]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4
workload.pattern = hotspot
workload.hotspot_fraction = 0.2

[scenario scaled]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4
workload.rate.1 = 1.5
)cfg";
  const std::vector<Scenario> scenarios = ParseScenarios(text);
  Engine shared;
  const std::vector<Report> got = shared.EvaluateBatch(scenarios, {});
  EXPECT_EQ(shared.Stats().models, 4u);
  EXPECT_EQ(shared.Stats().model_rebinds, 3u);
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    Engine cold;  // fresh engine: no sibling, so every compile is cold
    const Report want = cold.Evaluate(scenarios[i]);
    EXPECT_EQ(cold.Stats().model_rebinds, 0u);
    EXPECT_EQ(want.ToJson().Dump(2), got[i].ToJson().Dump(2))
        << scenarios[i].name;
  }
}

TEST(Engine, InvalidScenariosBecomeStatusRecordsNotTornBatches) {
  Scenario bad;
  bad.name = "bad";
  bad.system = "/no/such/file.conf";
  bad.rate = 1e-4;
  Scenario good;
  good.name = "good";
  good.system = "preset:tiny:16:64";
  good.rate = 1e-4;
  Engine engine;
  // Isolation (the default): the batch returns all entries; the failure is
  // a structured status record and its neighbor is untouched.
  Engine::BatchOptions isolated;
  isolated.threads = 4;
  const auto reports = engine.EvaluateBatch({bad, good}, isolated);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_FALSE(reports[0].status.ok());
  EXPECT_EQ(reports[0].status.code, StatusCode::kScenarioError);
  EXPECT_EQ(reports[0].scenario, "bad");
  EXPECT_FALSE(reports[0].status.message.empty());
  EXPECT_TRUE(reports[1].status.ok());
  ASSERT_TRUE(reports[1].model.has_value());
  // fail_fast restores the old abort-and-rethrow contract.
  Engine::BatchOptions fail_fast;
  fail_fast.threads = 4;
  fail_fast.fail_fast = true;
  EXPECT_THROW(engine.EvaluateBatch({bad, good}, fail_fast),
               std::invalid_argument);
  // Single-scenario Evaluate still throws.
  Scenario unvalidated;
  unvalidated.name = "r";
  unvalidated.system = "preset:tiny";
  unvalidated.rate = 0;  // model analysis without a rate
  EXPECT_THROW(engine.Evaluate(unvalidated), std::invalid_argument);
}

TEST(Engine, OversizedSimIsAScenarioErrorWhileItsModelIsServed) {
  // mesh:2x22: 2^22 routers, 100,663,552 channels. The model reads only the
  // journey statistics; a simulation needs state per channel, so it is
  // refused before any of it is allocated.
  const auto scenarios = ParseScenarios(
      "[scenario model]\nsystem = preset:tiny\nanalyses = model\n"
      "rate = 1e-4\nicn2_topology = mesh:2x22\n"
      "[scenario sim]\nsystem = preset:tiny\nanalyses = sim\n"
      "rate = 1e-4\nsim.messages = 100\nicn2_topology = mesh:2x22\n");
  Engine engine;
  const auto reports = engine.EvaluateBatch(scenarios, {});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].status.ok()) << reports[0].status.message;
  ASSERT_TRUE(reports[0].model.has_value());
  EXPECT_FALSE(reports[0].model->result.saturated);
  EXPECT_EQ(reports[1].status.code, StatusCode::kScenarioError);
  EXPECT_NE(reports[1].status.message.find("100663552 channels (> 2^23)"),
            std::string::npos)
      << reports[1].status.message;
}

TEST(Engine, OversizedMessageCountIsAScenarioErrorWhileItsModelIsServed) {
  // The traffic buffer is sized from sim.messages, so the count is bounded
  // (2^20) before anything is allocated. 9223372036854775807 would also
  // overflow the warm-up + measured + drain sum.
  for (const char* messages :
       {"1000000000000", "30000000", "9223372036854775807"}) {
    const std::string sim = std::string(
        "[scenario s]\nsystem = preset:tiny\nrate = 1e-4\nsim.messages = ") +
        messages + "\n";
    Engine engine;
    const auto model = engine.EvaluateBatch(
        ParseScenarios(sim + "analyses = model\n"), {});
    ASSERT_EQ(model.size(), 1u);
    EXPECT_TRUE(model[0].status.ok()) << model[0].status.message;
    const auto reports =
        engine.EvaluateBatch(ParseScenarios(sim + "analyses = sim\n"), {});
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].status.code, StatusCode::kScenarioError) << messages;
    EXPECT_NE(reports[0].status.message.find(" messages (allowed: 0 to 2^20)"),
              std::string::npos)
        << reports[0].status.message;
  }
}

TEST(Engine, RebindSourceTableIsBoundedByLru) {
  // The per-(system, options)-family rebind-source table is an accelerator,
  // not a registry: a batch cycling through many distinct families must not
  // pin one compiled model per family forever. Each distinct preset:...:M:dm
  // spelling is its own family; walking past the cap evicts the
  // least-recently-touched entries and counts them.
  Engine engine;
  const int families = 20;  // > Engine::kRebindSources
  for (int i = 0; i < families; ++i) {
    Scenario s;
    s.name = "fam" + std::to_string(i);
    s.system = "preset:tiny:16:" + std::to_string(64 + i);
    s.rate = 1e-4;
    EXPECT_TRUE(engine.Evaluate(s).status.ok());
  }
  Engine::CacheStats stats = engine.Stats();
  EXPECT_EQ(stats.models, static_cast<std::size_t>(families));
  EXPECT_EQ(stats.rebind_evictions, families - Engine::kRebindSources);
  // A family still resident (the most recent one) keeps rebinding; an
  // evicted family's next miss compiles cold — correct either way, and the
  // counters tell the two apart.
  Scenario warm;
  warm.name = "warm";
  warm.system = "preset:tiny:16:" + std::to_string(64 + families - 1);
  warm.rate = 1e-4;
  warm.workload.pattern = WorkloadPattern::kClusterLocal;
  warm.workload.locality = 0.7;
  EXPECT_TRUE(engine.Evaluate(warm).status.ok());
  EXPECT_EQ(engine.Stats().model_rebinds, 1u);

  Scenario evicted;
  evicted.name = "evicted";
  evicted.system = "preset:tiny:16:64";  // family 0: long since evicted
  evicted.rate = 1e-4;
  evicted.workload.pattern = WorkloadPattern::kClusterLocal;
  evicted.workload.locality = 0.7;
  EXPECT_TRUE(engine.Evaluate(evicted).status.ok());
  EXPECT_EQ(engine.Stats().model_rebinds, 1u);  // cold, not a rebind
}

TEST(Engine, ModelMemoMapIsBoundedByLruWithWarmRebindAfterEvict) {
  // Engine::Options::model_entries caps the compiled-model memo map for a
  // long-lived mixed request stream (server mode). Eviction is LRU and an
  // evicted model re-enters warm: the family's rebind source keeps its own
  // reference, so the re-request rebinds instead of compiling cold.
  Engine::Options opts;
  opts.model_entries = 2;
  Engine engine(opts);
  const auto scenario = [](double locality) {
    Scenario s;
    s.name = "m";
    s.system = "preset:tiny:16:64";
    s.rate = 1e-4;
    if (locality > 0) {
      s.workload.pattern = WorkloadPattern::kClusterLocal;
      s.workload.locality = locality;
    }
    return s;
  };
  const Report first = engine.Evaluate(scenario(0));
  ASSERT_TRUE(first.status.ok());
  EXPECT_TRUE(engine.Evaluate(scenario(0.5)).status.ok());
  EXPECT_EQ(engine.Stats().models, 2u);
  EXPECT_EQ(engine.Stats().model_evictions, 0u);
  EXPECT_TRUE(engine.Evaluate(scenario(0.7)).status.ok());
  Engine::CacheStats stats = engine.Stats();
  // Eviction order is LRU: the uniform model (oldest touch) went first.
  EXPECT_EQ(stats.models, 2u);
  EXPECT_EQ(stats.model_evictions, 1u);
  EXPECT_EQ(stats.model_rebinds, 2u);
  // The evicted model's re-request is a miss, but a warm one, and the
  // rebound report is bit-identical to the original cold compile.
  const Report again = engine.Evaluate(scenario(0));
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.ToJson().Dump(2), first.ToJson().Dump(2));
  stats = engine.Stats();
  EXPECT_EQ(stats.models, 2u);
  EXPECT_EQ(stats.model_evictions, 2u);
  EXPECT_EQ(stats.model_rebinds, 3u);
}

TEST(Engine, SystemMemoMapIsBoundedByLruAndTouchRefreshes) {
  Engine::Options opts;
  opts.system_entries = 2;
  Engine engine(opts);
  const auto eval = [&](int dm) {
    Scenario s;
    s.name = "sys";
    s.system = "preset:tiny:16:" + std::to_string(dm);
    s.rate = 1e-4;
    EXPECT_TRUE(engine.Evaluate(s).status.ok());
  };
  eval(64);  // A
  eval(65);  // B: LRU order [B, A]
  eval(64);  // hit touches A to the front: [A, B]
  eval(66);  // C evicts B — the least recently touched — not A
  EXPECT_EQ(engine.Stats().systems, 2u);
  EXPECT_EQ(engine.Stats().system_evictions, 1u);
  eval(64);  // A survived the touch-refresh: still a hit, no eviction
  EXPECT_EQ(engine.Stats().system_evictions, 1u);
  eval(65);  // B really was evicted: reloading it evicts the next victim
  EXPECT_EQ(engine.Stats().system_evictions, 2u);
  EXPECT_EQ(engine.Stats().systems, 2u);
}

TEST(Engine, ArrivalProcessIsPartOfTheModelCacheKey) {
  // Same system, same pattern, different arrival process: two distinct
  // compiled models (the SCV is baked in at compile time), and the second
  // rebinds from the first within the family.
  const char* text = R"cfg(
[scenario poisson]
system = preset:tiny:16:64
analyses = model
rate = 1e-4

[scenario bursty]
system = preset:tiny:16:64
analyses = model
rate = 1e-4
workload.arrival = mmpp:4,8
)cfg";
  Engine engine;
  const auto reports = engine.EvaluateBatch(ParseScenarios(text), {});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_TRUE(reports[0].status.ok());
  EXPECT_TRUE(reports[1].status.ok());
  EXPECT_EQ(engine.Stats().models, 2u);
  EXPECT_EQ(engine.Stats().model_rebinds, 1u);
  ASSERT_TRUE(reports[0].model.has_value());
  ASSERT_TRUE(reports[1].model.has_value());
  EXPECT_NE(reports[0].model->result.mean_latency, reports[1].model->result.mean_latency);
}

TEST(Engine, EveryModelKnobKeysItsOwnModel) {
  // The defaults, then each of the 7 non-default model.* values, on one
  // shared Engine. A knob missing from the model-memo key would make its
  // scenario a memo hit on an earlier option set's model: its report would
  // differ from a fresh Engine's, and the memo would hold fewer models.
  const char* const kKnobs[] = {
      "",
      "model.lambda_i2 = harmonic\n",
      "model.ecn_eta = source_side\n",
      "model.condis_service = supply_limited\n",
      "model.relaxing_factor = as_printed\n",
      "model.relaxing_factor = off\n",
      "model.source_queue_rate = network_total\n",
      "model.include_last_stage_wait = false\n",
  };
  Engine shared;
  for (const char* knob : kKnobs) {
    SCOPED_TRACE(knob);
    const Scenario s = ParseScenario(
        std::string("[scenario knob]\nsystem = preset:tiny\n") +
        "analyses = model,bottleneck,saturation\nrate = 1e-3\n" + knob);
    Engine fresh;
    EXPECT_EQ(shared.Evaluate(s).ToJson().Dump(2),
              fresh.Evaluate(s).ToJson().Dump(2));
  }
  EXPECT_EQ(shared.Stats().models, 8u);
}

TEST(Engine, NearbyArrivalParametersKeepDistinctModels) {
  // The model memo key spells the arrival process, and these three differ
  // only past the sixth digit: each must match its own evaluation alone,
  // not share a memo entry with its neighbor.
  const char* arrivals[] = {"mmpp:4.0000001,8", "mmpp:4.0000004,8",
                            "mmpp:4.000004,8"};
  std::string text;
  for (const char* arrival : arrivals) {
    text += std::string("[scenario s]\nsystem = preset:tiny\n") +
            "analyses = model\nrate = 1e-4\nworkload.arrival = " + arrival +
            "\n";
  }
  const std::vector<Scenario> scenarios = ParseScenarios(text);
  Engine batch;
  const auto reports = batch.EvaluateBatch(scenarios, {});
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(batch.Stats().models, 3u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    Engine alone;
    const auto single = alone.EvaluateBatch({scenarios[i]}, {});
    ASSERT_TRUE(reports[i].model.has_value());
    ASSERT_TRUE(single[0].model.has_value());
    EXPECT_EQ(reports[i].model->result.mean_latency,
              single[0].model->result.mean_latency)
        << arrivals[i];
  }
  EXPECT_NE(reports[0].model->result.mean_latency,
            reports[1].model->result.mean_latency);
}

TEST(Engine, DeadlinesPastTheClockRangeNeverTrip) {
  // Both lie past the steady clock's int64-nanosecond range from now: 1e13
  // ms would overflow the addition, 1e300 ms the double-to-integer cast.
  for (const char* ms : {"1e13", "1e300"}) {
    SCOPED_TRACE(ms);
    Engine engine;
    const auto own = engine.EvaluateBatch(
        ParseScenarios(std::string("[scenario s]\nsystem = preset:tiny\n") +
                       "analyses = model,saturation\nrate = 1e-4\n" +
                       "deadline_ms = " + ms + "\n"),
        {});
    ASSERT_EQ(own.size(), 1u);
    EXPECT_TRUE(own[0].status.ok()) << own[0].status.message;
    Engine::BatchOptions opts;
    opts.default_deadline_ms = std::stod(ms);
    const auto request = engine.EvaluateBatch(
        ParseScenarios("[scenario s]\nsystem = preset:tiny\n"
                       "analyses = model,saturation\nrate = 1e-4\n"),
        opts);
    ASSERT_EQ(request.size(), 1u);
    EXPECT_TRUE(request[0].status.ok()) << request[0].status.message;
  }
}

}  // namespace
}  // namespace coc
