// Ablation: the model's reconstruction-ambiguous equations (one knob each in
// src/model/model_options.h).
// Each row toggles one ModelOptions knob away from the default and reports
// the mean latency at three operating points plus the saturation rate on the
// heterogeneous N=1120 organization — quantifying how much each OCR
// reconstruction choice matters.
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

int main() {
  using namespace coc;
  bench::PrintHeader("Ablation: model options",
                     "effect of each Eq. reconstruction choice (analysis)");

  const auto sys = MakeSystem1120(MessageFormat{32, 256});

  struct Variant {
    const char* name;
    std::function<void(ModelOptions&, Workload&)> tweak;
  };
  const std::vector<Variant> variants = {
      {"defaults", [](ModelOptions&, Workload&) {}},
      {"lambda_I2: harmonic (Eq.23 alt)",
       [](ModelOptions& o, Workload&) { o.lambda_i2 = ModelOptions::LambdaI2::kHarmonic; }},
      {"ECN eta: source-side only (Eq.24 as printed)",
       [](ModelOptions& o, Workload&) {
         o.ecn_eta = ModelOptions::EcnEta::kSourceSideOnly;
       }},
      {"relaxing factor OFF (Eq.27/28 disabled)",
       [](ModelOptions& o, Workload&) {
         o.relaxing_factor = ModelOptions::RelaxingFactor::kOff;
       }},
      {"relaxing factor as printed (delta = beta_E/beta_I2)",
       [](ModelOptions& o, Workload&) {
         o.relaxing_factor = ModelOptions::RelaxingFactor::kAsPrinted;
       }},
      {"cluster-local traffic p=0.8 (workload layer)",
       [](ModelOptions&, Workload& w) { w = Workload::ClusterLocal(0.8); }},
      {"source queue: network-total rate",
       [](ModelOptions& o, Workload&) {
         o.source_queue_rate = ModelOptions::SourceQueueRate::kNetworkTotal;
       }},
      {"C/D service: supply-limited",
       [](ModelOptions& o, Workload&) {
         o.condis_service = ModelOptions::CondisService::kSupplyLimited;
       }},
      {"final-stage wait excluded (Eq.14 alt)",
       [](ModelOptions& o, Workload&) { o.include_last_stage_wait = false; }},
  };

  Table t({"variant", "L(1e-4)", "L(3e-4)", "L(4.5e-4)", "saturation"});
  for (const auto& v : variants) {
    ModelOptions opts;
    Workload workload;
    v.tweak(opts, workload);
    CompiledModel model(sys, workload, opts);
    t.AddRow({v.name, FormatDouble(model.Evaluate(1e-4).mean_latency, 1),
              FormatDouble(model.Evaluate(3e-4).mean_latency, 1),
              FormatDouble(model.Evaluate(4.5e-4).mean_latency, 1),
              FormatSci(model.SaturationRate(2e-3))});
  }
  std::printf("\nN=1120 M=32 Lm=256, mean latency (us):\n%s",
              t.ToString().c_str());
  MaybeWriteCsv("ablation_model_options", t.ToCsv());
  return 0;
}
