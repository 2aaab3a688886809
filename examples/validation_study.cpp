// A miniature end-to-end replication of the paper's §4 validation study on
// a CI-sized system: sweep the generation rate, overlay analysis and
// simulation, report the light-load error band, and show the latency
// distribution at one operating point.
#include <cstdio>

#include "common/stats.h"
#include "harness/sweep.h"
#include "system/presets.h"

int main() {
  using namespace coc;
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});

  std::printf("validation study on a C=8, N=%lld system (M=16, Lm=64)\n\n",
              static_cast<long long>(sys.TotalNodes()));

  SweepSpec spec;
  spec.rates = LinearRates(1.2e-3, 8);
  spec.sim_base.warmup_messages = 1000;
  spec.sim_base.measured_messages = 10000;
  spec.sim_base.drain_messages = 1000;
  spec.sim_abort_latency = 2000;
  const auto pts = RunSweepParallel(sys, spec);
  std::printf("%s", FormatSweepTable("mean message latency (us)", pts).c_str());
  std::printf("%s", FormatSweepPlot("analysis vs simulation", pts).c_str());

  // Light-load error band (first quarter of the sweep).
  RunningStats err;
  for (std::size_t i = 0; i < pts.size() / 4 + 1; ++i) {
    if (pts[i].sim_latency) {
      err.Add(100.0 * (pts[i].model_latency - *pts[i].sim_latency) /
              *pts[i].sim_latency);
    }
  }
  std::printf("\nlight-load model error: mean %.1f%% (paper reports 4-8%%)\n",
              err.Mean());

  // Latency spread at a moderate load: the mean hides a heavy tail that
  // only the simulator exposes (the model predicts means only).
  CocSystemSim sim(sys);
  SimConfig cfg;
  cfg.lambda_g = 6e-4;
  cfg.warmup_messages = 1000;
  cfg.measured_messages = 20000;
  cfg.drain_messages = 1000;
  const auto r = sim.Run(cfg);
  std::printf(
      "\nat lambda_g=6e-4: mean %.1f us, min %.1f, max %.1f, stddev %.1f\n",
      r.latency.Mean(), r.latency.Min(), r.latency.Max(), r.latency.StdDev());
  std::printf("  intra %.1f us (n=%llu), inter %.1f us (n=%llu)\n",
              r.intra_latency.Mean(),
              static_cast<unsigned long long>(r.intra_latency.Count()),
              r.inter_latency.Mean(),
              static_cast<unsigned long long>(r.inter_latency.Count()));
  return 0;
}
