// Ablation: the concentrator/dispatcher forwarding discipline — the one
// point where the paper's model and its simulation methodology cannot both
// be taken literally (see CondisMode in src/sim/sim_config.h).
//
// Grid: {model: Eq.37 ICN2-rate service | supply-limited service} x
//       {sim: cut-through | store-and-forward} on the N=1120, M=32, Lm=256
// configuration. Shows that (paper model, cut-through sim) matches at light
// load while (paper model, store-and-forward sim) matches the saturation
// point — and that the supply-limited model tracks the cut-through sim
// through most of the load range.
#include <cstdio>

#include "bench_common.h"
#include "common/table.h"

int main() {
  using namespace coc;
  bench::PrintHeader("Ablation: C/D discipline",
                     "model/sim concentrator-forwarding combinations");

  const auto sys = MakeSystem1120(MessageFormat{32, 256});
  CompiledModel paper_model(sys);
  ModelOptions so;
  so.condis_service = ModelOptions::CondisService::kSupplyLimited;
  CompiledModel supply_model(sys, so);
  CocSystemSim sim(sys);

  Table t({"lambda_g", "sim_cut_through", "sim_store_fwd", "model_paper",
           "model_supply_ltd"});
  SimScratch scratch;  // engine arena reused across all grid points
  for (double rate : LinearRates(4.5e-4, 9)) {
    SimConfig ct = DefaultSimBudget(rate);
    SimConfig sf = ct;
    sf.condis_mode = CondisMode::kStoreForward;
    t.AddRow({FormatSci(rate),
              FormatDouble(sim.Run(ct, scratch).latency.Mean(), 1),
              FormatDouble(sim.Run(sf, scratch).latency.Mean(), 1),
              FormatDouble(paper_model.Evaluate(rate).mean_latency, 1),
              FormatDouble(supply_model.Evaluate(rate).mean_latency, 1)});
  }
  std::printf("\nMean message latency (us), N=1120 M=32 Lm=256:\n%s",
              t.ToString().c_str());
  std::printf(
      "\nreading guide: cut-through matches the paper model at light load\n"
      "(the 4-8%% claim); store-and-forward shifts the sim saturation toward\n"
      "the model's Eq.37 prediction at the cost of ~2 M t_cs serialization;\n"
      "the supply-limited model variant tracks the cut-through sim.\n");
  MaybeWriteCsv("ablation_condis", t.ToCsv());
  return 0;
}
