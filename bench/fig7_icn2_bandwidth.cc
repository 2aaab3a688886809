// Regenerates paper Fig. 7: the design-space analysis showing the effect of
// increasing the ICN2 bandwidth by 20% on both Table 1 organizations
// (M=128 flits, d_m=256 bytes, analysis only — as in the paper).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/ascii_plot.h"
#include "common/table.h"

namespace {

coc::SystemConfig WithIcn2Bandwidth(const coc::SystemConfig& base,
                                    double factor) {
  std::vector<coc::ClusterConfig> clusters;
  for (int i = 0; i < base.num_clusters(); ++i) {
    clusters.push_back(base.cluster(i));
  }
  coc::NetworkCharacteristics icn2 = base.icn2();
  icn2.bandwidth *= factor;
  return coc::SystemConfig(base.m(), std::move(clusters), icn2,
                           base.message());
}

}  // namespace

int main() {
  using namespace coc;
  bench::PrintHeader("Fig. 7",
                     "impact of +20% ICN2 bandwidth, M=128, Lm=256 (analysis)");

  const MessageFormat msg{128, 256};
  struct Curve {
    const char* name;
    char glyph;
    SystemConfig sys;
  };
  std::vector<Curve> curves;
  const auto base544 = MakeSystem544(msg);
  const auto base1120 = MakeSystem1120(msg);
  curves.push_back({"N=544, Base", 'b', base544});
  curves.push_back({"N=544, Increased", 'B', WithIcn2Bandwidth(base544, 1.2)});
  curves.push_back({"N=1120, Base", 'n', base1120});
  curves.push_back({"N=1120, Increased", 'N', WithIcn2Bandwidth(base1120, 1.2)});

  const auto rates = LinearRates(3e-4, 12);
  Table t({"lambda_g", "N544_base", "N544_incr", "N1120_base", "N1120_incr"});
  std::vector<PlotSeries> series;
  std::vector<std::vector<double>> values(curves.size());
  std::vector<CompiledModel> models;
  models.reserve(curves.size());
  for (std::size_t c = 0; c < curves.size(); ++c) {
    const CompiledModel& model = models.emplace_back(curves[c].sys);
    PlotSeries s{curves[c].name, curves[c].glyph, {}};
    std::vector<ModelResult> results;
    model.EvaluateMany(rates, results);
    for (const ModelResult& mr : results) {
      values[c].push_back(mr.mean_latency);
    }
    for (std::size_t i = 0; i < rates.size(); ++i) {
      s.points.emplace_back(rates[i], values[c][i]);
    }
    series.push_back(std::move(s));
  }
  for (std::size_t i = 0; i < rates.size(); ++i) {
    t.AddRow({FormatSci(rates[i]), FormatDouble(values[0][i], 1),
              FormatDouble(values[1][i], 1), FormatDouble(values[2][i], 1),
              FormatDouble(values[3][i], 1)});
  }
  std::printf("\nMean message latency (us), analysis:\n%s",
              t.ToString().c_str());
  std::printf("%s", RenderAsciiPlot(series, 72, 18, "Fig. 7").c_str());

  // The paper's takeaways: the enhancement matters most in the high-traffic
  // region, and the N=544 system gains more headroom than N=1120.
  const double sat544b = models[0].SaturationRate(2e-3);
  const double sat544i = models[1].SaturationRate(2e-3);
  const double sat1120b = models[2].SaturationRate(2e-3);
  const double sat1120i = models[3].SaturationRate(2e-3);
  std::printf("saturation rate: N=544 base %.3g -> incr %.3g (+%.1f%%)\n",
              sat544b, sat544i, 100 * (sat544i / sat544b - 1));
  std::printf("saturation rate: N=1120 base %.3g -> incr %.3g (+%.1f%%)\n",
              sat1120b, sat1120i, 100 * (sat1120i / sat1120b - 1));
  MaybeWriteCsv("fig7", t.ToCsv());
  return 0;
}
