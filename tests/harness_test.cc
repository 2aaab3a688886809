// Tests for the sweep harness: grid construction, model/sim sweep output,
// formatting, CSV emission, and the environment-controlled sim budget.
#include <algorithm>
#include <cstdlib>

#include "common/status.h"
#include "gtest/gtest.h"
#include "harness/sweep.h"
#include "system/presets.h"

namespace coc {
namespace {

TEST(Harness, LinearRatesExcludeZeroIncludeMax) {
  const auto rates = LinearRates(1e-3, 4);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_GT(rates.front(), 0.0);
  EXPECT_DOUBLE_EQ(rates.back(), 1e-3);
  for (std::size_t i = 1; i < rates.size(); ++i) {
    EXPECT_GT(rates[i], rates[i - 1]);
  }
}

TEST(Harness, ModelOnlySweep) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SweepSpec spec;
  spec.rates = LinearRates(2e-4, 3);
  spec.run_sim = false;
  const auto pts = RunSweepParallel(sys, spec);
  ASSERT_EQ(pts.size(), 3u);
  for (const auto& p : pts) {
    EXPECT_FALSE(p.sim_latency.has_value());
    EXPECT_GT(p.model_latency, 0.0);
  }
}

TEST(Harness, SweepWithSimPopulatesAllFields) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SweepSpec spec;
  spec.rates = {1e-4};
  spec.sim_base.warmup_messages = 200;
  spec.sim_base.measured_messages = 2000;
  spec.sim_base.drain_messages = 200;
  const auto pts = RunSweepParallel(sys, spec);
  ASSERT_EQ(pts.size(), 1u);
  ASSERT_TRUE(pts[0].sim_latency.has_value());
  EXPECT_GT(*pts[0].sim_latency, 0.0);
  EXPECT_GT(pts[0].sim_ci95, 0.0);
  EXPECT_GT(pts[0].sim_inter, pts[0].sim_intra);
}

TEST(Harness, AbortLatencySkipsLaterSimPoints) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SweepSpec spec;
  spec.rates = {1e-4, 2e-4, 3e-4};
  spec.sim_base.warmup_messages = 100;
  spec.sim_base.measured_messages = 1000;
  spec.sim_base.drain_messages = 100;
  spec.sim_abort_latency = 1e-9;  // aborts after the very first point
  const auto pts = RunSweepParallel(sys, spec);
  EXPECT_TRUE(pts[0].sim_latency.has_value());
  EXPECT_FALSE(pts[1].sim_latency.has_value());
  EXPECT_FALSE(pts[2].sim_latency.has_value());
  // The model series continues regardless.
  EXPECT_GT(pts[2].model_latency, 0.0);
}

TEST(Harness, ParallelSweepMatchesSerial) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SweepSpec spec;
  spec.rates = LinearRates(5e-4, 4);
  spec.sim_base.warmup_messages = 200;
  spec.sim_base.measured_messages = 2000;
  spec.sim_base.drain_messages = 200;
  const auto serial = RunSweepParallel(sys, spec);
  const auto parallel = RunSweepParallel(sys, spec, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel[i].model_latency, serial[i].model_latency);
    ASSERT_EQ(parallel[i].sim_latency.has_value(),
              serial[i].sim_latency.has_value());
    if (serial[i].sim_latency) {
      // Same seed + deterministic engine => bit-identical results.
      EXPECT_DOUBLE_EQ(*parallel[i].sim_latency, *serial[i].sim_latency);
    }
  }
}

TEST(Harness, ParallelSweepDeterministicAcrossThreadCounts) {
  // With the abort cut-off disabled every point simulates, so any worker
  // count must reproduce the one-worker sweep exactly — bit for bit. This
  // pins down both the engine's determinism and the sweep's independence of
  // scheduling order.
  const auto sys = MakeMixedTopologySystem(MessageFormat{16, 64});
  SweepSpec spec;
  spec.rates = LinearRates(6e-4, 6);
  spec.sim_base.warmup_messages = 150;
  spec.sim_base.measured_messages = 1500;
  spec.sim_base.drain_messages = 150;
  spec.sim_abort_latency = 0;  // never abort: all points must match
  const auto serial = RunSweepParallel(sys, spec);
  for (int threads : {1, 2, 8}) {
    const auto parallel = RunSweepParallel(sys, spec, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_DOUBLE_EQ(parallel[i].model_latency, serial[i].model_latency);
      ASSERT_TRUE(parallel[i].sim_latency.has_value());
      ASSERT_TRUE(serial[i].sim_latency.has_value());
      EXPECT_DOUBLE_EQ(*parallel[i].sim_latency, *serial[i].sim_latency);
      EXPECT_DOUBLE_EQ(parallel[i].sim_ci95, serial[i].sim_ci95);
      EXPECT_DOUBLE_EQ(parallel[i].sim_intra, serial[i].sim_intra);
      EXPECT_DOUBLE_EQ(parallel[i].sim_inter, serial[i].sim_inter);
      EXPECT_DOUBLE_EQ(parallel[i].sim_icn2_max_util,
                       serial[i].sim_icn2_max_util);
    }
  }
}

TEST(Harness, ParallelSweepHonorsAbortCutoff) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SweepSpec spec;
  spec.rates = LinearRates(5e-4, 5);
  spec.sim_base.warmup_messages = 100;
  spec.sim_base.measured_messages = 1000;
  spec.sim_base.drain_messages = 100;
  spec.sim_abort_latency = 1e-9;  // first point trips the cut-off
  const auto pts = RunSweepParallel(sys, spec, 4);
  EXPECT_TRUE(pts[0].sim_latency.has_value());
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_FALSE(pts[i].sim_latency.has_value()) << i;
  }
}

TEST(Harness, SweepHonorsDeadlineForAnyThreadCount) {
  // The deadline is probed before every point, simulated or not, and the
  // trip surfaces as DeadlineExceeded naming the completed-point count.
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  for (const bool run_sim : {false, true}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string("run_sim=") + (run_sim ? "1" : "0") +
                   " threads=" + std::to_string(threads));
      SweepSpec spec;
      spec.rates = LinearRates(2e-4, 3);
      spec.run_sim = run_sim;
      spec.sim_base.warmup_messages = 50;
      spec.sim_base.measured_messages = 500;
      spec.sim_base.drain_messages = 50;
      spec.deadline = Deadline::TripAfterChecks(0);
      try {
        RunSweepParallel(sys, spec, threads);
        FAIL() << "expected DeadlineExceeded";
      } catch (const DeadlineExceeded& e) {
        EXPECT_NE(std::string(e.what()).find("0 of 3 points completed"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Harness, FormatsContainSeriesAndLabel) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SweepSpec spec;
  spec.rates = LinearRates(1e-4, 2);
  spec.run_sim = false;
  const auto pts = RunSweepParallel(sys, spec);
  const auto table = FormatSweepTable("my-label", pts);
  EXPECT_NE(table.find("my-label"), std::string::npos);
  EXPECT_NE(table.find("analysis"), std::string::npos);
  const auto plot = FormatSweepPlot("plot-title", pts);
  EXPECT_NE(plot.find("plot-title"), std::string::npos);
  const auto csv = FormatSweepCsv(pts);
  EXPECT_NE(csv.find("lambda_g,analysis"), std::string::npos);
}

TEST(Harness, WorkloadGridBitIdenticalToPerPointColdCompiles) {
  // The dial sweep's rebind chain and certified saturation warm-starts are
  // pure shortcuts: every point must match a cold compile + cold search.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  WorkloadGridSpec spec;
  spec.dial = WorkloadDial::kLocality;
  spec.values = {0.1, 0.3, 0.5, 0.7, 0.9};
  spec.rates = LinearRates(2e-3, 4);
  const auto grid = RunWorkloadGrid(sys, spec);
  ASSERT_EQ(grid.size(), spec.values.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const Workload w = ApplyWorkloadDial(spec.base, spec.dial, spec.values[k],
                                         0, sys.num_clusters());
    const CompiledModel cold(sys, w);
    const auto want = cold.EvaluateMany(spec.rates);
    ASSERT_EQ(grid[k].results.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(grid[k].results[r].mean_latency, want[r].mean_latency)
          << "value " << spec.values[k] << " rate " << spec.rates[r];
      EXPECT_EQ(grid[k].results[r].saturated, want[r].saturated);
    }
    EXPECT_EQ(grid[k].saturation_rate, cold.SaturationRate(1.0))
        << "value " << spec.values[k];
    EXPECT_GT(grid[k].saturation_probes, 0);
  }
  // The first point compiles cold; later points carry structure over.
  EXPECT_EQ(grid[0].rebind.intra_reused + grid[0].rebind.pair_reused, 0);
  EXPECT_GT(grid[1].rebind.combos_shared, 0);
}

TEST(Harness, BurstinessGridBitIdenticalToPerPointColdCompiles) {
  // The burstiness dial walks the arrival process from Poisson (ratio 1)
  // into deep bursts. Arrival moves are the cheapest rebind (evaluate-time
  // SCV only), so every point past the first must reuse the full compiled
  // structure — and still match a cold compile bit for bit.
  const auto sys = MakeSmallSystem(MessageFormat{16, 64});
  WorkloadGridSpec spec;
  spec.dial = WorkloadDial::kBurstiness;
  spec.values = {1.0, 2.0, 4.0, 8.0};
  spec.rates = LinearRates(2e-3, 4);
  const auto grid = RunWorkloadGrid(sys, spec);
  ASSERT_EQ(grid.size(), spec.values.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const Workload w = ApplyWorkloadDial(spec.base, spec.dial, spec.values[k],
                                         0, sys.num_clusters());
    const CompiledModel cold(sys, w);
    const auto want = cold.EvaluateMany(spec.rates);
    ASSERT_EQ(grid[k].results.size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(grid[k].results[r].mean_latency, want[r].mean_latency)
          << "value " << spec.values[k] << " rate " << spec.rates[r];
    }
    EXPECT_EQ(grid[k].saturation_rate, cold.SaturationRate(1.0))
        << "value " << spec.values[k];
    if (k > 0) {
      EXPECT_EQ(grid[k].rebind.intra_rebuilt, 0) << "value " << spec.values[k];
      EXPECT_EQ(grid[k].rebind.pair_rebuilt, 0) << "value " << spec.values[k];
    }
  }
  // Burstiness degrades the saturation point monotonically: more variance
  // in the arrival stream means the queues blow up earlier.
  for (std::size_t k = 1; k < grid.size(); ++k) {
    EXPECT_LE(grid[k].saturation_rate, grid[k - 1].saturation_rate);
  }
}

TEST(Harness, WorkloadGridFormattersNameDialAndValues) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  WorkloadGridSpec spec;
  spec.dial = WorkloadDial::kRateScale;
  spec.rate_scale_cluster = 1;
  spec.values = {0.5, 1.5};
  spec.rates = LinearRates(1e-3, 2);
  const auto grid = RunWorkloadGrid(sys, spec);
  const std::string table = FormatWorkloadGridTable("label", spec, grid);
  EXPECT_NE(table.find("label"), std::string::npos);
  EXPECT_NE(table.find("rate_scale"), std::string::npos);
  EXPECT_NE(table.find("sat_rate"), std::string::npos);
  const std::string csv = FormatWorkloadGridCsv(spec, grid);
  EXPECT_NE(csv.find("dial,dial_value,lambda_g"), std::string::npos);
  // One CSV row per (value, rate) pair plus the header.
  const auto rows = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, 1 + spec.values.size() * spec.rates.size());
}

TEST(Harness, WorkloadGridHonorsDeadline) {
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  WorkloadGridSpec spec;
  spec.values = {0.1, 0.2, 0.3};
  spec.rates = LinearRates(1e-3, 2);
  spec.deadline = Deadline::TripAfterChecks(1);
  EXPECT_THROW(RunWorkloadGrid(sys, spec), DeadlineExceeded);
}

TEST(Harness, MaybeWriteCsvRespectsEnv) {
  unsetenv("COC_CSV_DIR");
  EXPECT_EQ(MaybeWriteCsv("x", "a,b\n"), "");
  setenv("COC_CSV_DIR", "/tmp", 1);
  const auto path = MaybeWriteCsv("coc_harness_test", "a,b\n1,2\n");
  EXPECT_EQ(path, "/tmp/coc_harness_test.csv");
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
  unsetenv("COC_CSV_DIR");
}

TEST(Harness, MaybeWriteCsvReportsUnwritableDirOnStderr) {
  // Opting in via COC_CSV_DIR and then losing the artifact silently was the
  // bug: the failure must surface the errno reason (and the path) on stderr
  // while still returning "" so benches keep running.
  setenv("COC_CSV_DIR", "/nonexistent_coc_csv_dir", 1);
  ::testing::internal::CaptureStderr();
  const auto path = MaybeWriteCsv("coc_harness_errno", "a,b\n");
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(path, "");
  EXPECT_NE(err.find("/nonexistent_coc_csv_dir/coc_harness_errno.csv"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("No such file or directory"), std::string::npos) << err;
  unsetenv("COC_CSV_DIR");
}

TEST(Harness, DefaultSimBudgetHonorsCocFull) {
  unsetenv("COC_FULL");
  const auto fast = DefaultSimBudget(1e-4);
  EXPECT_EQ(fast.measured_messages, 20000);
  setenv("COC_FULL", "1", 1);
  const auto full = DefaultSimBudget(1e-4);
  EXPECT_EQ(full.warmup_messages, 10000);
  EXPECT_EQ(full.measured_messages, 100000);
  EXPECT_EQ(full.drain_messages, 10000);
  unsetenv("COC_FULL");
}

}  // namespace
}  // namespace coc
