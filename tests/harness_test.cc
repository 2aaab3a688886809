// Tests for the sweep harness: grid construction, model/sim sweep output,
// formatting, CSV emission, and the environment-controlled sim budget.
// Workload-dial sweeps run as Engine scenarios: api_engine_test and cli_test
// cover them.
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

TEST(Harness, SweepBoundsItsCompileAndModelPointsByTheDeadline) {
  // The sweep's model work probes its deadline too: the compile once per
  // class, and the rate loop before each point and once per run inside it.
  const auto sys = MakeTinySystem(MessageFormat{16, 64});
  SweepSpec spec;
  spec.rates = LinearRates(2e-4, 3);
  spec.run_sim = false;
  const auto trips = [&](auto&& run, std::int64_t checks) -> std::string {
    spec.deadline = Deadline::TripAfterChecks(checks);
    try {
      run();
    } catch (const DeadlineExceeded& e) {
      return e.what();
    }
    return "no trip";
  };
  const auto compiled_here = [&] { RunSweepParallel(sys, spec); };
  EXPECT_NE(trips(compiled_here, 1).find("during model compilation (0 "),
            std::string::npos);
  const CompiledModel model(sys, spec.workload, spec.model_opts);
  const auto given = [&] { RunSweepParallel(model, spec); };
  EXPECT_NE(trips(given, 0).find("during sweep (0 of 3 points completed)"),
            std::string::npos);
  EXPECT_NE(trips(given, 1).find("during model evaluation (0 clusters"),
            std::string::npos);
  // As many checks as the sweep makes: no trip, and the points are the
  // undeadlined sweep's.
  std::int64_t checks = 0;
  while (trips(given, checks) != "no trip") ++checks;
  EXPECT_GT(checks, 3);
  spec.deadline = Deadline::TripAfterChecks(checks);
  const auto pts = RunSweepParallel(model, spec);
  spec.deadline = Deadline();
  const auto want = RunSweepParallel(sys, spec);
  ASSERT_EQ(pts.size(), want.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].model_latency, want[i].model_latency) << i;
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
