// Proves the batch fault-isolation contract with the deterministic
// FaultInjector seam: a faulted batch still returns all N entries, exactly
// the targeted entry carries a structured error, the other N-1 reports are
// bit-identical to an un-faulted run for any thread count, and injected
// failures reproduce byte-for-byte because every fault is deterministic (no
// wall clock, no randomness).
#include <cmath>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/json.h"
#include "api/report.h"
#include "api/scenario.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "gtest/gtest.h"

namespace coc {
namespace {

// Four scenarios on distinct system/workload keys (no shared cache entries
// between the faulted index and its neighbors). s1 is the fault target: it
// requests model + sim so every fault site has something to break.
constexpr const char* kBatch = R"(
[scenario s0]
system = preset:tiny:16:64
analyses = model,bottleneck
rate = 1e-4

[scenario s1]
system = preset:tiny:8:32
analyses = model,sim
rate = 1e-4
sim.messages = 200
sim.seed = 7

[scenario s2]
system = preset:dragonfly:16:64
analyses = model,saturation
rate = 1e-4

[scenario s3]
system = preset:tiny:16:64
analyses = model
rate = 1e-4
workload.locality = 0.9
)";

constexpr int kFaultIndex = 1;

std::vector<std::string> DumpReports(const std::vector<Report>& reports) {
  std::vector<std::string> dumps;
  dumps.reserve(reports.size());
  for (const Report& r : reports) dumps.push_back(r.ToJson().Dump());
  return dumps;
}

std::vector<Report> RunBatch(const std::string& fault_spec, int threads) {
  const std::vector<Scenario> scenarios = ParseScenarios(kBatch);
  Engine engine;  // fresh caches per run: nothing leaks between experiments
  Engine::BatchOptions opts;
  opts.threads = threads;
  if (!fault_spec.empty()) opts.faults = FaultInjector::Parse(fault_spec);
  return engine.EvaluateBatch(scenarios, opts);
}

TEST(FaultInjector, ParseAcceptsTheGrammarAndRejectsTheRest) {
  const FaultInjector f = FaultInjector::Parse("parse:0,model:2,deadline:11");
  EXPECT_TRUE(f.Armed(FaultInjector::Site::kParse, 0));
  EXPECT_TRUE(f.Armed(FaultInjector::Site::kModel, 2));
  EXPECT_TRUE(f.Armed(FaultInjector::Site::kDeadline, 11));
  EXPECT_FALSE(f.Armed(FaultInjector::Site::kParse, 1));
  EXPECT_FALSE(f.Armed(FaultInjector::Site::kSimBudget, 0));
  EXPECT_FALSE(f.Empty());
  EXPECT_TRUE(FaultInjector().Empty());
  EXPECT_TRUE(
      FaultInjector::Parse("sim_budget:3").Armed(
          FaultInjector::Site::kSimBudget, 3));
  for (const char* bad : {"nonsense", "bogus:1", "parse:", "parse:x",
                          "parse:-1", ":0", "model:1.5"}) {
    EXPECT_THROW(FaultInjector::Parse(bad), UsageError) << bad;
  }
  // Stray commas are tolerated (the CLI may build specs by concatenation).
  EXPECT_FALSE(FaultInjector::Parse("model:1,,").Empty());
  EXPECT_TRUE(FaultInjector::Parse(",").Empty());
}

TEST(FaultInjection, ErrorFaultsIsolateToTheTargetForAnyThreadCount) {
  const std::vector<std::string> baseline = DumpReports(RunBatch("", 1));
  ASSERT_EQ(baseline.size(), 4u);

  struct Case {
    const char* spec;
    StatusCode code;
    const char* message_piece;
  };
  const Case cases[] = {
      {"parse:1", StatusCode::kScenarioError, "injected parse fault"},
      {"model:1", StatusCode::kModelError, "non-finite latency"},
      {"sim_budget:1", StatusCode::kSimBudgetError, "event budget"},
      {"deadline:1", StatusCode::kDeadlineExceeded,
       "deadline exceeded during"},
  };
  for (const Case& c : cases) {
    std::string first_message;
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(c.spec) + " threads=" +
                   std::to_string(threads));
      const std::vector<Report> reports = RunBatch(c.spec, threads);
      ASSERT_EQ(reports.size(), 4u);  // the envelope never tears
      const Report& faulted = reports[kFaultIndex];
      EXPECT_FALSE(faulted.status.ok());
      EXPECT_EQ(faulted.status.code, c.code)
          << StatusCodeName(faulted.status.code);
      EXPECT_NE(faulted.status.message.find(c.message_piece),
                std::string::npos)
          << faulted.status.message;
      // Error records still name their scenario.
      EXPECT_EQ(faulted.scenario, "s1");
      EXPECT_EQ(faulted.system_spec, "preset:tiny:8:32");
      // The failure reproduces byte-for-byte across thread counts.
      if (first_message.empty()) {
        first_message = faulted.status.message;
      } else {
        EXPECT_EQ(faulted.status.message, first_message);
      }
      // Every non-faulted neighbor is bit-identical to the clean run.
      const std::vector<std::string> dumps = DumpReports(reports);
      for (int i = 0; i < 4; ++i) {
        if (i == kFaultIndex) continue;
        EXPECT_EQ(dumps[i], baseline[i]) << "report " << i;
      }
    }
  }
}

TEST(FaultInjection, SimBudgetFaultKeepsTheCompletedModelBlock) {
  // The sim site throws mid-scenario: analyses that finished before the
  // throw stay in the report, so partial progress is never discarded.
  const std::vector<Report> reports = RunBatch("sim_budget:1", 1);
  const Report& faulted = reports[kFaultIndex];
  EXPECT_EQ(faulted.status.code, StatusCode::kSimBudgetError);
  ASSERT_TRUE(faulted.model.has_value());
  EXPECT_TRUE(std::isfinite(faulted.model->result.mean_latency));
  EXPECT_FALSE(faulted.sim.has_value());
  // The budget diagnostic carries deterministic partial progress.
  EXPECT_NE(faulted.status.message.find("delivered"), std::string::npos)
      << faulted.status.message;
}

TEST(FaultInjection, ModelFaultIsAModelErrorRecordThatPoisonsNothing) {
  // The model site poisons this scenario's evaluation with NaN; the Engine's
  // consistency check turns it into a model_error record. The shared
  // compiled model is untouched, so a later clean scenario on the same model
  // still evaluates — and the failed report carries no model block.
  const Report faulted = RunBatch("model:1", 1)[kFaultIndex];
  EXPECT_EQ(faulted.status.code, StatusCode::kModelError);
  EXPECT_FALSE(faulted.model.has_value());
  EXPECT_FALSE(faulted.sim.has_value());
  const Json status = *faulted.ToJson().Find("status");
  EXPECT_EQ(status.Find("code")->AsString(), "model_error");
  EXPECT_EQ(status.Find("degraded"), nullptr);  // gone in schema v3

  std::vector<Scenario> twice = ParseScenarios(kBatch);
  twice.push_back(twice[kFaultIndex]);
  Engine engine;
  Engine::BatchOptions opts;
  opts.faults = FaultInjector::Parse("model:1");
  const std::vector<Report> reports = engine.EvaluateBatch(twice, opts);
  EXPECT_EQ(reports[kFaultIndex].status.code, StatusCode::kModelError);
  EXPECT_TRUE(reports.back().status.ok());
  EXPECT_EQ(DumpReports({reports.back()})[0],
            DumpReports(RunBatch("", 1))[kFaultIndex]);
}

TEST(FaultInjection, FailFastRethrowsTheLowestIndexError) {
  const std::vector<Scenario> scenarios = ParseScenarios(kBatch);
  Engine engine;
  Engine::BatchOptions opts;
  opts.threads = 4;
  opts.fail_fast = true;
  opts.faults = FaultInjector::Parse("parse:1,parse:3");
  try {
    engine.EvaluateBatch(scenarios, opts);
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    // Deterministic for any thread count: the lowest faulted index wins
    // even when a later scenario failed first in wall time.
    EXPECT_NE(std::string(e.what()).find("scenario 's1'"), std::string::npos)
        << e.what();
  }
}

TEST(FaultInjection, DeadlineFaultTripsBeforeAnyAnalysisRuns) {
  const std::vector<Report> reports = RunBatch("deadline:1", 1);
  const Report& faulted = reports[kFaultIndex];
  EXPECT_EQ(faulted.status.code, StatusCode::kDeadlineExceeded);
  // TripAfterChecks(0) fires on the very first cooperative check, so no
  // analysis block made it into the report.
  EXPECT_FALSE(faulted.model.has_value());
  EXPECT_FALSE(faulted.sim.has_value());
}

}  // namespace
}  // namespace coc
