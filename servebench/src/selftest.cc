// The benchmark's own tests: the generator is a pure function of its seed,
// the wire strip recovers the offline render, and every workload's shape
// (hit ratio, evictions, rebinds vs cold compiles, no model work on
// sim_serve, span coverage) holds in the traced replay.
//
//   servebench_test            # exit 0 when every check passes
#include <cstdio>
#include <set>
#include <string>

#include "api/scenario.h"
#include "common/json.h"
#include "load.h"
#include "replay.h"
#include "server/protocol.h"
#include "server/server.h"
#include "verify.h"
#include "workloads.h"

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL %s\n", what.c_str());
  }
}

using servebench::Generator;
using servebench::WorkloadKind;
using servebench::WorkloadName;

constexpr WorkloadKind kAll[] = {WorkloadKind::kHotMix,
                                 WorkloadKind::kDialWalk,
                                 WorkloadKind::kSimServe};

void GeneratorIsSeeded() {
  for (const WorkloadKind kind : kAll) {
    const std::string name = WorkloadName(kind);
    const Generator a(kind, 7), b(kind, 7), c(kind, 8);
    Check(a.warmup() == b.warmup(), name + ": warm-up differs for one seed");
    int same_as_other_seed = 0;
    for (std::uint64_t k = 0; k < 500; ++k) {
      const std::string line = a.Measured(k).line;
      Check(line == b.Measured(k).line,
            name + ": line " + std::to_string(k) + " differs for one seed");
      same_as_other_seed += line == c.Measured(k).line ? 1 : 0;
      Check(!line.empty() && line.back() == '\n' &&
                line.find('\n') == line.size() - 1,
            name + ": line " + std::to_string(k) + " is not one frame");
    }
    Check(same_as_other_seed < 50,
          name + ": another seed gives the same lines");
  }
}

void LinesParse() {
  for (const WorkloadKind kind : kAll) {
    const Generator gen(kind, 3);
    std::set<std::string> distinct;
    std::set<int> classes;
    for (std::uint64_t k = 0; k < 3000; ++k) {
      const servebench::GeneratedRequest req = gen.Measured(k);
      distinct.insert(req.line);
      classes.insert(req.cls);
      const coc::Json j = coc::Json::Parse(req.line);
      const std::string& text =
          j.Find(req.batch ? "scenarios" : "scenario")->AsString();
      Check(coc::ParseScenarios(text).size() == (req.batch ? 8u : 1u),
            std::string(WorkloadName(kind)) + ": wrong section count");
    }
    if (kind != WorkloadKind::kHotMix) {
      Check(distinct.size() == 3000,
            std::string(WorkloadName(kind)) + ": repeated request lines");
    }
    if (kind == WorkloadKind::kSimServe) {
      Check(static_cast<int>(classes.size()) == gen.num_classes(),
            "sim_serve: not every system x rate x condis class is drawn");
    }
  }
}

void AlternateSpellingsShareTheKey() {
  const Generator gen(WorkloadKind::kHotMix, 11);
  int with_alternates = 0;
  for (const auto& s : gen.scenarios()) {
    const std::string key = coc::ParseScenario(s.canonical).Serialize();
    if (!s.alternates.empty()) ++with_alternates;
    for (const std::string& alt : s.alternates) {
      Check(coc::ParseScenario(alt).Serialize() == key,
            "hot_mix: an alternate spelling changes the key");
    }
  }
  Check(with_alternates == 64,
        "hot_mix: a quarter of scenarios have spellings");
}

void StripRecoversOfflineRender() {
  for (const WorkloadKind kind : kAll) {
    const Generator gen(kind, 5);
    coc::RequestHandler handler(coc::ServerOptions{}.engine, 1024,
                                coc::FaultInjector{});
    for (std::uint64_t k = 0; k < (kind == WorkloadKind::kSimServe ? 3 : 40);
         ++k) {
      const std::string line = gen.Measured(k).line;
      std::string served = handler.HandleLine(line);
      served.pop_back();
      Check(servebench::StripServedFields(served) ==
                servebench::OfflineRender(line),
            std::string(WorkloadName(kind)) + ": served line " +
                std::to_string(k) + " differs from the offline render");
    }
  }
}

void ShapesHoldInTheTracedReplay() {
  for (const WorkloadKind kind : kAll) {
    const servebench::TraceResult trace =
        servebench::RunTrace(Generator(kind, 2), "");
    for (const auto* failures :
         {&trace.shape_failures, &trace.trace_warnings}) {
      for (const std::string& f : *failures) {
        Check(false, std::string(WorkloadName(kind)) + ": " + f);
      }
    }
    for (const servebench::Metric& m : trace.metrics) {
      if (m.name == "trace.coverage") {
        std::printf("%s trace.coverage %.4f\n", WorkloadName(kind), m.value);
      }
    }
  }
}

}  // namespace

int main() {
  GeneratorIsSeeded();
  LinesParse();
  AlternateSpellingsShareTheKey();
  StripRecoversOfflineRender();
  ShapesHoldInTheTracedReplay();
  if (g_failures == 0) std::printf("servebench_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
