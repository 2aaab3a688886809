// Pluggable arrival processes (src/workload/arrival_process.h): parsing,
// the MMPP SCV closed form against the sampler, the bit-identity contract
// (SCV == 1 arrivals are *exactly* Poisson, in the generator and in the
// model), the SCV-independence of every tracked utilization and of the
// saturation rate, trace replay fidelity and its typed line-numbered
// diagnostics, and the pinned model-vs-sim tolerance for bursty and trace
// scenarios on every topology family.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "gtest/gtest.h"
#include "ini_mutation.h"
#include "model/compiled_model.h"
#include "sim/coc_system_sim.h"
#include "sim/traffic.h"
#include "system/presets.h"
#include "workload/arrival_process.h"
#include "workload/workload.h"

namespace coc {
namespace {

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

#define EXPECT_BIT_EQ(a, b) \
  EXPECT_EQ(a, b) << #a " = " << Hex(a) << "  " #b " = " << Hex(b)

std::string WriteTempTrace(const std::string& name,
                           const std::string& content) {
  const std::string path = "/tmp/coc_arrival_" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(ArrivalProcess, ParseRoundTripsTheThreeKinds) {
  const ArrivalProcess poisson = ArrivalProcess::Parse("poisson");
  EXPECT_TRUE(poisson.IsPoisson());
  EXPECT_EQ(poisson.ToString(), "poisson");
  EXPECT_EQ(poisson, ArrivalProcess());  // the default is Poisson

  const ArrivalProcess mmpp = ArrivalProcess::Parse("mmpp:4,8");
  EXPECT_EQ(mmpp.kind(), ArrivalProcess::Kind::kMmpp);
  EXPECT_EQ(mmpp.burstiness(), 4.0);
  EXPECT_EQ(mmpp.mean_burst_length(), 8.0);
  EXPECT_EQ(mmpp.ToString(), "mmpp:4,8");
  EXPECT_EQ(ArrivalProcess::Parse(mmpp.ToString()), mmpp);

  const std::string path = WriteTempTrace("roundtrip.trace", "0 0 1 4\n");
  const ArrivalProcess trace = ArrivalProcess::Parse("trace:" + path);
  EXPECT_TRUE(trace.IsTrace());
  EXPECT_EQ(trace.ToString(), "trace:" + path);
  EXPECT_EQ(ArrivalProcess::Parse(trace.ToString()), trace);
}

TEST(ArrivalProcess, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(ArrivalProcess::Parse("gamma:2"), std::invalid_argument);
  EXPECT_THROW(ArrivalProcess::Parse("mmpp:4"), std::invalid_argument);
  EXPECT_THROW(ArrivalProcess::Parse("mmpp:x,8"), std::invalid_argument);
  EXPECT_THROW(ArrivalProcess::Parse("mmpp:4,y"), std::invalid_argument);
  EXPECT_THROW(ArrivalProcess::Parse("mmpp:0.5,8"), std::invalid_argument);
  // Finite parameters whose closed-form SCV overflows: an infinite SCV
  // would make every loaded wait infinite at any rate.
  try {
    ArrivalProcess::Parse("mmpp:1e300,1e300");
    ADD_FAILURE() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("no finite interarrival SCV"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ArrivalProcess::Mmpp(2.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ArrivalProcess::Mmpp(2.0, -1.0), std::invalid_argument);
}

TEST(ArrivalProcess, UnitBurstinessRatioIsExactlyPoisson) {
  const ArrivalProcess p = ArrivalProcess::Mmpp(1.0, 8.0);
  EXPECT_TRUE(p.EffectivelyPoisson());
  EXPECT_FALSE(p.IsPoisson());  // still spelled mmpp, but SCV is the literal
  EXPECT_BIT_EQ(p.ArrivalScv(), 1.0);
  EXPECT_BIT_EQ(ArrivalProcess().ArrivalScv(), 1.0);
  EXPECT_GT(ArrivalProcess::Mmpp(4.0, 8.0).ArrivalScv(), 1.0);
}

TEST(ArrivalProcess, ClosedFormScvMatchesTheSampledGapMoments) {
  // The IPP interarrival SCV closed form and the simulator's two-state
  // sampler must describe the same process: compare the analytical SCV
  // against the empirical gap moments of a long generated sequence.
  const auto sys = MakeTinySystem(MessageFormat{8, 32});
  const struct {
    double ratio, burst_len;
  } kCases[] = {{2.0, 4.0}, {4.0, 8.0}, {8.0, 2.0}};
  for (const auto& c : kCases) {
    SCOPED_TRACE("mmpp:" + std::to_string(c.ratio) + "," +
                 std::to_string(c.burst_len));
    SimConfig cfg;
    cfg.lambda_g = 1e-4;
    cfg.seed = 7;
    cfg.workload.arrival = ArrivalProcess::Mmpp(c.ratio, c.burst_len);
    const auto events = GenerateTraffic(sys, cfg, 200000);
    double mean = 0;
    for (std::size_t k = 1; k < events.size(); ++k) {
      mean += events[k].time - events[k - 1].time;
    }
    mean /= static_cast<double>(events.size() - 1);
    double var = 0;
    for (std::size_t k = 1; k < events.size(); ++k) {
      const double d = (events[k].time - events[k - 1].time) - mean;
      var += d * d;
    }
    var /= static_cast<double>(events.size() - 2);
    const double want = cfg.workload.arrival.ArrivalScv();
    const double got = var / (mean * mean);
    EXPECT_NEAR(got, want, 0.08 * want);
    // The mean rate must stay the configured superposed rate: burstiness
    // redistributes arrivals in time, it does not thin or inflate them.
    const double system_rate =
        cfg.lambda_g * static_cast<double>(sys.TotalNodes());
    EXPECT_NEAR(1.0 / mean, system_rate, 0.05 * system_rate);
  }
}

TEST(ArrivalProcess, UnitRatioMmppTrafficBitIdenticalToPoisson) {
  // The generator branches on EffectivelyPoisson(), so an mmpp:1,L workload
  // must consume the seed's draw sequence exactly as Poisson does — across
  // every pattern and every topology family.
  const MessageFormat fmt{16, 64};
  const SystemConfig systems[] = {
      MakeTinySystem(fmt), MakeSmallSystem(fmt),
      MakeMixedTopologySystem(fmt), MakeDragonflySystem(fmt)};
  const WorkloadPattern patterns[] = {
      WorkloadPattern::kUniform, WorkloadPattern::kClusterLocal,
      WorkloadPattern::kHotspot, WorkloadPattern::kPermutation};
  for (const auto& sys : systems) {
    for (const auto pattern : patterns) {
      SCOPED_TRACE(std::string(WorkloadPatternName(pattern)) + " on C=" +
                   std::to_string(sys.num_clusters()));
      SimConfig cfg;
      cfg.lambda_g = 2e-4;
      cfg.seed = 11;
      cfg.workload.pattern = pattern;
      if (pattern == WorkloadPattern::kClusterLocal) {
        cfg.workload.locality_fraction = 0.7;
      }
      if (pattern == WorkloadPattern::kHotspot) {
        cfg.workload.hotspot_fraction = 0.2;
      }
      const auto poisson = GenerateTraffic(sys, cfg, 2000);
      cfg.workload.arrival = ArrivalProcess::Mmpp(1.0, 8.0);
      const auto mmpp = GenerateTraffic(sys, cfg, 2000);
      ASSERT_EQ(poisson.size(), mmpp.size());
      for (std::size_t k = 0; k < poisson.size(); ++k) {
        ASSERT_EQ(Hex(poisson[k].time), Hex(mmpp[k].time)) << "event " << k;
        ASSERT_EQ(poisson[k].src, mmpp[k].src) << "event " << k;
        ASSERT_EQ(poisson[k].dst, mmpp[k].dst) << "event " << k;
        ASSERT_EQ(poisson[k].flits, mmpp[k].flits) << "event " << k;
      }
    }
  }
}

TEST(ArrivalProcess, UnitRatioMmppModelBitIdenticalToPoisson) {
  // GG1Wait returns the M/G/1 wait untouched at SCV == 1, so the compiled
  // model under mmpp:1,L must reproduce the Poisson model bit for bit —
  // including the saturation search.
  const MessageFormat fmt{16, 64};
  const SystemConfig systems[] = {
      MakeTinySystem(fmt), MakeSmallSystem(fmt),
      MakeMixedTopologySystem(fmt), MakeDragonflySystem(fmt)};
  for (const auto& sys : systems) {
    SCOPED_TRACE("C=" + std::to_string(sys.num_clusters()));
    Workload bursty;
    bursty.arrival = ArrivalProcess::Mmpp(1.0, 4.0);
    const CompiledModel poisson(sys, Workload{});
    const CompiledModel mmpp(sys, bursty);
    for (const double rate : {5e-5, 2e-4, 1e-3}) {
      const auto a = poisson.Evaluate(rate);
      const auto b = mmpp.Evaluate(rate);
      EXPECT_BIT_EQ(a.mean_latency, b.mean_latency) << "rate " << rate;
    }
    EXPECT_BIT_EQ(poisson.SaturationRate(1.0), mmpp.SaturationRate(1.0));
  }
}

/// Every utilization a ModelResult tracks (per cluster) and the Bottleneck
/// maxima at the same rate.
std::vector<double> TrackedRhos(const CompiledModel& model, double rate) {
  const ModelResult r = model.Evaluate(rate);
  std::vector<double> rhos;
  for (const ClusterLatency& cl : r.clusters) {
    rhos.insert(rhos.end(), {cl.intra.source_rho, cl.inter.max_condis_rho,
                             cl.inter.max_source_rho});
  }
  const BottleneckReport b = model.Bottleneck(rate);
  rhos.insert(rhos.end(), {b.condis_rho, b.inter_source_rho,
                           b.intra_source_rho, b.hot_eject_rho});
  return rhos;
}

TEST(ArrivalProcess, ScvMovesNoRhoSaturatedFlagOrSaturationRate) {
  // The arrival SCV scales only the G/G/1 waits. No tracked utilization,
  // saturated flag or saturation rate may depend on it: the burstiness dial
  // rebinds the full structure on this premise, and README states it.
  const std::string trace = WriteTempTrace(
      "scv_premise.trace", "0.0 0 1 4\n0.5 1 0 4\n1.0 0 1 4\n400.0 1 0 4\n");
  const MessageFormat fmt{32, 256};
  const SystemConfig systems[] = {MakeSystem1120(fmt), MakeSystem544(fmt),
                                  MakeSmallSystem(fmt),
                                  MakeDragonflySystem(fmt)};
  const Workload patterns[] = {Workload::Uniform(), Workload::ClusterLocal(0.6),
                               Workload::Hotspot(0.2, 0),
                               Workload::Permutation()};
  const ArrivalProcess arrivals[] = {ArrivalProcess::Mmpp(4.0, 8.0),
                                     ArrivalProcess::Mmpp(16.0, 100.0),
                                     ArrivalProcess::TraceReplay(trace)};
  for (const SystemConfig& sys : systems) {
    for (const Workload& pattern : patterns) {
      SCOPED_TRACE("C=" + std::to_string(sys.num_clusters()) + " " +
                   pattern.Describe());
      const CompiledModel poisson(sys, pattern);
      const double sat = poisson.SaturationRate(1.0);
      ASSERT_TRUE(std::isfinite(sat));
      for (const ArrivalProcess& arrival : arrivals) {
        SCOPED_TRACE(arrival.ToString());
        ASSERT_GT(arrival.ArrivalScv(), 1.0);
        Workload w = pattern;
        w.arrival = arrival;
        const CompiledModel bursty(sys, w);
        EXPECT_BIT_EQ(bursty.SaturationRate(1.0), sat);
        // 40 rates up to twice lambda*, finite and saturated.
        for (int k = 1; k <= 40; ++k) {
          const double rate = sat * 0.05 * k;
          ASSERT_EQ(bursty.Evaluate(rate).saturated,
                    poisson.Evaluate(rate).saturated)
              << "rate " << Hex(rate);
          ASSERT_EQ(TrackedRhos(bursty, rate), TrackedRhos(poisson, rate))
              << "rate " << Hex(rate);
        }
      }
    }
  }
}

TEST(ArrivalProcess, TraceReplayIsCyclicDeterministicAndSeedFree) {
  const std::string path = WriteTempTrace("cyclic.trace",
                                          "# time src dst flits\n"
                                          "1.0 0 5 4\n"
                                          "3.0 1 6 8\n"
                                          "7.0 2 7 4\n");
  const auto sys = MakeTinySystem(MessageFormat{8, 32});
  SimConfig cfg;
  cfg.lambda_g = 1e-4;
  cfg.workload.arrival = ArrivalProcess::TraceReplay(path);
  // wrap period = t_last + mean gap = 7 + (7-1)/2 = 10.
  const auto& trace = *cfg.workload.arrival.trace();
  EXPECT_BIT_EQ(trace.wrap_period, 10.0);
  const auto events = GenerateTraffic(sys, cfg, 7);
  ASSERT_EQ(events.size(), 7u);
  const double times[] = {1, 3, 7, 11, 13, 17, 21};
  const std::int64_t srcs[] = {0, 1, 2, 0, 1, 2, 0};
  const std::int32_t flits[] = {4, 8, 4, 4, 8, 4, 4};
  for (int k = 0; k < 7; ++k) {
    EXPECT_BIT_EQ(events[k].time, times[k]) << "event " << k;
    EXPECT_EQ(events[k].src, srcs[k]) << "event " << k;
    EXPECT_EQ(events[k].flits, flits[k]) << "event " << k;
  }
  // Replay consumes no randomness: any seed yields the same sequence.
  cfg.seed = 999;
  const auto reseeded = GenerateTraffic(sys, cfg, 7);
  for (int k = 0; k < 7; ++k) {
    EXPECT_BIT_EQ(events[k].time, reseeded[k].time);
  }
}

TEST(ArrivalProcess, PoissonDumpedToATraceReplaysBitIdentically) {
  // Round-trip fidelity: dump a Poisson run's traffic as a trace file, then
  // replay it — the first cycle must reproduce every event bit for bit, and
  // the whole simulation must agree exactly (same events in, same schedule
  // out). This is the trace-pipeline counterpart of the mmpp:1 contract.
  const auto sys = MakeTinySystem(MessageFormat{8, 32});
  SimConfig cfg;
  cfg.lambda_g = 1e-4;
  cfg.seed = 3;
  cfg.warmup_messages = 100;
  cfg.measured_messages = 1000;
  cfg.drain_messages = 100;
  const std::int64_t total = 1200;
  const auto events = GenerateTraffic(sys, cfg, total);
  std::string dump;
  char buf[128];
  for (const auto& e : events) {
    std::snprintf(buf, sizeof buf, "%.17g %lld %lld %d\n", e.time,
                  static_cast<long long>(e.src),
                  static_cast<long long>(e.dst), e.flits);
    dump += buf;
  }
  const std::string path = WriteTempTrace("poisson_dump.trace", dump);

  SimConfig replay_cfg = cfg;
  replay_cfg.seed = 42;  // must not matter
  replay_cfg.workload.arrival = ArrivalProcess::TraceReplay(path);
  const auto replay = GenerateTraffic(sys, replay_cfg, total);
  ASSERT_EQ(replay.size(), events.size());
  for (std::size_t k = 0; k < events.size(); ++k) {
    ASSERT_EQ(Hex(events[k].time), Hex(replay[k].time)) << "event " << k;
    ASSERT_EQ(events[k].src, replay[k].src) << "event " << k;
    ASSERT_EQ(events[k].dst, replay[k].dst) << "event " << k;
    ASSERT_EQ(events[k].flits, replay[k].flits) << "event " << k;
  }
  // A Poisson trace's empirical SCV hovers near 1 (it is a statistic, not
  // the literal, so the model applies a vanishingly small correction).
  EXPECT_NEAR(replay_cfg.workload.arrival.ArrivalScv(), 1.0, 0.2);

  const CocSystemSim sim(sys);
  const SimResult a = sim.Run(cfg);
  const SimResult b = sim.Run(replay_cfg);
  EXPECT_BIT_EQ(a.latency.Mean(), b.latency.Mean());
  EXPECT_EQ(a.delivered, b.delivered);
}

TEST(ArrivalProcess, TraceProblemsRaiseTypedLineNumberedErrors) {
  // Missing file: a flag-level mistake -> UsageError naming errno.
  try {
    ArrivalProcess::TraceReplay("/tmp/coc_arrival_definitely_missing.trace");
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open trace file"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("No such file or directory"),
              std::string::npos);
  }
  // Content problems: ScenarioError naming the file and line.
  const struct {
    const char* name;
    const char* content;
    const char* needle;
  } kBad[] = {
      {"unsorted.trace", "1.0 0 1 4\n0.5 1 0 4\n",
       "line 2: timestamp 0.5 goes backwards (previous record at line 1)"},
      {"fields.trace", "1.0 0 1\n", "line 1: expected 'timestamp src dst"},
      {"badtime.trace", "-1 0 1 4\n", "'-1' is not a valid timestamp"},
      {"badsrc.trace", "0 -2 1 4\n", "'-2' is not a valid source node id"},
      {"baddst.trace", "0 0 x 4\n", "'x' is not a valid destination"},
      {"selfsend.trace", "0 3 3 4\n",
       "source and destination are both node 3"},
      {"zeroflit.trace", "0 0 1 0\n", "'0' is not a valid flit count"},
      // One integer rule for the whole record: '+4' fails like '+3' as src.
      {"plusflit.trace", "0 0 1 +4\n", "'+4' is not a valid flit count"},
      {"empty.trace", "# only a comment\n", "no records"},
      // Finite timestamps whose gap moments overflow: SCV and wrap period
      // would be infinite.
      {"overflow.trace", "0 0 1 4\n0 0 2 4\n1.7e308 1 0 4\n",
       "overflow the interarrival SCV or the wrap period"},
  };
  for (const auto& c : kBad) {
    SCOPED_TRACE(c.name);
    const std::string path = WriteTempTrace(c.name, c.content);
    try {
      ArrivalProcess::TraceReplay(path);
      FAIL() << "expected ScenarioError";
    } catch (const ScenarioError& e) {
      EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
  }
  // Node ids above the system's range are a workload/system mismatch, so
  // they surface from Workload::Validate (the trace itself cannot know N).
  const std::string path =
      WriteTempTrace("range.trace", "0 0 1 4\n2.0 0 9999 4\n");
  Workload w;
  w.arrival = ArrivalProcess::TraceReplay(path);
  const auto sys = MakeTinySystem(MessageFormat{8, 32});
  try {
    w.Validate(sys);
    FAIL() << "expected out-of-range node error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("node id 9999 outside [0, " +
                                         std::to_string(sys.TotalNodes()) +
                                         ")"),
              std::string::npos)
        << e.what();
  }
}

/// Replaces whitespace-separated field `field` of line `line` of `text`
/// with `with`; a line or field that mutations already removed is skipped.
void ReplaceTraceField(std::string& text, std::size_t line, std::size_t field,
                       const std::string& with) {
  std::size_t at = 0;
  for (std::size_t i = 0; i < line; ++i) {
    at = text.find('\n', at);
    if (at == std::string::npos) return;
    ++at;
  }
  const std::size_t end = std::min(text.find('\n', at), text.size());
  for (std::size_t f = 0;; ++f) {
    at = text.find_first_not_of(" \t\r", at);
    if (at == std::string::npos || at >= end) return;
    const std::size_t stop = std::min(text.find_first_of(" \t\r\n", at), end);
    if (f == field) {
      text.replace(at, stop - at, with);
      return;
    }
    at = stop;
  }
}

TEST(ArrivalProcess, TraceMutationPropertyLoadsOrRaisesStructuredErrors) {
  // Trace files are daemon input: a served scenario naming trace:PATH
  // re-reads the file at parse. Seeded mutations of a valid trace (the INI
  // truncate/duplicate/splice/delete operators, timestamps that go
  // backwards, node ids past the system, NaN and 1e999 fields, CRLF line
  // ends, invalid UTF-8, and once a 16 MB line) must each load and validate
  // against a system, or raise the std::invalid_argument family
  // (ScenarioError, UsageError): never another type, never a crash. The
  // suite runs under ASan/UBSan in CI.
  const auto sys = MakeTinySystem(MessageFormat{8, 32});
  const std::int64_t n = sys.TotalNodes();
  std::string base = "# seeded trace\n";
  for (int i = 0; i < 24; ++i) {
    base += std::to_string(0.5 * i) + " " + std::to_string(i % n) + " " +
            std::to_string((i + 1 + i % 3) % n) + " " +
            std::to_string(1 + i % 8) + "\n";
  }
  {
    Workload valid;
    valid.arrival = ArrivalProcess::TraceReplay(
        WriteTempTrace("mutation_base.trace", base));
    valid.Validate(sys);  // an invalid base would test only its one error
  }
  const std::string kNodes[] = {std::to_string(n), std::to_string(n + 7),
                                "2147483648", "9223372036854775807",
                                "99999999999999999999"};
  const std::string kNumbers[] = {"nan", "NaN", "1e999", "-1e999", "inf",
                                  "1e308", "-0", "0x10"};
  const std::string kBadUtf8[] = {"\xff", "\xc0\x80", "\xed\xa0\x80",
                                  "\xfe\xfe", "\xe2\x82"};
  Rng rng(20261018);
  constexpr int kTrials = 2000;
  int loaded = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string text = base;
    const std::size_t lines = 1 + std::count(text.begin(), text.end(), '\n');
    for (std::size_t m = 1 + Pick(rng, 3); m-- > 0;) {
      switch (Pick(rng, 9)) {
        case 0: MutateIni(text, 0, rng); break;  // truncate
        case 1: MutateIni(text, 2, rng); break;  // duplicate a line
        case 2: MutateIni(text, 3, rng); break;  // splice garbage
        case 3: MutateIni(text, 4, rng); break;  // delete a span
        case 4:  // a timestamp below its predecessor's
          ReplaceTraceField(text, 2 + Pick(rng, lines - 2), 0,
                            std::to_string(0.25 * Pick(rng, 4)));
          break;
        case 5:  // a node id past the system (or past int64)
          ReplaceTraceField(text, 1 + Pick(rng, lines - 1), 1 + Pick(rng, 2),
                            kNodes[Pick(rng, std::size(kNodes))]);
          break;
        case 6:  // a non-finite or odd number in any field
          ReplaceTraceField(text, 1 + Pick(rng, lines - 1), Pick(rng, 4),
                            kNumbers[Pick(rng, std::size(kNumbers))]);
          break;
        case 7: {  // CRLF line ends
          for (std::size_t at = text.find('\n'); at != std::string::npos;
               at = text.find('\n', at + 2)) {
            text.insert(at, 1, '\r');
          }
          break;
        }
        case 8:  // invalid UTF-8
          text.insert(Pick(rng, text.size() + 1),
                      kBadUtf8[Pick(rng, std::size(kBadUtf8))]);
          break;
      }
    }
    if (trial == kTrials / 2) {
      // One 16 MB line: a record padded to 16 MB with blanks.
      text += "100 0 1 4" + std::string(std::size_t{16} << 20, ' ') + "\n";
    }
    const std::string path = WriteTempTrace("mutation.trace", text);
    try {
      Workload w;
      w.arrival = ArrivalProcess::Parse("trace:" + path);
      w.Validate(sys);
      ++loaded;
    } catch (const std::invalid_argument& e) {
      ASSERT_FALSE(std::string(e.what()).empty()) << "trial " << trial;
    }
    // Any other exception type escapes and fails the test.
  }
  // The sweep must reach both outcomes to mean anything.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kTrials);
}

TEST(ArrivalProcess, NonPoissonWorkloadsCarryTheApproximationNote) {
  Workload poisson;
  EXPECT_EQ(poisson.ModelApproximationNote(), nullptr);
  Workload bursty;
  bursty.arrival = ArrivalProcess::Mmpp(4.0, 8.0);
  ASSERT_NE(bursty.ModelApproximationNote(), nullptr);
  EXPECT_NE(std::string(bursty.ModelApproximationNote())
                .find("Allen-Cunneen"),
            std::string::npos);
  // mmpp:1 is exactly Poisson — no note, per the bit-identity contract.
  Workload unit;
  unit.arrival = ArrivalProcess::Mmpp(1.0, 8.0);
  EXPECT_EQ(unit.ModelApproximationNote(), nullptr);
  // Permutation + bursty stacks both caveats into one line.
  Workload both;
  both.pattern = WorkloadPattern::kPermutation;
  both.arrival = ArrivalProcess::Mmpp(4.0, 8.0);
  ASSERT_NE(both.ModelApproximationNote(), nullptr);
  const std::string note = both.ModelApproximationNote();
  EXPECT_NE(note.find("permutation"), std::string::npos);
  EXPECT_NE(note.find("Allen-Cunneen"), std::string::npos);
}

/// Model-vs-sim divergence (percent of the sim mean) at one operating
/// point. Uses a modest replicated budget: the pin is a tolerance band,
/// not a bit-identity.
double ModelVsSimErrPct(const SystemConfig& sys, const Workload& wl,
                        double rate) {
  SimConfig cfg;
  cfg.lambda_g = rate;
  cfg.seed = 5;
  cfg.warmup_messages = 600;
  cfg.measured_messages = 6000;
  cfg.drain_messages = 600;
  cfg.workload = wl;
  const CocSystemSim sim(sys);
  const double sim_mean = sim.Run(cfg).latency.Mean();
  const CompiledModel model(sys, wl);
  const double model_mean = model.Evaluate(rate).mean_latency;
  return 100.0 * std::abs(model_mean - sim_mean) / sim_mean;
}

TEST(ArrivalProcess, ModelTracksSimWithinPinnedToleranceWhenBursty) {
  // The Allen-Cunneen correction is a two-moment approximation; these
  // tolerances pin the observed divergence band per topology family at a
  // moderate operating point (see README "Arrival processes & traces").
  const MessageFormat fmt{16, 64};
  Workload bursty;
  bursty.arrival = ArrivalProcess::Mmpp(4.0, 8.0);
  EXPECT_LT(ModelVsSimErrPct(MakeTinySystem(fmt), bursty, 1e-4), 12.0);
  EXPECT_LT(ModelVsSimErrPct(MakeSmallSystem(fmt), bursty, 1e-4), 12.0);
  EXPECT_LT(ModelVsSimErrPct(MakeMixedTopologySystem(fmt), bursty, 1e-4),
            15.0);
  EXPECT_LT(ModelVsSimErrPct(MakeDragonflySystem(fmt), bursty, 1e-4), 15.0);
}

TEST(ArrivalProcess, ModelTracksSimWithinPinnedToleranceOnTraceReplay) {
  // A bursty trace (dumped from an MMPP run so its rate matches lambda_g)
  // drives the model through the empirical-SCV path; same pinned band.
  const MessageFormat fmt{16, 64};
  const struct {
    const char* name;
    SystemConfig sys;
    double tol_pct;
  } kFamilies[] = {
      {"tree", MakeTinySystem(fmt), 12.0},
      {"mixed", MakeMixedTopologySystem(fmt), 15.0},
      {"dragonfly", MakeDragonflySystem(fmt), 15.0},
  };
  for (const auto& f : kFamilies) {
    SCOPED_TRACE(f.name);
    SimConfig gen;
    gen.lambda_g = 1e-4;
    gen.seed = 9;
    gen.workload.arrival = ArrivalProcess::Mmpp(4.0, 8.0);
    const auto events = GenerateTraffic(f.sys, gen, 7200);
    std::string dump;
    char buf[128];
    for (const auto& e : events) {
      std::snprintf(buf, sizeof buf, "%.17g %lld %lld %d\n", e.time,
                    static_cast<long long>(e.src),
                    static_cast<long long>(e.dst), e.flits);
      dump += buf;
    }
    const std::string path = WriteTempTrace(
        std::string("tolerance_") + f.name + ".trace", dump);
    Workload wl;
    wl.arrival = ArrivalProcess::TraceReplay(path);
    EXPECT_GT(wl.arrival.ArrivalScv(), 1.5);  // the burstiness survived
    EXPECT_LT(ModelVsSimErrPct(f.sys, wl, 1e-4), f.tol_pct);
  }
}

}  // namespace
}  // namespace coc
