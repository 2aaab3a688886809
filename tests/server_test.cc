// The evaluation server: result-cache semantics (LRU; concurrent misses each
// compute under their own deadline), protocol handling and a seeded mutation
// property over HandleLine, loopback round-trips pinned byte-identical to
// offline EvaluateBatch, line framing and its length bound, admission
// control, fault injection, and graceful drain.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "cli/cli.h"
#include "common/json.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "ini_mutation.h"

namespace coc {
namespace {

// ---------------------------------------------------------------------------
// ResultCache.

ResultCache::Computed Value(const std::string& text, bool cacheable = true) {
  ResultCache::Computed c;
  c.report = Json(text);
  c.cacheable = cacheable;
  return c;
}

TEST(ResultCache, HitMissEvictionInLruOrder) {
  ResultCache cache(2);
  int computes = 0;
  const auto get = [&](const std::string& key) {
    return cache.GetOrCompute(key, [&] {
      ++computes;
      return Value(key);
    });
  };
  EXPECT_FALSE(get("a").hit);
  EXPECT_FALSE(get("b").hit);
  EXPECT_EQ(computes, 2);
  // Hits serve the stored value and refresh recency.
  const ResultCache::Lookup a = get("a");
  EXPECT_TRUE(a.hit);
  EXPECT_EQ(a.report.AsString(), "a");
  EXPECT_EQ(computes, 2);
  // Inserting past capacity evicts the least recently used ("b", since the
  // hit above touched "a" to the front).
  EXPECT_FALSE(get("c").hit);
  EXPECT_TRUE(get("a").hit);
  EXPECT_FALSE(get("b").hit);  // evicted: recomputes (and evicts "c")
  EXPECT_EQ(computes, 4);
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(ResultCache, NonCacheableResultsAreReturnedButNotStored) {
  ResultCache cache(8);
  int computes = 0;
  for (int i = 0; i < 3; ++i) {
    const ResultCache::Lookup r = cache.GetOrCompute("k", [&] {
      ++computes;
      return Value("v", /*cacheable=*/false);
    });
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.report.AsString(), "v");
  }
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCache, ZeroCapacityDisablesStorageOnly) {
  ResultCache cache(0);
  int computes = 0;
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(cache.GetOrCompute("k", [&] {
      ++computes;
      return Value("v");
    }).hit);
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCache, ConcurrentMissRunsItsOwnComputeWithoutWaiting) {
  // While one miss of "k" is blocked inside its compute, a second miss of
  // "k" runs its own compute and returns its own result: it never waits on
  // the first, nor takes the first's (here non-cacheable) result. A
  // watchdog releases the blocked compute after 2 s, so a cache that makes
  // the second call wait fails this test instead of hanging it.
  ResultCache cache(8);
  std::mutex m;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  std::thread first([&] {
    const ResultCache::Lookup r = cache.GetOrCompute("k", [&] {
      std::unique_lock<std::mutex> lock(m);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      return Value("first", /*cacheable=*/false);
    });
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.report.AsString(), "first");
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return entered; });
  }
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait_for(lock, std::chrono::seconds(2), [&] { return release; });
    release = true;
    cv.notify_all();
  });

  int computes = 0;
  const ResultCache::Lookup second = cache.GetOrCompute("k", [&] {
    ++computes;
    return Value("second");
  });
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
    cv.notify_all();
  }
  watchdog.join();
  first.join();

  EXPECT_EQ(computes, 1);
  EXPECT_FALSE(second.hit);
  EXPECT_EQ(second.report.AsString(), "second");
  // Only the second result was cacheable, so it is the one kept.
  const ResultCache::Lookup third = cache.GetOrCompute("k", [&] {
    ++computes;
    return Value("third");
  });
  EXPECT_TRUE(third.hit);
  EXPECT_EQ(third.report.AsString(), "second");
  EXPECT_EQ(computes, 1);
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCache, LeaderFailurePropagatesToWaitersAndCachesNothing) {
  ResultCache cache(8);
  std::atomic<int> computes{0};
  const auto failing = [&]() -> ResultCache::Computed {
    ++computes;
    throw std::runtime_error("boom");
  };
  EXPECT_THROW(cache.GetOrCompute("k", failing), std::runtime_error);
  // The failure was not cached: the next call computes again.
  EXPECT_THROW(cache.GetOrCompute("k", failing), std::runtime_error);
  EXPECT_EQ(computes.load(), 2);
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Protocol (RequestHandler, no sockets).

constexpr const char* kOneScenario = R"(
[scenario tree-uniform]
system = preset:tiny:16:64
analyses = model,bottleneck,saturation
rate = 1e-4
)";

constexpr const char* kBatchScenarios = R"(
[scenario a-model]
system = preset:tiny:16:64
analyses = model,saturation
rate = 1e-4

[scenario b-local]
system = preset:tiny:16:64
analyses = model
rate = 1e-4
workload.pattern = local
workload.locality = 0.7

[scenario c-sim]
system = preset:tiny:8:32
analyses = sim
rate = 1e-4
sim.messages = 300
)";

/// An evaluate request line; `deadline_ms` > 0 adds a request deadline.
std::string EvaluateLine(const std::string& scenario_text,
                         int deadline_ms = 0) {
  Json request = Json::Object();
  request.Set("op", "evaluate");
  request.Set("scenario", scenario_text);
  if (deadline_ms > 0) request.Set("deadline_ms", deadline_ms);
  return JsonLine(request);
}

std::string BatchLine(const std::string& scenarios_text, int deadline_ms = 0) {
  Json request = Json::Object();
  request.Set("op", "batch");
  request.Set("scenarios", scenarios_text);
  if (deadline_ms > 0) request.Set("deadline_ms", deadline_ms);
  return JsonLine(request);
}

/// `line` (newline included) without its trailing ,"server":{...} timing
/// block, the one wall-clock field of a response, removed by string edit.
std::string WithoutServerBlock(std::string line) {
  const std::string block = ",\"server\":{\"elapsed_ms\":";
  const auto at = line.rfind(block);
  EXPECT_TRUE(at != std::string::npos && line.size() >= 3 &&
              line.compare(line.size() - 3, 3, "}}\n") == 0)
      << line;
  if (at == std::string::npos) return line;
  // The block holds one number; the response's own '}' and '\n' stay.
  EXPECT_GE(Json::Parse(line.substr(at + block.size(),
                                    line.size() - 3 - at - block.size()))
                .AsDouble(),
            0.0);
  line.erase(at, line.size() - 2 - at);
  return line;
}

/// The served line as the offline compact Dump would spell it: the server
/// block and every ,"cache":"..." marker removed by string edit, with each
/// marker's value appended to `markers` in order.
std::string WithoutServedFields(const std::string& line,
                                std::vector<std::string>& markers) {
  std::string out = WithoutServerBlock(line);
  out.pop_back();  // '\n'
  const std::string marker = ",\"cache\":\"";
  for (auto at = out.find(marker); at != std::string::npos;
       at = out.find(marker, at)) {
    const auto end = out.find('"', at + marker.size());
    markers.push_back(out.substr(at + marker.size(),
                                 end - at - marker.size()));
    out.erase(at, end + 1 - at);
  }
  return out;
}

/// Strips the server-appended fields from the response's compact dump, so
/// responses compare byte-for-byte against BatchToJson.
std::string CanonicalBatchDump(const Json& response) {
  std::vector<std::string> markers;
  return Json::Parse(WithoutServedFields(JsonLine(response), markers)).Dump(2);
}

TEST(RequestHandler, MalformedLinesAnswerStructurallyAndKeepServing) {
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  // Each malformed line answers a structured status naming what is wrong:
  // a request the client got wrong is a usage_error, whether it is not
  // JSON, nests past the parser's depth cap, or gives a field the wrong
  // type. INI text that ParseScenarios rejects is a scenario_error.
  const std::string one_scenario = EvaluateLine(kOneScenario);
  const std::string soon_deadline =
      one_scenario.substr(0, one_scenario.size() - 2) +
      ",\"deadline_ms\":\"soon\"}";
  const std::vector<std::tuple<std::string, std::string, std::string>> rows =
      {
          {"{not json", "usage_error", "not JSON"},
          {std::string(100 * 1024, '['), "usage_error", "nesting"},
          {"{\"x\":1}", "usage_error", "\"op\" is missing"},
          {"{\"op\":\"frob\"}", "usage_error", "unknown op 'frob'"},
          {"{\"op\":5}", "usage_error", "\"op\" must be a string"},
          {"{\"op\":\"evaluate\",\"scenario\":7}", "usage_error",
           "\"scenario\" must be a string"},
          {"{\"op\":\"batch\",\"scenarios\":[]}", "usage_error",
           "\"scenarios\" must be a string"},
          {soon_deadline, "usage_error", "\"deadline_ms\" must be a number"},
          {EvaluateLine("[scenario x]\nsystem = preset:tiny\nbogus = 1\n"),
           "scenario_error", "bogus"},
      };
  for (const auto& [line, code, message] : rows) {
    const Json status = *Json::Parse(handler.HandleLine(line)).Find("status");
    EXPECT_EQ(status.Find("code")->AsString(), code) << line.substr(0, 80);
    EXPECT_FALSE(status.Find("ok")->AsBool());
    EXPECT_NE(status.Find("message")->AsString().find(message),
              std::string::npos)
        << status.Find("message")->AsString();
  }
  // The handler still serves real requests after the garbage.
  const Json ok = Json::Parse(handler.HandleLine(EvaluateLine(kOneScenario)));
  EXPECT_TRUE(ok.Find("status")->Find("ok")->AsBool());
  EXPECT_EQ(ok.Find("cache")->AsString(), "miss");
  ASSERT_NE(ok.Find("server"), nullptr);
  EXPECT_NE(ok.Find("server")->Find("elapsed_ms"), nullptr);
}

TEST(RequestHandler, EvaluateRejectsMultiScenarioText) {
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  const Json r = Json::Parse(handler.HandleLine(EvaluateLine(kBatchScenarios)));
  EXPECT_EQ(r.Find("status")->Find("code")->AsString(), "usage_error");
  EXPECT_NE(r.Find("status")->Find("message")->AsString().find("op \"batch\""),
            std::string::npos);
}

TEST(RequestHandler, RepeatedRequestIsACacheHitWithIdenticalBytes) {
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  const std::string line = BatchLine(kBatchScenarios);
  const std::string first = handler.HandleLine(line);
  const std::string second = handler.HandleLine(line);
  const Json doc1 = Json::Parse(first);
  const Json doc2 = Json::Parse(second);
  const Json* reports1 = doc1.Find("reports");
  const Json* reports2 = doc2.Find("reports");
  ASSERT_EQ(reports1->Size(), 3u);
  for (std::size_t i = 0; i < reports1->Size(); ++i) {
    EXPECT_EQ(reports1->At(i).Find("cache")->AsString(), "miss");
    EXPECT_EQ(reports2->At(i).Find("cache")->AsString(), "hit");
  }
  // The cached pass skipped the Engine entirely and changed no report byte.
  EXPECT_EQ(CanonicalBatchDump(doc1), CanonicalBatchDump(doc2));
  const Json stats = Json::Parse(handler.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.Find("cache")->Find("hits")->AsInt(), 3);
  EXPECT_EQ(stats.Find("cache")->Find("misses")->AsInt(), 3);
  EXPECT_EQ(stats.Find("server")->Find("requests")->AsInt(), 2);
}

TEST(RequestHandler, StatsReportSaturationSearchesAndProbes) {
  // The "engine" block counts the Engine's saturation searches and the
  // model evaluations they spent; a cache hit runs neither.
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  const std::string line = EvaluateLine(
      "[scenario sat]\nsystem = preset:1120\nanalyses = saturation\n");
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(Json::Parse(handler.HandleLine(line))
                    .Find("status")->Find("ok")->AsBool());
    const Json stats = Json::Parse(handler.HandleLine("{\"op\":\"stats\"}"));
    EXPECT_EQ(stats.Find("schema_version")->AsInt(), 2);
    const Json* engine = stats.Find("engine");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->Find("saturation_searches")->AsInt(), 1);
    EXPECT_EQ(engine->Find("saturation_probes")->AsInt(), 1);
  }
}

TEST(RequestHandler, ResponsesMatchOfflineEvaluateBatchByteForByte) {
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  const Json served = Json::Parse(handler.HandleLine(BatchLine(kBatchScenarios)));
  Engine offline;
  const std::vector<Report> reports =
      offline.EvaluateBatch(ParseScenarios(kBatchScenarios), {});
  EXPECT_EQ(CanonicalBatchDump(served), BatchToJson(reports).Dump(2));
}

TEST(RequestHandler, ServedBytesAreTheOfflineCompactDumpPlusSplicedFields) {
  // Raw served lines, never re-parsed: a parse and re-Dump would hide drift
  // in spacing, number spelling and key order. The batch carries a name that
  // needs escaping, a rate past saturation (ok status, cached, with a
  // "_nonfinite" sentinel) and a broken system (never cached).
  const std::string sat =
      "[scenario sat \"q\" \\ \xc3\xa9\ttab]\nsystem = preset:tiny\n"
      "analyses = model,bottleneck\nrate = 1\n";
  const std::string batch = sat + kBatchScenarios +
                            "\n[scenario broken]\n"
                            "system = /no/such/system.conf\n"
                            "analyses = model\nrate = 1e-4\n";
  Engine offline;
  const std::vector<Report> reports =
      offline.EvaluateBatch(ParseScenarios(batch), {});
  ASSERT_EQ(reports.size(), 5u);
  ASSERT_TRUE(reports.front().status.ok());
  ASSERT_FALSE(reports.back().status.ok());
  const std::string offline_batch = BatchToJson(reports).Dump();
  const std::string offline_sat = reports.front().ToJson().Dump();
  ASSERT_NE(offline_sat.find("\"mean_latency_us_nonfinite\":\"inf\""),
            std::string::npos);
  ASSERT_NE(offline_sat.find("sat \\\"q\\\" \\\\ \xc3\xa9\\ttab"),
            std::string::npos);

  RequestHandler evaluate(Engine::Options{}, 8, FaultInjector{});
  RequestHandler batched(Engine::Options{}, 8, FaultInjector{});
  for (const char* pass : {"miss", "hit"}) {
    std::vector<std::string> markers;
    EXPECT_EQ(WithoutServedFields(evaluate.HandleLine(EvaluateLine(sat)),
                                  markers),
              offline_sat)
        << pass;
    EXPECT_EQ(markers, std::vector<std::string>({pass}));

    markers.clear();
    EXPECT_EQ(WithoutServedFields(batched.HandleLine(BatchLine(batch)),
                                  markers),
              offline_batch)
        << pass;
    // The broken scenario misses on both passes: failures are not cached.
    EXPECT_EQ(markers,
              std::vector<std::string>({pass, pass, pass, pass, "miss"}));
  }
  EXPECT_EQ(batched.cache().GetStats().entries, 4u);
}

TEST(RequestHandler, FailedScenariosAreNotCached) {
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  const std::string line = BatchLine(
      "[scenario broken]\nsystem = /no/such/system.conf\n"
      "analyses = model\nrate = 1e-4\n");
  for (int pass = 0; pass < 2; ++pass) {
    const Json doc = Json::Parse(handler.HandleLine(line));
    const Json& report = doc.Find("reports")->At(0);
    EXPECT_FALSE(report.Find("status")->Find("ok")->AsBool());
    // Never a hit: failures are recomputed, not pinned.
    EXPECT_EQ(report.Find("cache")->AsString(), "miss");
  }
  const Json stats = Json::Parse(handler.HandleLine("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.Find("cache")->Find("entries")->AsInt(), 0);
}

TEST(RequestHandler, EachRequestEvaluatesUnderItsOwnDeadline) {
  // The same slow sim twice: first under a 20 ms deadline, then, while that
  // one is evaluating, with none. The second evaluates on its own and
  // answers ok; it never takes the first's deadline trip as a hit.
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  const std::string scenario =
      "[scenario slow]\nsystem = preset:tiny\nanalyses = sim\n"
      "rate = 1e-4\nsim.messages = 20000\n";
  std::string hurried;
  std::thread first(
      [&] { hurried = handler.HandleLine(EvaluateLine(scenario, 20)); });
  while (handler.cache().GetStats().misses == 0) std::this_thread::yield();
  const Json patient = Json::Parse(handler.HandleLine(EvaluateLine(scenario)));
  first.join();
  EXPECT_EQ(Json::Parse(hurried).Find("status")->Find("code")->AsString(),
            "deadline_exceeded");
  EXPECT_EQ(patient.Find("status")->Find("code")->AsString(), "ok");
  EXPECT_EQ(patient.Find("cache")->AsString(), "miss");
  EXPECT_NE(patient.Find("sim"), nullptr);
}

/// True when `doc` carries a {"code": string, "ok": bool, ...} status block.
bool HasStatusBlock(const Json& doc) {
  const Json* status = doc.Find("status");
  if (status == nullptr) return false;
  const Json* code = status->Find("code");
  const Json* ok = status->Find("ok");
  return code != nullptr && code->kind() == Json::Kind::kString &&
         ok != nullptr && ok->kind() == Json::Kind::kBool;
}

TEST(RequestHandler, MutationPropertyAnswersOneStructuredLine) {
  // Seeded mutations of valid evaluate and batch lines: the five INI
  // operators (on the scenario text before it is encoded, or on the wire
  // bytes), deep nesting, invalid UTF-8, NaN/Infinity literals and an
  // embedded newline, and in every 100th trial a 1 MB string first (a
  // sanitized Debug build parses one in about 0.4 s). HandleLine must never
  // throw and must answer exactly one '\n'-terminated JSON line: a reply
  // with a status block, a batch envelope whose reports each carry one, or
  // the stats payload. The bases are model-only preset:tiny scenarios under
  // a request deadline, so every trial is cheap; the suite runs under
  // ASan/UBSan in CI.
  const std::string kModel =
      "[scenario mut]\nsystem = preset:tiny\nanalyses = model,bottleneck\n"
      "rate = 2.5e-4\nworkload.pattern = local\nworkload.locality = 0.7\n";
  const std::string kBatch =
      kModel +
      "\n[scenario mut-2]\nsystem = preset:tiny\nanalyses = model\n"
      "rate = 1e-4\nworkload.msg_len = bimodal:8,64,0.125\n";
  const auto request_line = [](bool batch, const std::string& text) {
    return batch ? BatchLine(text, 250) : EvaluateLine(text, 250);
  };
  const char* const kBadUtf8[] = {"\xff", "\xc3", "\xc0\xaf", "\xed\xa0\x80",
                                  "\xf8\x88\x80\x80\x80"};
  const char* const kNonFinite[] = {"NaN", "Infinity", "-Infinity", "nan",
                                    "1e999"};
  const std::string kHugeField =
      "\"pad\":\"" + std::string(1 << 20, 'x') + "\",";
  Rng rng(20261017);
  // The INI operators, then four that act on the wire bytes only.
  constexpr std::size_t kOperators = kIniMutations + 4;
  const auto mutate_line = [&](std::string& line, std::size_t op) {
    if (op < kIniMutations) {
      MutateIni(line, op, rng);
      return;
    }
    const std::size_t at = Pick(rng, line.size() + 1);
    switch (op - kIniMutations) {
      case 0: {  // nesting on both sides of the parser's 256-level cap
        const std::size_t depth = 1 + Pick(rng, 512);
        line.insert(std::min<std::size_t>(1, line.size()),
                    "\"nest\":" + std::string(depth, '[') +
                        std::string(depth, ']') + ",");
        break;
      }
      case 1:
        line.insert(at, kBadUtf8[Pick(rng, std::size(kBadUtf8))]);
        break;
      case 2: {  // a non-finite deadline_ms, or a literal anywhere
        const char* literal = kNonFinite[Pick(rng, std::size(kNonFinite))];
        const std::string key = "\"deadline_ms\":";
        const auto value = line.find(key);
        if (value == std::string::npos) {
          line.insert(at, literal);
          break;
        }
        const std::size_t from = value + key.size();
        const std::size_t end = line.find_first_of(",}", from);
        line.replace(from,
                     (end == std::string::npos ? line.size() : end) - from,
                     literal);
        break;
      }
      case 3:
        line.insert(at, "\n");
        break;
    }
  };

  RequestHandler handler(Engine::Options{}, 64, FaultInjector{});
  constexpr int kTrials = 1000;
  int evaluated = 0;  // trials answered with a report or a batch envelope
  for (int trial = 0; trial < kTrials; ++trial) {
    const bool batch = trial % 2 == 1;
    std::string text = batch ? kBatch : kModel;
    std::vector<std::size_t> line_ops;
    for (std::size_t m = 1 + Pick(rng, 3); m-- > 0;) {
      const std::size_t op = Pick(rng, kOperators);
      if (op < kIniMutations && rng() % 2 == 0) {
        MutateIni(text, op, rng);  // inside the scenario text
      } else {
        line_ops.push_back(op);
      }
    }
    std::string line = request_line(batch, text);
    if (trial % 100 == 0) line.insert(1, kHugeField);
    for (const std::size_t op : line_ops) mutate_line(line, op);

    std::string response;
    ASSERT_NO_THROW(response = handler.HandleLine(line)) << "trial " << trial;
    ASSERT_FALSE(response.empty()) << "trial " << trial;
    ASSERT_EQ(response.find('\n'), response.size() - 1) << "trial " << trial;
    Json doc;
    ASSERT_NO_THROW(doc = Json::Parse(response)) << "trial " << trial;
    if (const Json* reports = doc.Find("reports")) {
      for (std::size_t i = 0; i < reports->Size(); ++i) {
        EXPECT_TRUE(HasStatusBlock(reports->At(i))) << "trial " << trial;
      }
      ++evaluated;
    } else if (HasStatusBlock(doc)) {
      if (doc.Find("scenario") != nullptr) ++evaluated;
    } else {
      EXPECT_TRUE(doc.Find("cache") != nullptr &&
                  doc.Find("engine") != nullptr &&
                  doc.Find("server") != nullptr)
          << "trial " << trial << ": " << response.substr(0, 200);
    }
  }
  RecordProperty("evaluated", evaluated);
  EXPECT_GT(evaluated, 0);
  EXPECT_LT(evaluated, kTrials);
  // The handler still answers a clean request.
  const Json clean =
      Json::Parse(handler.HandleLine(request_line(false, kModel)));
  EXPECT_TRUE(clean.Find("status")->Find("ok")->AsBool());
}

TEST(RequestHandler, ServerFaultSiteFailsOneRequestAndIsolatesNeighbors) {
  // COC_FAULT="server:1" (here armed directly): the second admitted request
  // answers a structured internal error; requests 0 and 2 are identical to
  // an unfaulted run.
  RequestHandler clean(Engine::Options{}, 8, FaultInjector{});
  const std::string baseline = clean.HandleLine(EvaluateLine(kOneScenario));

  RequestHandler faulted(Engine::Options{}, 8,
                         FaultInjector::Parse("server:1"));
  const std::string first = faulted.HandleLine(EvaluateLine(kOneScenario));
  const Json fault = Json::Parse(faulted.HandleLine(EvaluateLine(kOneScenario)));
  const std::string third = faulted.HandleLine(EvaluateLine(kOneScenario));

  EXPECT_EQ(fault.Find("status")->Find("code")->AsString(), "internal_error");
  EXPECT_NE(fault.Find("status")->Find("message")->AsString().find(
                "injected server fault (site server, request 1)"),
            std::string::npos);
  // Strip the timing block (wall-clock) and the cache markers before
  // comparing the neighbors.
  std::vector<std::string> markers;
  const std::string want = WithoutServedFields(baseline, markers);
  EXPECT_EQ(WithoutServedFields(first, markers), want);
  // Request 2 re-serves request 0's cached result: same bytes, cache hit.
  EXPECT_EQ(WithoutServedFields(third, markers), want);
  EXPECT_EQ(markers, std::vector<std::string>({"miss", "miss", "hit"}));
}

// ---------------------------------------------------------------------------
// EvalServer (sockets, loopback).

/// Minimal line-protocol client for the loopback tests.
class Client {
 public:
  explicit Client(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0)
        << "connect to 127.0.0.1:" << port;
  }
  ~Client() { Close(); }

  void Send(const std::string& line) {
    ASSERT_EQ(send(fd_, line.data(), line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(line.size()));
  }

  /// One-shot: send the request and half-close, so a worker serving this
  /// connection reaches EOF (and the next queued connection) right after
  /// responding.
  void SendAndFinish(const std::string& line) {
    Send(line);
    shutdown(fd_, SHUT_WR);
  }

  /// The next response line, without its newline. Bytes past it stay
  /// buffered for the next call, so pipelined responses are all read.
  std::string ReadLine() {
    char chunk[4096];
    for (;;) {
      const auto eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string line = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return line;
      }
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      // EOF: return what we have (maybe empty).
      if (n <= 0) return std::exchange(buffer_, std::string());
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Disables Nagle, so each small Send leaves as its own segment.
  void NoDelay() {
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

TEST(EvalServer, LoopbackRoundTripMatchesOfflineAndSecondPassAllHits) {
  ServerOptions opts;
  opts.threads = 2;
  EvalServer server(std::move(opts));
  server.Start();

  const std::string line = BatchLine(kBatchScenarios);
  Client first(server.port());
  first.SendAndFinish(line);
  const Json pass1 = Json::Parse(first.ReadLine());
  first.Close();

  Engine offline;
  const std::vector<Report> reports =
      offline.EvaluateBatch(ParseScenarios(kBatchScenarios), {});
  EXPECT_EQ(CanonicalBatchDump(pass1), BatchToJson(reports).Dump(2));

  Client second(server.port());
  second.SendAndFinish(line);
  const Json pass2 = Json::Parse(second.ReadLine());
  second.Close();
  const Json* cached = pass2.Find("reports");
  ASSERT_EQ(cached->Size(), 3u);
  for (std::size_t i = 0; i < cached->Size(); ++i) {
    EXPECT_EQ(cached->At(i).Find("cache")->AsString(), "hit");
  }
  EXPECT_EQ(CanonicalBatchDump(pass2), CanonicalBatchDump(pass1));

  server.Stop();
  EXPECT_EQ(server.Wait(), 0);
}

TEST(EvalServer, PipelinedAndFragmentedLinesAnswerInOrder) {
  ServerOptions opts;
  opts.threads = 2;
  EvalServer server(std::move(opts));
  server.Start();
  RequestHandler reference(ServerOptions{}.engine, 1024, FaultInjector{});
  std::vector<std::string> lines;
  for (int i = 0; i < 65; ++i) {
    lines.push_back(EvaluateLine(
        "[scenario pipe-" + std::to_string(i) +
        "]\nsystem = preset:tiny:16:64\nanalyses = model\nrate = " +
        std::to_string(i + 1) + "e-6\n"));
  }

  // 64 lines in one send: they reach the server in several recv chunks,
  // most lines straddling a chunk boundary.
  Client client(server.port());
  client.NoDelay();
  std::string pipelined;
  for (int i = 0; i < 64; ++i) pipelined += lines[i];
  client.Send(pipelined);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(WithoutServerBlock(client.ReadLine() + "\n"),
              WithoutServerBlock(reference.HandleLine(lines[i])))
        << "response " << i;
  }

  // One line sent 1-7 bytes at a time, its newline alone in the last send.
  const std::string& last = lines.back();
  std::size_t sent = 0;
  for (std::size_t k = 0; sent + 1 < last.size(); ++k) {
    const std::size_t len = std::min<std::size_t>(1 + k % 7,
                                                  last.size() - 1 - sent);
    client.Send(last.substr(sent, len));
    sent += len;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  client.SendAndFinish("\n");
  EXPECT_EQ(WithoutServerBlock(client.ReadLine() + "\n"),
            WithoutServerBlock(reference.HandleLine(last)));
  EXPECT_EQ(client.ReadLine(), "");  // the half-close ends the connection
  client.Close();

  server.Stop();
  EXPECT_EQ(server.Wait(), 0);
}

TEST(EvalServer, OverlongLineAnswersUsageErrorAndKeepsServing) {
  ServerOptions opts;
  opts.threads = 1;
  EvalServer server(std::move(opts));
  server.Start();
  // One byte past the bound with no newline: answered once, skipped through
  // the newline, and the next request on the connection is served.
  Client client(server.port());
  client.Send(std::string(kMaxRequestLineBytes + 1, 'x'));
  client.Send("\n" + EvaluateLine(kOneScenario));
  const Json rejected = Json::Parse(client.ReadLine());
  EXPECT_EQ(rejected.Find("status")->Find("code")->AsString(), "usage_error");
  EXPECT_NE(rejected.Find("status")->Find("message")->AsString().find(
                std::to_string(kMaxRequestLineBytes) + " bytes"),
            std::string::npos);
  const Json report = Json::Parse(client.ReadLine());
  EXPECT_TRUE(report.Find("status")->Find("ok")->AsBool());
  EXPECT_NE(report.Find("model"), nullptr);
  client.Close();

  Client stats(server.port());
  stats.SendAndFinish("{\"op\":\"stats\"}\n");
  const Json counters = Json::Parse(stats.ReadLine());
  EXPECT_EQ(counters.Find("schema_version")->AsInt(), 2);
  EXPECT_EQ(counters.Find("server")->Find("protocol_errors")->AsInt(), 1);
  stats.Close();

  server.Stop();
  EXPECT_EQ(server.Wait(), 0);
}

TEST(EvalServer, FullQueueShedsWithStructuredOverloadedStatus) {
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  std::atomic<int> dispatched{0};
  ServerOptions opts;
  opts.threads = 1;
  opts.max_queue = 1;
  opts.on_dispatch_for_test = [&] {
    if (dispatched.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(m);
      blocked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  };
  EvalServer server(std::move(opts));
  server.Start();

  // First connection occupies the only worker (held inside the dispatch
  // hook); the second fills the one-slot queue; the third must be shed
  // with a structured status, not stalled.
  Client held(server.port());
  held.SendAndFinish(EvaluateLine(kOneScenario));
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return blocked; });
  }
  Client queued(server.port());
  queued.SendAndFinish(EvaluateLine(kOneScenario));
  while (server.PendingForTest() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Client shed(server.port());
  const Json rejected = Json::Parse(shed.ReadLine());
  EXPECT_EQ(rejected.Find("status")->Find("code")->AsString(), "overloaded");
  EXPECT_FALSE(rejected.Find("status")->Find("ok")->AsBool());
  EXPECT_NE(rejected.Find("status")->Find("message")->AsString().find(
                "pending queue full"),
            std::string::npos);
  shed.Close();

  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  // Both admitted requests complete normally after the worker frees up.
  EXPECT_TRUE(
      Json::Parse(held.ReadLine()).Find("status")->Find("ok")->AsBool());
  held.Close();
  EXPECT_TRUE(
      Json::Parse(queued.ReadLine()).Find("status")->Find("ok")->AsBool());
  queued.Close();

  Client stats(server.port());
  stats.SendAndFinish("{\"op\":\"stats\"}\n");
  const Json counters = Json::Parse(stats.ReadLine());
  EXPECT_EQ(counters.Find("server")->Find("shed")->AsInt(), 1);
  stats.Close();

  server.Stop();
  EXPECT_EQ(server.Wait(), 0);
}

TEST(EvalServer, DrainFinishesInFlightAnswersQueuedAndExitsZero) {
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  bool blocked = false;
  std::atomic<int> dispatched{0};
  ServerOptions opts;
  opts.threads = 1;
  opts.max_queue = 4;
  opts.on_dispatch_for_test = [&] {
    if (dispatched.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(m);
      blocked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  };
  EvalServer server(std::move(opts));
  server.Start();

  Client inflight(server.port());
  inflight.SendAndFinish(EvaluateLine(kOneScenario));
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return blocked; });
  }
  Client queued(server.port());
  queued.SendAndFinish(EvaluateLine(kOneScenario));
  while (server.PendingForTest() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server.Stop();
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();

  // In-flight work finishes and its response is written...
  EXPECT_TRUE(
      Json::Parse(inflight.ReadLine()).Find("status")->Find("ok")->AsBool());
  // ...while the queued-but-unstarted connection gets a structured answer
  // instead of a silent close.
  const Json drained = Json::Parse(queued.ReadLine());
  EXPECT_EQ(drained.Find("status")->Find("code")->AsString(), "overloaded");
  EXPECT_NE(drained.Find("status")->Find("message")->AsString().find(
                "draining"),
            std::string::npos);
  EXPECT_EQ(server.Wait(), 0);
}

TEST(EvalServer, ShutdownOpDrainsTheServer) {
  ServerOptions opts;
  opts.threads = 2;
  EvalServer server(std::move(opts));
  server.Start();
  Client client(server.port());
  client.SendAndFinish("{\"op\":\"shutdown\"}\n");
  const Json ack = Json::Parse(client.ReadLine());
  EXPECT_TRUE(ack.Find("status")->Find("ok")->AsBool());
  EXPECT_EQ(ack.Find("status")->Find("message")->AsString(), "draining");
  EXPECT_EQ(server.Wait(), 0);
}

// ---------------------------------------------------------------------------
// The submit client verb against an in-process server.

TEST(EvalServer, SubmitVerbRoundTripsAndReportsCacheState) {
  ServerOptions opts;
  opts.threads = 2;
  EvalServer server(std::move(opts));
  server.Start();
  const std::string port = std::to_string(server.port());

  const std::string path = "/tmp/coc_server_test_submit.cfg";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(kBatchScenarios, f);
    std::fclose(f);
  }
  const auto run = [&](std::vector<std::string> args) {
    std::ostringstream out, err;
    const int code = RunCli(args, out, err);
    return std::tuple<int, std::string, std::string>(code, out.str(),
                                                     err.str());
  };
  const auto [code1, out1, err1] =
      run({"submit", path, "--port", port, "--format", "json"});
  EXPECT_EQ(code1, 0) << err1;
  const Json doc1 = Json::Parse(out1);
  ASSERT_NE(doc1.Find("reports"), nullptr);
  EXPECT_EQ(doc1.Find("reports")->Size(), 3u);

  // Byte-identical to the offline batch on the same file.
  Engine offline;
  const std::vector<Report> reports =
      offline.EvaluateBatch(ParseScenarios(kBatchScenarios), {});
  EXPECT_EQ(CanonicalBatchDump(doc1), BatchToJson(reports).Dump(2));

  // Second submit: every report a cache hit, text mode says so.
  const auto [code2, out2, err2] = run({"submit", path, "--port", port});
  EXPECT_EQ(code2, 0) << err2;
  EXPECT_NE(out2.find("scenario a-model: ok (cache hit)"), std::string::npos)
      << out2;
  EXPECT_NE(out2.find("scenario c-sim: ok (cache hit)"), std::string::npos);

  std::remove(path.c_str());
  server.Stop();
  EXPECT_EQ(server.Wait(), 0);
}

}  // namespace
}  // namespace coc
