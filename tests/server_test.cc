// The evaluation server: result-cache semantics (LRU, single-flight),
// protocol handling, loopback round-trips pinned byte-identical to offline
// EvaluateBatch, admission control, fault injection, and graceful drain.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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

TEST(ResultCache, SingleFlightComputesOnceAcrossConcurrentCallers) {
  ResultCache cache(8);
  std::atomic<int> computes{0};
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  bool leader_entered = false;
  const auto compute = [&] {
    ++computes;
    std::unique_lock<std::mutex> lock(m);
    leader_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    return Value("v");
  };
  std::vector<std::thread> callers;
  std::atomic<int> hits{0};
  for (int i = 0; i < 4; ++i) {
    callers.emplace_back([&] {
      const ResultCache::Lookup r = cache.GetOrCompute("k", compute);
      EXPECT_EQ(r.report.AsString(), "v");
      if (r.hit) ++hits;
    });
  }
  {
    // Wait until the leader is inside compute, then let the waiters pile
    // up behind the in-flight record before releasing.
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return leader_entered; });
    release = true;
    cv.notify_all();
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(computes.load(), 1);  // single flight: one compute for four calls
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 3u);  // every non-leader caller is a hit
  EXPECT_EQ(hits.load(), 3);
  // Hits split between coalesced waiters and resident-entry reads depending
  // on when each thread got scheduled; only the bound is deterministic.
  EXPECT_LE(stats.coalesced, stats.hits);
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

std::string EvaluateLine(const std::string& scenario_text) {
  Json request = Json::Object();
  request.Set("op", "evaluate");
  request.Set("scenario", scenario_text);
  return JsonLine(request);
}

std::string BatchLine(const std::string& scenarios_text) {
  Json request = Json::Object();
  request.Set("op", "batch");
  request.Set("scenarios", scenarios_text);
  return JsonLine(request);
}

/// Strips the server-appended fields, rebuilding the envelope in offline
/// key order, so responses compare byte-for-byte against BatchToJson.
std::string CanonicalBatchDump(const Json& response) {
  Json envelope = Json::Object();
  envelope.Set("schema_version", *response.Find("schema_version"));
  Json array = Json::Array();
  const Json* reports = response.Find("reports");
  for (std::size_t i = 0; i < reports->Size(); ++i) {
    Json report = reports->At(i);
    report.Remove("cache");
    report.Remove("server");
    array.Push(std::move(report));
  }
  envelope.Set("reports", std::move(array));
  return envelope.Dump(2);
}

TEST(RequestHandler, MalformedLinesAnswerStructurallyAndKeepServing) {
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  const Json bad = Json::Parse(handler.HandleLine("{not json"));
  EXPECT_EQ(bad.Find("status")->Find("code")->AsString(), "scenario_error");
  EXPECT_FALSE(bad.Find("status")->Find("ok")->AsBool());
  const Json no_op = Json::Parse(handler.HandleLine("{\"x\":1}"));
  EXPECT_EQ(no_op.Find("status")->Find("code")->AsString(), "usage_error");
  const Json unknown = Json::Parse(handler.HandleLine("{\"op\":\"frob\"}"));
  EXPECT_EQ(unknown.Find("status")->Find("code")->AsString(), "usage_error");
  // Nesting past the parser's depth cap is a status line, not a crash.
  const Json deep =
      Json::Parse(handler.HandleLine(std::string(100 * 1024, '[')));
  EXPECT_EQ(deep.Find("status")->Find("code")->AsString(), "scenario_error");
  EXPECT_NE(deep.Find("status")->Find("message")->AsString().find("nesting"),
            std::string::npos);
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
  EXPECT_EQ(stats.Find("server")->Find("evaluated_scenarios")->AsInt(), 3);
  EXPECT_EQ(stats.Find("server")->Find("requests")->AsInt(), 2);
}

TEST(RequestHandler, ResponsesMatchOfflineEvaluateBatchByteForByte) {
  RequestHandler handler(Engine::Options{}, 8, FaultInjector{});
  const Json served = Json::Parse(handler.HandleLine(BatchLine(kBatchScenarios)));
  Engine offline;
  const std::vector<Report> reports =
      offline.EvaluateBatch(ParseScenarios(kBatchScenarios), {});
  EXPECT_EQ(CanonicalBatchDump(served), BatchToJson(reports).Dump(2));
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
  // Strip the timing block (wall-clock) before comparing the neighbors.
  const auto strip = [](const std::string& line) {
    Json doc = Json::Parse(line);
    doc.Remove("server");
    return doc.Dump(2);
  };
  EXPECT_EQ(strip(first), strip(baseline));
  // Request 2 re-serves request 0's cached result: same bytes, cache hit.
  Json third_doc = Json::Parse(third);
  EXPECT_EQ(third_doc.Find("cache")->AsString(), "hit");
  third_doc.Remove("server");
  third_doc.Remove("cache");
  Json baseline_doc = Json::Parse(baseline);
  baseline_doc.Remove("server");
  baseline_doc.Remove("cache");
  EXPECT_EQ(third_doc.Dump(2), baseline_doc.Dump(2));
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

  std::string ReadLine() {
    std::string buffer;
    char chunk[4096];
    for (;;) {
      const auto eol = buffer.find('\n');
      if (eol != std::string::npos) return buffer.substr(0, eol);
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return buffer;  // EOF: return what we have (maybe empty)
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
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
