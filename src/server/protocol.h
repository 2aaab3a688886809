// The evaluation server's wire protocol, factored free of sockets: a
// RequestHandler maps one newline-delimited JSON request line to one
// response line. EvalServer (server.h) feeds it connection bytes; the
// bench drives it directly; tests can exercise every protocol path without
// opening a port.
//
// Requests (one compact JSON object per line):
//   {"op": "evaluate", "scenario": "<one [scenario] INI section>",
//    "deadline_ms": 250}                 // deadline optional
//   {"op": "batch", "scenarios": "<scenario batch INI text>", ...}
//   {"op": "stats"}
//   {"op": "shutdown"}                   // ask the server to drain
//
// Responses (one line each):
//   evaluate  → the scenario's schema_version-3 Report JSON plus
//               "cache": "hit"|"miss" and a "server": {"elapsed_ms": ..}
//               timing block;
//   batch     → the offline BatchToJson envelope, each report carrying its
//               own "cache" field, plus an envelope-level "server" block;
//   stats     → schema_version 2: {"schema_version", "cache": {"capacity",
//               "entries", "hits", "misses", "evictions"}, "engine": {..},
//               "server": {"requests", "protocol_errors", "connections",
//               "shed"}} counters (a miss is one scenario evaluated);
//   failures  → {"status": {"code", "ok": false, "message"}} in the
//               common/status.h taxonomy (a line that is not JSON, or a
//               field of the wrong type, is a usage_error). A malformed
//               line never tears the connection: framing keeps the stream
//               in sync and the next request is served normally.
//
// Results are bit-identical to offline batch runs for any worker count:
// every scenario evaluates through Engine::EvaluateBatch and is rendered on
// its miss, compact and with no tree (Report::ToJsonText(), the bytes of
// Report::ToJson().Dump()), into the result cache. Responses are spliced
// from those bytes: each report is reopened at its closing '}' for its
// "cache" field, and the "server" block closes the response — byte for byte
// the dump of the report tree with those keys added.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "api/engine.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "server/result_cache.h"

namespace coc {

class RequestHandler {
 public:
  RequestHandler(const Engine::Options& engine_opts, std::size_t cache_entries,
                 FaultInjector faults)
      : engine_(engine_opts), cache_(cache_entries), faults_(std::move(faults)) {}

  /// Dispatches one request line (without or with its trailing newline) and
  /// returns the one-line response, newline included. Never throws: every
  /// failure becomes a structured status response. An "op":"shutdown"
  /// request sets *shutdown_requested (when given) after answering ok.
  std::string HandleLine(const std::string& line,
                         bool* shutdown_requested = nullptr);

  /// The "stats" verb's payload: result-cache, Engine-cache and server
  /// request counters.
  Json StatsJson() const;

  // Socket-layer accounting (EvalServer calls these; they only feed the
  // "server" block of StatsJson).
  void CountConnection() { ++connections_; }
  void CountShed() { ++shed_; }
  void CountProtocolError() { ++protocol_errors_; }

  Engine& engine() { return engine_; }
  const ResultCache& cache() const { return cache_; }

 private:
  /// Answers evaluate (one scenario) and batch (envelope) requests.
  std::string Evaluate(const Json& request, bool envelope);

  Engine engine_;
  ResultCache cache_;
  const FaultInjector faults_;
  std::atomic<std::uint64_t> requests_{0};  ///< admitted evaluate/batch ops
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> shed_{0};
};

}  // namespace coc
