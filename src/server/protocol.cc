#include "server/protocol.h"

#include <chrono>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/report.h"
#include "api/scenario.h"
#include "common/status.h"

namespace coc {
namespace {

/// The request line as JSON; one that does not parse is a usage error.
Json ParseRequest(const std::string& line) {
  try {
    return Json::Parse(line);
  } catch (const std::invalid_argument& e) {
    throw UsageError(std::string("request is not JSON: ") + e.what());
  }
}

/// A request field that must be present and a JSON string.
const std::string& StringField(const Json& request, const char* name) {
  const Json* value = request.Find(name);
  if (value == nullptr || value->kind() != Json::Kind::kString) {
    throw UsageError(std::string("request field \"") + name + "\" " +
                     (value == nullptr ? "is missing" : "must be a string"));
  }
  return value->AsString();
}

}  // namespace

std::string RequestHandler::HandleLine(const std::string& line,
                                       bool* shutdown_requested) {
  Json response;
  try {
    const Json request = ParseRequest(line);
    const std::string& verb = StringField(request, "op");
    if (verb == "evaluate" || verb == "batch") {
      return Evaluate(request, /*envelope=*/verb == "batch");
    }
    if (verb == "stats") {
      response = StatsJson();
    } else if (verb == "shutdown") {
      if (shutdown_requested != nullptr) *shutdown_requested = true;
      response = JsonStatusMessage(StatusCode::kOk, "draining");
    } else {
      throw UsageError("unknown op '" + verb +
                       "' (use evaluate, batch, stats or shutdown)");
    }
  } catch (const std::exception& e) {
    ++protocol_errors_;
    response = JsonStatusMessage(ErrorCodeOf(e), e.what());
  }
  return JsonLine(response);
}

std::string RequestHandler::Evaluate(const Json& request, bool envelope) {
  const auto start = std::chrono::steady_clock::now();
  // The admitted-request sequence number keys the "server" fault site: an
  // armed request fails structurally before touching the Engine or the
  // cache, so its neighbors (and any cached entry for the same scenario)
  // are untouched.
  const int request_index = static_cast<int>(requests_.fetch_add(1));
  if (faults_.Armed(FaultInjector::Site::kServer, request_index)) {
    throw std::runtime_error("injected server fault (site server, request " +
                             std::to_string(request_index) + ")");
  }

  const std::vector<Scenario> scenarios =
      ParseScenarios(StringField(request, envelope ? "scenarios" : "scenario"));
  if (!envelope && scenarios.size() != 1) {
    throw UsageError("op \"evaluate\" takes exactly one [scenario] section (" +
                     std::to_string(scenarios.size()) +
                     " given); use op \"batch\" for more");
  }

  Engine::BatchOptions opts;
  // Parallelism lives across requests (the server's worker pool); inside
  // one request the batch runs serially, which is also the bit-identity
  // guarantee's simplest witness.
  opts.threads = 1;
  if (const Json* deadline = request.Find("deadline_ms")) {
    const Json::Kind kind = deadline->kind();
    if ((kind != Json::Kind::kInt && kind != Json::Kind::kDouble) ||
        !(deadline->AsDouble() > 0)) {
      throw UsageError("request field \"deadline_ms\" must be a number > 0");
    }
    opts.default_deadline_ms = deadline->AsDouble();
  }

  // Spliced from the cached compact bytes (see protocol.h).
  std::string out = envelope ? "{\"schema_version\":" +
                                   std::to_string(kReportSchemaVersion) +
                                   ",\"reports\":["
                             : "";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    // Content address: the canonical serialization, so two spellings of the
    // same scenario share one entry. The request deadline is deliberately
    // not part of the key — only ok reports are cached, a deadline can only
    // remove results (by tripping, which is not ok and not cached), so a
    // cached ok report is valid under any deadline.
    const ResultCache::Lookup lookup =
        cache_.GetOrCompute(scenario.Serialize(), [&] {
          const std::vector<Report> reports =
              engine_.EvaluateBatch({scenario}, opts);
          ResultCache::Computed computed;
          computed.report = reports.front().ToJsonText();
          computed.cacheable = reports.front().status.ok();
          return computed;
        });
    const std::string& report = lookup.report.AsString();
    if (i != 0) out += ',';
    out.append(report, 0, report.size() - 1);
    out += lookup.hit ? ",\"cache\":\"hit\"" : ",\"cache\":\"miss\"";
    if (envelope) out += '}';
  }
  if (envelope) out += ']';
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  out += ",\"server\":{\"elapsed_ms\":" + JsonNumber(elapsed.count()) + "}}\n";
  return out;
}

Json RequestHandler::StatsJson() const {
  // Every counter is far below INT64_MAX, so it dumps as a plain integer.
  const auto counters =
      [](std::initializer_list<std::pair<const char*, std::uint64_t>> fields) {
        Json block = Json::Object();
        for (const auto& [name, value] : fields) block.Set(name, value);
        return block;
      };
  const ResultCache::Stats c = cache_.GetStats();
  const Engine::CacheStats e = engine_.Stats();
  Json j = Json::Object();
  j.Set("schema_version", 2);
  j.Set("cache", counters({{"capacity", c.capacity}, {"entries", c.entries},
                           {"hits", c.hits}, {"misses", c.misses},
                           {"evictions", c.evictions}}));
  j.Set("engine", counters({{"systems", e.systems}, {"sims", e.sims},
                            {"models", e.models},
                            {"model_rebinds", e.model_rebinds},
                            {"rebind_evictions", e.rebind_evictions},
                            {"model_evictions", e.model_evictions},
                            {"system_evictions", e.system_evictions},
                            {"saturation_searches", e.saturation_searches},
                            {"saturation_probes", e.saturation_probes}}));
  j.Set("server",
        counters({{"requests", requests_.load()},
                  {"protocol_errors", protocol_errors_.load()},
                  {"connections", connections_.load()},
                  {"shed", shed_.load()}}));
  return j;
}

}  // namespace coc
