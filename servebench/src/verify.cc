#include "verify.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "api/engine.h"
#include "api/report.h"
#include "api/scenario.h"
#include "common/json.h"
#include "server/server.h"

namespace servebench {
namespace {

/// sim_serve's seeded sample: one request in kSimSampleOneIn on top of the
/// first request of every class, at most kSimSampleExtra of them.
constexpr std::uint64_t kSimSampleOneIn = 32;
constexpr std::size_t kSimSampleExtra = 16;

/// Renders request lines offline through a bounded Engine like the
/// server's. With `memo` set, reports are memoized by canonical scenario
/// key — right for hot_mix, whose few hundred scenarios recur in thousands
/// of batches, and wrong for streams of distinct scenarios.
class Renderer {
 public:
  explicit Renderer(bool memo)
      : engine_(coc::ServerOptions{}.engine), memo_(memo) {}

  std::string Render(const std::string& line) {
    const coc::Json request = coc::Json::Parse(line);
    const bool batch = request.Find("op")->AsString() == "batch";
    const std::string& text =
        request.Find(batch ? "scenarios" : "scenario")->AsString();
    std::vector<coc::Report> reports;
    for (const coc::Scenario& s : coc::ParseScenarios(text)) {
      reports.push_back(Evaluate(s));
    }
    if (!batch) return reports.front().ToJson().Dump();
    return coc::BatchToJson(reports).Dump();
  }

 private:
  coc::Report Evaluate(const coc::Scenario& s) {
    coc::Engine::BatchOptions opts;
    opts.threads = 1;
    if (!memo_) return engine_.EvaluateBatch({s}, opts).front();
    const std::string key = s.Serialize();
    const auto it = memo_reports_.find(key);
    if (it != memo_reports_.end()) return it->second;
    coc::Report r = engine_.EvaluateBatch({s}, opts).front();
    memo_reports_.emplace(key, r);
    return r;
  }

  coc::Engine engine_;
  const bool memo_;
  std::map<std::string, coc::Report> memo_reports_;
};

struct Check {
  std::string line;
  std::uint64_t first_index = 0;
  std::vector<const RequestRecord*> records;
  Digest offline;
  std::string error;
};

}  // namespace

std::string OfflineRender(const std::string& line) {
  return Renderer(/*memo=*/false).Render(line);
}

VerifyResult Verify(const Generator& gen, const LoadResult& load,
                    int threads) {
  std::unordered_map<std::string, std::size_t> slot;
  std::vector<Check> checks;
  const auto add = [&](const RequestRecord& rec, std::string line) {
    if (rec.status == RequestRecord::kTransport) return;  // no response
    const auto [it, fresh] = slot.try_emplace(line, checks.size());
    if (fresh) {
      checks.push_back(Check{std::move(line), rec.index, {}, {}, {}});
    }
    checks[it->second].records.push_back(&rec);
  };
  for (const RequestRecord& rec : load.warmup) {
    add(rec, gen.warmup()[rec.index]);
  }
  if (gen.kind() == WorkloadKind::kSimServe) {
    // A seeded sample: the lowest-index request of every class, plus every
    // request the seed's sampler picks, up to a cap.
    std::vector<const RequestRecord*> sorted;
    for (const RequestRecord& rec : load.measured) sorted.push_back(&rec);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->index < b->index; });
    std::vector<bool> seen(static_cast<std::size_t>(gen.num_classes()), false);
    std::size_t extra = 0;
    for (const RequestRecord* rec : sorted) {
      GeneratedRequest req = gen.Measured(rec->index);
      const auto cls = static_cast<std::size_t>(req.cls);
      const bool sampled =
          extra < kSimSampleExtra &&
          StreamRng(gen.seed(), 6, rec->index).Below(kSimSampleOneIn) == 0;
      if (!seen[cls] || sampled) {
        if (seen[cls]) ++extra;
        seen[cls] = true;
        add(*rec, std::move(req.line));
      }
    }
  } else {
    for (const RequestRecord& rec : load.measured) {
      add(rec, gen.Measured(rec.index).line);
    }
  }
  // Contiguous stream blocks per thread keep each thread's Engine walking
  // adjacent workloads, as the server's did.
  std::sort(checks.begin(), checks.end(), [](const Check& a, const Check& b) {
    return a.first_index < b.first_index;
  });
  const bool memo = gen.kind() == WorkloadKind::kHotMix;
  const std::size_t n = checks.size();
  const std::size_t workers =
      std::max<std::size_t>(1, std::min<std::size_t>(threads, n));
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      Renderer renderer(memo);
      for (std::size_t i = w * n / workers; i < (w + 1) * n / workers; ++i) {
        try {
          checks[i].offline = DigestOf(renderer.Render(checks[i].line));
        } catch (const std::exception& e) {
          checks[i].error = e.what();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();

  VerifyResult result;
  for (const Check& c : checks) {
    for (const RequestRecord* rec : c.records) {
      ++result.checked;
      if (c.error.empty() && rec->digest == c.offline) continue;
      ++result.mismatches;
      if (result.first_mismatch.empty()) {
        result.first_mismatch =
            "request " + std::to_string(rec->index) + ": " +
            (c.error.empty() ? "served bytes differ from the offline render"
                             : "offline render failed: " + c.error);
      }
    }
  }
  return result;
}

}  // namespace servebench
