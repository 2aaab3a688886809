// Perf snapshot reporter: runs the tracked bench suites and writes each
// one's google-benchmark JSON (a "context" block plus a "benchmarks" array
// with per-benchmark "name", "real_time"/"cpu_time" in ns, and user counters
// such as "msgs/s" or "model_us"/"sim_us") to <out-dir>/BENCH_<suite>.json.
// perf/ holds the committed snapshot of every suite. Each suite's previous
// snapshot is read before its run overwrites it, so
// `perf_report --out-dir perf --check` compares a run with the committed
// tree, and `git diff perf/` is the trajectory of every number.
//
// Usage:
//   perf_report [--bench-dir DIR] [--out-dir DIR] [--min-time SECONDS]
//               [--check]
//
//   --bench-dir  directory holding the bench binaries (default: ".")
//   --out-dir    where the BENCH_*.json snapshots live (default: ".")
//   --min-time   per-benchmark measuring time (default 1 second)
//   --check      exit 2 when either gate fails:
//                (a) accuracy: every model-vs-sim row of the workload,
//                    dragonfly and burstiness suites keeps its saturation
//                    flag and stays within 0.05 pp of err% of the snapshot,
//                    and no row disappears. The simulator is seeded, so these
//                    numbers reproduce exactly;
//                (b) rebind: BM_WorkloadDialMoveRebind's reuse counts
//                    (intra_reused, pair_reused, combos_shared: what one
//                    dial-move Rebind reused instead of rebuilding) are
//                    present, above 0 and equal to the snapshot's. They are
//                    exact integers, so a build whose Rebind reuses nothing
//                    fails while no runner's speed can.
//                Absolute times are printed and written, never gated: on a
//                shared runner they move 2x between runs of one tree.
//                The run overwrites the snapshots even when a gate fails;
//                the failure message says how to restore them.
//
// Exit code: 0 on success, 1 when a bench binary is missing or fails or
// --check finds no snapshot to compare with, 2 when a gate fails.
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "common/json.h"

namespace {

using coc::Json;

/// Largest err% move of an accuracy row that --check accepts, in
/// percentage points. The seeded rows reproduce bit for bit, so any real
/// move is a change in the model or the simulator.
constexpr double kMaxErrShiftPp = 0.05;
/// The dial-move rebind row and the reuse counters gate (b) compares.
constexpr const char* kRebindRow = "BM_WorkloadDialMoveRebind";
constexpr const char* kReuseCounts[] = {"intra_reused", "pair_reused",
                                        "combos_shared"};

struct BenchResult {
  double real_time_ns = 0;
  double msgs_per_s = 0;  // 0 when the benchmark has no msgs/s counter
  double model_us = 0;    // accuracy suites: analytical mean latency
  double sim_us = 0;      // accuracy suites: simulated mean latency
  bool model_saturated = false;  // accuracy suites: model past saturation
  /// The rebind row's kReuseCounts counters that the run exported.
  std::map<std::string, double> reuse;

  bool HasErrPct() const { return sim_us > 0 && !model_saturated; }
  double ErrPct() const { return 100.0 * (model_us - sim_us) / sim_us; }
};

using Results = std::map<std::string, BenchResult>;

/// Reads a google-benchmark JSON artifact through the shared parser and
/// extracts the fields the snapshot tracks. A missing, unparseable or
/// structurally alien file yields an empty map, which the caller reports.
Results ParseBenchJson(const std::string& path) {
  Results results;
  std::ifstream in(path);
  if (!in) return results;
  std::ostringstream buf;
  buf << in.rdbuf();
  Json doc;
  try {
    doc = Json::Parse(buf.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s: %s\n", path.c_str(), e.what());
    return results;
  }
  const Json* benchmarks = doc.Find("benchmarks");
  if (benchmarks == nullptr || benchmarks->kind() != Json::Kind::kArray) {
    return results;
  }
  const auto number = [](const Json& entry, const char* key) {
    const Json* v = entry.Find(key);
    return v != nullptr ? v->AsDouble() : 0.0;
  };
  for (std::size_t i = 0; i < benchmarks->Size(); ++i) {
    const Json& entry = benchmarks->At(i);
    const Json* name = entry.Find("name");
    if (name == nullptr) continue;
    BenchResult& r = results[name->AsString()];
    r.real_time_ns = number(entry, "real_time");
    r.msgs_per_s = number(entry, "msgs/s");
    r.model_us = number(entry, "model_us");
    r.sim_us = number(entry, "sim_us");
    r.model_saturated = number(entry, "model_saturated") != 0.0;
    for (const char* key : kReuseCounts) {
      if (const Json* v = entry.Find(key)) r.reuse[key] = v->AsDouble();
    }
  }
  return results;
}

int RunSuite(const std::string& bench_dir, const std::string& binary,
             const std::string& out_path, double min_time) {
  std::ostringstream cmd;
  // Suppress the console table (the JSON artifact is the output of record)
  // but let the bench's stderr through for diagnosability.
  cmd << bench_dir << "/" << binary << " --benchmark_out_format=json"
      << " --benchmark_out=" << out_path << " --benchmark_min_time=" << min_time
      << " > /dev/null";
  std::fflush(stdout);  // keep our lines ahead of the child's stderr
  const int status = std::system(cmd.str().c_str());
  if (status == 0) return 0;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : status;
  std::fprintf(stderr, "error: '%s/%s' failed (exit %d)\n", bench_dir.c_str(),
               binary.c_str(), code);
  return code != 0 ? code : 1;
}

void PrintSuite(const std::string& path, const Results& results) {
  std::printf("\n%s\n", path.c_str());
  for (const auto& [name, r] : results) {
    if (r.msgs_per_s > 0) {
      std::printf("  %-48s %12.0f ns/op  %10.1f k msgs/s\n", name.c_str(),
                  r.real_time_ns, r.msgs_per_s / 1000.0);
    } else if (r.HasErrPct()) {
      std::printf("  %-48s model %8.1f us  sim %8.1f us  (%+.2f%%)\n",
                  name.c_str(), r.model_us, r.sim_us, r.ErrPct());
    } else if (r.sim_us > 0) {
      std::printf("  %-48s model saturated  sim %8.1f us\n", name.c_str(),
                  r.sim_us);
    } else if (r.model_saturated) {
      std::printf("  %-48s model saturated  sim aborted\n", name.c_str());
    } else if (!r.reuse.empty()) {
      std::printf("  %-48s %12.0f ns/op  reused:", name.c_str(),
                  r.real_time_ns);
      for (const auto& [key, count] : r.reuse) {
        std::printf(" %s %.0f", key.c_str(), count);
      }
      std::printf("\n");
    } else {
      std::printf("  %-48s %12.0f ns/op\n", name.c_str(), r.real_time_ns);
    }
  }
}

/// Gate (a): every row of the snapshot must reappear in the run with the
/// same saturation flag and an err% within kMaxErrShiftPp. Rows new in the
/// run pass; they enter the snapshot with it. Returns the failure count,
/// printing one line per failure.
int CheckAccuracy(const std::string& path, const Results& snapshot,
                  const Results& current) {
  int failures = 0;
  for (const auto& [name, was] : snapshot) {
    const auto it = current.find(name);
    char why[160] = "";
    if (it == current.end()) {
      std::snprintf(why, sizeof why, "row disappeared");
    } else if (it->second.model_saturated != was.model_saturated) {
      std::snprintf(why, sizeof why, "model saturation flag flipped to %s",
                    it->second.model_saturated ? "saturated" : "finite");
    } else if (it->second.HasErrPct() != was.HasErrPct()) {
      std::snprintf(why, sizeof why, "sim %s",
                    was.HasErrPct() ? "aborted" : "no longer aborts");
    } else if (was.HasErrPct() &&
               !(std::fabs(it->second.ErrPct() - was.ErrPct()) <=
                 kMaxErrShiftPp)) {
      std::snprintf(why, sizeof why, "err %+.4f%% -> %+.4f%% (> %.2f pp)",
                    was.ErrPct(), it->second.ErrPct(), kMaxErrShiftPp);
    }
    if (why[0] != '\0') {
      std::fprintf(stderr, "check FAILED: %s / %s: %s\n", path.c_str(),
                   name.c_str(), why);
      ++failures;
    }
  }
  return failures;
}

/// The rebind row's `key` counter in `suite`; -1 when the row or the
/// counter is missing.
double ReuseCount(const Results& suite, const char* key) {
  const auto row = suite.find(kRebindRow);
  if (row == suite.end()) return -1;
  const auto it = row->second.reuse.find(key);
  return it != row->second.reuse.end() ? it->second : -1;
}

/// Gate (b): each of the rebind row's reuse counts must be present, above 0
/// and equal to the snapshot's. Returns the failure count, printing one line
/// per failure.
int CheckRebindReuse(const std::string& path, const Results& snapshot,
                     const Results& current) {
  int failures = 0;
  for (const char* key : kReuseCounts) {
    const double was = ReuseCount(snapshot, key);
    const double now = ReuseCount(current, key);
    if (now > 0 && now == was) continue;
    std::fprintf(stderr,
                 "check FAILED: %s / %s: %s %.0f -> %.0f (must be > 0 and "
                 "equal the snapshot; -1 = missing)\n",
                 path.c_str(), kRebindRow, key, was, now);
    ++failures;
  }
  if (failures == 0) {
    std::printf("check: %s reuse counts equal the snapshot\n", kRebindRow);
  }
  return failures;
}

enum class Gate { kNone, kAccuracy, kRebind };

/// One tracked bench suite: the binary to run, the snapshot it writes, and
/// the --check gate its rows feed.
struct Suite {
  const char* binary;
  const char* artifact;  // file name under --out-dir
  Gate gate;
};

constexpr Suite kSuites[] = {
    {"bench_perf_sim", "BENCH_sim.json", Gate::kNone},
    {"bench_perf_model", "BENCH_model.json", Gate::kRebind},
    {"bench_ablation_workload", "BENCH_workload.json", Gate::kAccuracy},
    {"bench_ablation_dragonfly", "BENCH_dragonfly.json", Gate::kAccuracy},
    {"bench_ablation_burstiness", "BENCH_burstiness.json", Gate::kAccuracy},
};

}  // namespace

int main(int argc, char** argv) {
  std::string bench_dir = ".";
  std::string out_dir = ".";
  double min_time = 1.0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s expects a value\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--bench-dir") {
      bench_dir = next();
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--min-time") {
      min_time = std::strtod(next(), nullptr);
    } else if (arg == "--check") {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: perf_report [--bench-dir DIR] [--out-dir DIR] "
                   "[--min-time SECONDS] [--check]\n");
      return arg == "--help" ? 0 : 1;
    }
  }

  // Every snapshot is read before the first run overwrites any of them.
  Results snapshots[std::size(kSuites)];
  for (std::size_t k = 0; k < std::size(kSuites); ++k) {
    const std::string path = out_dir + "/" + kSuites[k].artifact;
    snapshots[k] = ParseBenchJson(path);
    if (check && kSuites[k].gate != Gate::kNone && snapshots[k].empty()) {
      std::fprintf(stderr, "error: --check: no snapshot to compare at %s\n",
                   path.c_str());
      return 1;
    }
  }

  int failures = 0;
  int accuracy_rows = 0;
  for (std::size_t k = 0; k < std::size(kSuites); ++k) {
    const Suite& s = kSuites[k];
    const std::string path = out_dir + "/" + s.artifact;
    if (RunSuite(bench_dir, s.binary, path, min_time) != 0) return 1;
    const Results results = ParseBenchJson(path);
    if (results.empty()) {
      std::fprintf(stderr,
                   "error: benchmark output missing or unparseable: %s\n",
                   path.c_str());
      return 1;
    }
    PrintSuite(path, results);
    if (!check) continue;
    if (s.gate == Gate::kAccuracy) {
      failures += CheckAccuracy(path, snapshots[k], results);
      accuracy_rows += static_cast<int>(snapshots[k].size());
    } else if (s.gate == Gate::kRebind) {
      failures += CheckRebindReuse(path, snapshots[k], results);
    }
  }

  if (check) {
    if (failures > 0) {
      std::fprintf(stderr,
                   "check: %d gate failure(s); %s now holds this failing run "
                   "(`git checkout -- %s` restores the committed snapshots)\n",
                   failures, out_dir.c_str(), out_dir.c_str());
      return 2;
    }
    std::printf("check: %d accuracy rows within %.2f pp of the snapshot\n",
                accuracy_rows, kMaxErrShiftPp);
  }
  return 0;
}
