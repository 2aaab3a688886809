// servebench — the served-evaluation benchmark.
//
//   servebench --workload hot_mix|dial_walk|sim_serve --seed N --seconds S
//              --trace 0|1 [--out DIR]
//
// Sets up an in-process EvalServer several times (the median set-up CPU
// time is setup_s; the last server is measured), drives it with a closed
// loop of keep-alive loopback connections for S seconds, then verifies the
// served responses against the offline render outside the timed window.
// With --trace 1 it also replays the same lines without sockets and
// reports per-layer metrics instead of the end-to-end ones. Prints one
// metric per line, then one JSON result object as the last line; exits
// non-zero when a response is wrong or the workload's shape does not hold.
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "load.h"
#include "replay.h"
#include "verify.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_FLAGS
#define SERVEBENCH_BUILD_FLAGS "unknown"
#endif

namespace servebench {
namespace {

constexpr int kVerifyThreads = 3;

struct Args {
  WorkloadKind workload = WorkloadKind::kHotMix;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "hot_mix|dial_walk|sim_serve --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        if (!ParseWorkloadKind(value, &a.workload)) {
          Usage("unknown workload '" + value + "'");
        }
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--out") {
        a.out_dir = value;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(a.seconds > 0)) Usage("--seconds must be > 0");
  return a;
}

/// Each of these makes the library a different program: injected faults,
/// the paper-length simulation budget, or CSV side writes.
void RefuseAlteringEnvironment() {
  for (const char* var : {"COC_FAULT", "COC_FULL", "COC_CSV_DIR"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "servebench: refusing to run with %s set (it changes the "
                   "program being measured); unset it\n",
                   var);
      std::exit(2);
    }
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string Fingerprint() {
  utsname u{};
  uname(&u);
  return std::string("{\"nproc\":") +
         std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpu\":" + JsonString(CpuModel()) +
         ",\"kernel\":" + JsonString(u.release) +
         ",\"compiler\":" + JsonString(__VERSION__) +
         ",\"build\":" + JsonString(SERVEBENCH_BUILD_FLAGS) + "}";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "servebench: refusing an unoptimised build\n");
  return 2;
#endif
  const Args args = ParseArgs(argc, argv);
  RefuseAlteringEnvironment();
  std::printf("fingerprint %s\n", Fingerprint().c_str());
  std::fflush(stdout);

  const Generator gen(args.workload, args.seed);
  const LoadResult load = RunLoad(gen, args.seconds);
  const VerifyResult verify = Verify(gen, load, kVerifyThreads);

  std::uint64_t attempted = 0, failed = verify.mismatches;
  for (const auto* records : {&load.warmup, &load.measured}) {
    for (const RequestRecord& r : *records) {
      ++attempted;
      if (r.status != RequestRecord::kOk) ++failed;
    }
  }
  std::vector<std::string> problems;
  if (verify.mismatches > 0) problems.push_back(verify.first_mismatch);
  const ServerCounters& b = load.before;
  const ServerCounters& a = load.after;
  switch (args.workload) {
    case WorkloadKind::kHotMix:
      if (a.cache_misses != b.cache_misses) {
        problems.push_back("hot_mix: a measured request missed the cache");
      }
      break;
    case WorkloadKind::kDialWalk:
      if (a.cache_hits != b.cache_hits) {
        problems.push_back("dial_walk: a measured request hit the cache");
      }
      if (a.cache_evictions == b.cache_evictions ||
          a.model_rebinds == b.model_rebinds ||
          a.cold_compiles() == b.cold_compiles()) {
        problems.push_back(
            "dial_walk: expected result-cache evictions, model rebinds and "
            "cold compiles in the window");
      }
      break;
    case WorkloadKind::kSimServe:
      if (a.models + a.model_evictions != 0) {
        problems.push_back("sim_serve: the Engine compiled a model");
      }
      break;
  }
  if (load.measured.size() < 1000) {
    std::fprintf(stderr,
                 "servebench: warning: only %zu measured requests (p99 wants "
                 ">= 1000)\n",
                 load.measured.size());
  }

  std::vector<double> latencies;
  for (const RequestRecord& r : load.measured) {
    if (r.status != RequestRecord::kTransport) {
      latencies.push_back(r.latency_us);
    }
  }
  const auto completed = static_cast<double>(latencies.size());
  const double p50_us = Quantile(latencies, 0.50);
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"cpu_us_per_req", load.cpu_s * 1e6 / completed, "us"},
        {"setup_s", Median(load.setup_cpu_s), "s"},
        {"rss_peak_mb", load.rss_peak_mb, "MB"},
    };
  } else {
    const std::string spans =
        args.out_dir.empty()
            ? std::string()
            : args.out_dir + "/spans-" + WorkloadName(args.workload) + "-" +
                  std::to_string(args.seed) + ".json";
    const TraceResult trace = RunTrace(gen, spans);
    for (const std::string& f : trace.shape_failures) problems.push_back(f);
    for (const std::string& w : trace.trace_warnings) {
      std::fprintf(stderr, "servebench: warning: %s\n", w.c_str());
    }
    // The socket run's wall-clock figures swing with the CPU time the host
    // steals from this machine, so they are recorded here, unbounded,
    // rather than gated end to end.
    metrics = {
        {"req_p50_us", p50_us, "us"},
        {"req_p99_us", Quantile(latencies, 0.99), "us"},
        {"throughput_rps", completed / load.window_s, "1/s"},
        {"setup_wall_s", Median(load.setup_s), "s"},
        {"error_rate",
         static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio"},
    };
    for (const Metric& m : trace.metrics) {
      if (m.name == "protocol.handle_line_us") {
        metrics.push_back(
            {"server.socket_overhead_us", p50_us - m.value, "us"});
      }
    }
    metrics.insert(metrics.end(), trace.metrics.begin(), trace.metrics.end());
  }

  std::printf("workload %s seed %llu: %zu measured requests in %.3f s, "
              "%llu responses verified\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed),
              load.measured.size(), load.window_s,
              static_cast<unsigned long long>(verify.checked));
  for (const std::string& p : problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const bool correct = failed == 0 && problems.empty();
  std::string json = "{\"correct\":" + std::string(correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    json += JsonString(metrics[i].name) + ":{\"value\":" +
            Number(metrics[i].value) + ",\"unit\":" +
            JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
