#include "load.h"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "server/server.h"

namespace servebench {
namespace {

constexpr int kMinSetupReps = 5;
constexpr double kSetupBudgetS = 1.0;
constexpr int kMaxSetupReps = 40;
/// Records reserved per connection up front (virtual until written), so
/// the record arrays never reallocate inside the window and their resident
/// size is exactly what was written.
constexpr std::size_t kRecordCapacity = std::size_t{1} << 21;

/// One keep-alive client connection with one request in flight.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      close(fd_);
      throw std::runtime_error("connect to the benchmark server failed");
    }
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes `line` and reads one response line into `response` (without
  /// its newline). False on a transport failure.
  bool RoundTrip(const std::string& line, std::string& response) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    response.clear();
    char chunk[16384];
    for (;;) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      response.append(chunk, static_cast<std::size_t>(n));
      // One request in flight: the newline ends this response and nothing
      // can follow it.
      if (response.back() == '\n') {
        response.pop_back();
        return true;
      }
    }
  }

 private:
  int fd_ = -1;
};

RequestRecord Exchange(Connection& conn, std::uint64_t index,
                       const std::string& line, std::string& response) {
  RequestRecord rec;
  rec.index = index;
  const auto t0 = Clock::now();
  const bool ok = conn.RoundTrip(line, response);
  rec.latency_us = Micros(Clock::now() - t0);
  if (!ok) {
    rec.status = RequestRecord::kTransport;
    return rec;
  }
  if (response.find("\"ok\":false") != std::string::npos) {
    rec.status = RequestRecord::kNotOk;
  }
  rec.digest = DigestOf(StripServedFields(response));
  return rec;
}

ServerCounters Counters(coc::EvalServer& server) {
  return CountersOf(server.handler().cache(), server.handler().engine());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Restarts VmHWM from the current resident size (Linux >= 4.0).
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

coc::ServerOptions BenchServerOptions() {
  coc::ServerOptions opts;  // defaults: cache 1024, Engine bounds 64/256/16
  opts.threads = kServerThreads;
  opts.cache_entries = kCacheEntries;
  return opts;
}

}  // namespace

ServerCounters CountersOf(const coc::ResultCache& cache,
                          const coc::Engine& engine) {
  const coc::ResultCache::Stats c = cache.GetStats();
  const coc::Engine::CacheStats e = engine.Stats();
  ServerCounters out;
  out.cache_hits = c.hits;
  out.cache_misses = c.misses;
  out.cache_evictions = c.evictions;
  out.models = e.models;
  out.model_rebinds = e.model_rebinds;
  out.model_evictions = e.model_evictions;
  return out;
}

std::string StripServedFields(const std::string& response) {
  std::string out = response;
  const auto server = out.rfind(",\"server\":{");
  if (server != std::string::npos) {
    out.resize(server);
    out += '}';
  }
  for (const char* field : {",\"cache\":\"hit\"", ",\"cache\":\"miss\""}) {
    const std::string needle = field;
    std::string::size_type pos = 0;
    while ((pos = out.find(needle, pos)) != std::string::npos) {
      out.erase(pos, needle.size());
    }
  }
  return out;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

LoadResult RunLoad(const Generator& gen, double seconds) {
  LoadResult result;
  std::unique_ptr<coc::EvalServer> server;
  std::vector<std::unique_ptr<Connection>> conns;
  std::string response;
  // At least kMinSetupReps set-ups, and more while they are cheap, so the
  // median of a millisecond-scale set-up is not one noisy sample.
  double setup_total = 0;
  for (int rep = 0; rep < kMinSetupReps ||
                    (setup_total < kSetupBudgetS && rep < kMaxSetupReps);
       ++rep) {
    conns.clear();
    server.reset();
    result.warmup.clear();
    // Return the earlier set-ups' freed memory to the system, so this one
    // faults its pages in as a newly started daemon does.
    malloc_trim(0);
    server = std::make_unique<coc::EvalServer>(BenchServerOptions());
    const double cpu_before = CpuSeconds();
    const auto t0 = Clock::now();
    server->Start();
    conns.push_back(std::make_unique<Connection>(server->port()));
    for (std::size_t i = 0; i < gen.warmup().size(); ++i) {
      result.warmup.push_back(
          Exchange(*conns[0], i, gen.warmup()[i], response));
    }
    result.setup_s.push_back(Seconds(Clock::now() - t0));
    result.setup_cpu_s.push_back(CpuSeconds() - cpu_before);
    setup_total += result.setup_s.back();
  }
  while (conns.size() < static_cast<std::size_t>(kConnections)) {
    conns.push_back(std::make_unique<Connection>(server->port()));
  }

  // The peak is the measured window's: earlier set-ups' freed memory goes
  // back to the system and the high-water mark restarts from here.
  malloc_trim(0);
  ResetPeakRss();
  result.before = Counters(*server);
  std::atomic<std::uint64_t> next{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<RequestRecord>> per_conn(conns.size());
  std::vector<Clock::time_point> finished(conns.size());
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    clients.emplace_back([&, c] {
      std::string resp;
      per_conn[c].reserve(kRecordCapacity);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (Clock::now() < deadline) {
        const std::uint64_t k = next.fetch_add(1);
        const GeneratedRequest req = gen.Measured(k);
        per_conn[c].push_back(Exchange(*conns[c], k, req.line, resp));
      }
      finished[c] = Clock::now();
    });
  }
  while (ready.load() < static_cast<int>(conns.size())) {
    std::this_thread::yield();
  }
  const double cpu0 = CpuSeconds();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  Clock::time_point end = start;
  for (const auto& f : finished) end = std::max(end, f);
  result.window_s = Seconds(end - start);
  result.cpu_s = CpuSeconds() - cpu0;
  // The client's own records are not the server's memory.
  double record_bytes = 0;
  for (const auto& v : per_conn) {
    record_bytes += static_cast<double>(v.size() * sizeof(RequestRecord));
  }
  result.rss_peak_mb = PeakRssMb() - record_bytes / (1024.0 * 1024.0);
  result.after = Counters(*server);
  for (auto& v : per_conn) {
    result.measured.insert(result.measured.end(), v.begin(), v.end());
  }
  conns.clear();
  server.reset();
  return result;
}

}  // namespace servebench
