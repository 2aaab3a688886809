// EvalServer — the evaluation daemon's socket layer: a blocking accept loop
// over TCP, a bounded pending-connection queue, and a fixed worker pool
// feeding RequestHandler (protocol.h). The layering keeps policy explicit:
//
//   * admission control happens at accept time — when `max_queue`
//     connections are already pending, the acceptor answers with one
//     structured `overloaded` status line and closes, instead of stalling
//     the client in the TCP backlog;
//   * each worker owns one connection at a time and serves its requests
//     sequentially until EOF (clients pipeline by writing several lines, or
//     shutdown(SHUT_WR) after the last request for one-shot use);
//   * a request line past kMaxRequestLineBytes is answered with one
//     `usage_error` line and skipped through its newline, so no client can
//     grow a worker's buffer without limit; the connection keeps serving;
//   * graceful drain (Stop, or SIGINT/SIGTERM via
//     InstallDrainSignalHandlers): the acceptor stops, in-flight requests
//     finish and their responses are written, queued-but-unstarted
//     connections get a structured `overloaded` "draining" line, and Wait()
//     returns 0. Stop only shuts down the read half of active connections,
//     so an in-flight response always reaches its client.
//
// Results are bit-identical to offline batch runs for any --threads value:
// workers share one Engine + ResultCache through RequestHandler, and every
// scenario evaluates through Engine::EvaluateBatch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/fault_injection.h"
#include "server/protocol.h"

namespace coc {

/// The longest request line a connection buffers (16 MiB).
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 24;

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;       ///< 0 = ephemeral; EvalServer::port() has the answer
  int threads = 0;    ///< worker pool size; <= 0 = hardware concurrency
  std::size_t cache_entries = 1024;  ///< result-cache capacity (0 disables)
  std::size_t max_queue = 64;        ///< pending connections before shedding
  /// Engine memo-map bounds. Server defaults bound the maps (unlike the
  /// one-shot CLI) because a mixed request stream is unbounded.
  Engine::Options engine{/*system_entries=*/64, /*model_entries=*/256};
  FaultInjector faults;  ///< "server:index" fault arms (COC_FAULT)
  /// Test seam: runs in a worker thread right after it pops a connection,
  /// before any bytes are read. Lets tests hold a worker busy
  /// deterministically to fill the queue; empty in production.
  std::function<void()> on_dispatch_for_test;
};

class EvalServer {
 public:
  explicit EvalServer(ServerOptions opts);
  ~EvalServer();  ///< Stop() + Wait() if still running
  EvalServer(const EvalServer&) = delete;
  EvalServer& operator=(const EvalServer&) = delete;

  /// Binds, listens and starts the acceptor + worker threads. Throws
  /// UsageError when the address cannot be bound (port taken, bad host).
  void Start();

  /// The bound port (the real one when ServerOptions::port was 0).
  int port() const { return port_; }

  /// Begins the drain: stop accepting, finish in-flight requests, answer
  /// queued-but-unstarted connections with a structured status. Safe from
  /// any thread, including a worker (the shutdown op) and — via the
  /// self-pipe written by InstallDrainSignalHandlers — a signal handler.
  void Stop();

  /// Joins every thread; returns 0 on a clean drain. Call once.
  int Wait();

  RequestHandler& handler() { return handler_; }
  std::size_t PendingForTest() const;

  /// The stop pipe's write end (valid after Start). A one-byte write()
  /// triggers the drain — this is all the signal handler does.
  int DrainPipeWriteFdForSignals() const { return stop_pipe_[1]; }

 private:
  void AcceptLoop();
  void WorkerLoop(std::size_t slot);
  void ServeConnection(int fd, std::size_t slot);

  const ServerOptions opts_;
  RequestHandler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  int stop_pipe_[2] = {-1, -1};  ///< [0] read (acceptor poll), [1] write
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool joined_ = false;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;  ///< accepted fds awaiting a worker

  /// Per-worker fd of the connection being served (-1 = idle); Stop() uses
  /// it to shutdown(SHUT_RD) blocked reads so drain cannot hang on an idle
  /// keep-alive connection.
  std::vector<std::unique_ptr<std::atomic<int>>> active_fds_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

/// Routes SIGINT/SIGTERM to `server`.Stop() through a self-pipe (the
/// handler itself only write()s one byte — async-signal-safe). One server
/// per process: a second call replaces the routing target.
void InstallDrainSignalHandlers(EvalServer& server);

/// Client half of the protocol: connects, writes `line` (which must be
/// newline-terminated), half-closes, and reads one response line. Throws
/// UsageError when the connection cannot be established and
/// std::runtime_error when the server closes without answering.
std::string SubmitLine(const std::string& host, int port,
                       const std::string& line);

}  // namespace coc
