// Epoll front end for the scheduler service (DESIGN.md §8).
//
// Replaces the thread-per-connection socket server with a small fixed pool
// of I/O threads, each running its own epoll loop over nonblocking
// connections. Listeners — a Unix socket, a TCP socket, or both — are polled
// by thread 0; accepted connections are handed to the pool round-robin and
// stay pinned to one thread for life, so per-connection state is never
// shared between threads.
//
// Each connection keeps an incremental frame decoder on the read side and an
// ordered slot queue on the write side. Clients may pipeline frames freely:
//   - engine commands (submit/cancel/...) are forwarded to
//     SchedulerService::ExecuteAsync and their slot completes when the
//     engine's batch reply arrives;
//   - read-only commands are answered inline from the engines' state
//     snapshots (ReadFleet) — they never touch the engine queue — unless an earlier
//     engine command on the same connection is still in flight, in which
//     case the read is deferred until that command completes (preserving
//     read-your-writes and strict per-connection reply order);
//   - malformed frames complete immediately with an error reply.
// Completed replies are flushed as a batch with one sendmsg(2) of
// [len][payload][len][payload]... iovecs (MSG_NOSIGNAL; a dead peer is an
// EPIPE, never a SIGPIPE), spilling unsent bytes to a per-connection buffer
// when the socket would block.
#ifndef SRC_SVC_EVENT_LOOP_H_
#define SRC_SVC_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace lyra::svc {

class SchedulerService;
class ShardRouter;

struct EventLoopOptions {
  // Unix socket path to listen on; empty disables the Unix listener.
  std::string unix_path;
  // IPv4 address + port for the TCP listener; port < 0 disables it, port 0
  // binds an ephemeral port (see EventLoop::tcp_port()).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  // Fixed I/O thread pool size.
  int io_threads = 2;
  int backlog = 128;
  // A connection whose peer stops reading accumulates at most this many
  // unsent bytes before it is dropped.
  std::size_t max_outbuf_bytes = 64u << 20;
  // Requests slower than this (decode -> reply queued) are logged at WARNING
  // through the leveled logger; 0 disables the slow-request log.
  double slow_ms = 0.0;
};

class EventLoop {
 public:
  // `service` must outlive the loop. Wraps the service in an owned
  // one-engine router: engine commands go straight to the service, reads
  // through the same one-engine ReadFleet as its own ReadReply.
  EventLoop(SchedulerService* service, EventLoopOptions options);
  // Multi-engine front end: frames route through `router` (which must
  // outlive the loop). I/O-thread telemetry and protocol-error counts home on
  // router->front().
  EventLoop(ShardRouter* router, EventLoopOptions options);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Binds the configured listeners and starts the I/O threads.
  Status Start();

  // Drains pending completions, flushes what the sockets will take without
  // blocking, closes every connection, and joins the pool. Idempotent.
  void Stop();

  const std::string& unix_path() const { return options_.unix_path; }
  // The bound TCP port after Start() (resolves port 0), or -1 when the TCP
  // listener is disabled.
  int tcp_port() const { return tcp_port_; }

 private:
  class IoThread;
  friend class IoThread;

  // Wraps the single-service ctor's argument so both ctors meet at router_.
  std::unique_ptr<ShardRouter> owned_router_;
  ShardRouter* router_;
  EventLoopOptions options_;
  int unix_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int tcp_port_ = -1;
  std::vector<std::unique_ptr<IoThread>> threads_;
  std::atomic<std::size_t> next_thread_{0};
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace lyra::svc

#endif  // SRC_SVC_EVENT_LOOP_H_
