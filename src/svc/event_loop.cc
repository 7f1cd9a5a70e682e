#include "src/svc/event_loop.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/common/check.h"
#include "src/common/json.h"
#include "src/common/log.h"
#include "src/svc/prom.h"
#include "src/svc/replies.h"
#include "src/svc/service.h"
#include "src/svc/shard_router.h"
#include "src/svc/wire.h"

namespace lyra::svc {
namespace {

// epoll_event.data.u64 tags. Connection ids start past the reserved range.
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kUnixListenerTag = 1;
constexpr std::uint64_t kTcpListenerTag = 2;
constexpr std::uint64_t kFirstConnId = 16;

constexpr int kMaxEpollEvents = 64;
constexpr std::size_t kReadChunk = 64 * 1024;
// sendmsg iovec cap per call: 128 frames (header + payload each); IOV_MAX
// is 1024 everywhere we run.
constexpr std::size_t kMaxFlushIovecs = 256;
// HTTP request-header cap for the sniffed GET /metrics path; anything a
// scraper sends fits in a fraction of this.
constexpr std::size_t kMaxHttpHeader = 8192;

}  // namespace

class EventLoop::IoThread {
 public:
  // Cross-thread queues into this I/O thread: engine reply completions (a
  // typed record, so the hot path never allocates a closure) plus generic
  // tasks (connection handoff, stop). Held by shared_ptr from completion
  // callbacks, so a reply that lands after the thread shut down is dropped
  // instead of touching freed state. The eventfd is written only when the
  // mailbox transitions from empty — the drain takes everything, so a batch
  // of completions costs one wakeup, not one syscall per reply.
  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    JsonValue reply;
  };

  struct Mailbox : public SchedulerService::CompletionSink {
    std::mutex mu;
    std::vector<std::function<void()>> tasks;
    std::vector<Completion> completions;
    int wake_fd = -1;
    bool closed = false;

    // Set while the owning I/O thread's loop runs; lets same-thread
    // completions (inline overload rejections during HandleFrame) skip the
    // mailbox mutex + eventfd round trip and fill their slot directly.
    // owner_tid is written before the release-store publishing inline_owner,
    // so a thread that passes the acquire-load + tid check is the owner.
    std::atomic<IoThread*> inline_owner{nullptr};
    std::thread::id owner_tid;

    // CompletionSink: the engine delivers replies straight into this
    // mailbox with (conn_id, seq) as the two carried words — no closure,
    // no per-command allocation on the enqueue side.
    void OnReply(std::uint64_t conn_id, std::uint64_t seq,
                 JsonValue reply) override {
      IoThread* owner = inline_owner.load(std::memory_order_acquire);
      if (owner != nullptr && owner_tid == std::this_thread::get_id()) {
        owner->OnCompletion(conn_id, seq, reply);
        return;
      }
      PostCompletion(conn_id, seq, std::move(reply));
    }

    void Post(std::function<void()> task) {
      int fd = -1;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (closed) {
          return;
        }
        const bool was_empty = tasks.empty() && completions.empty();
        tasks.push_back(std::move(task));
        fd = was_empty ? wake_fd : -1;
      }
      Wake(fd);
    }

    void PostCompletion(std::uint64_t conn_id, std::uint64_t seq,
                        JsonValue reply) {
      int fd = -1;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (closed) {
          return;
        }
        const bool was_empty = tasks.empty() && completions.empty();
        completions.push_back(Completion{conn_id, seq, std::move(reply)});
        fd = was_empty ? wake_fd : -1;
      }
      Wake(fd);
    }

    static void Wake(int fd) {
      if (fd >= 0) {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(fd, &one, sizeof(one));
      }
    }
  };

  IoThread(EventLoop* loop, ShardRouter* router, std::size_t max_outbuf,
           int index, std::uint64_t slow_ns)
      : loop_(loop),
        router_(router),
        service_(router->front()),
        max_outbuf_(max_outbuf),
        index_(index),
        slow_ns_(slow_ns),
        mailbox_(std::make_shared<Mailbox>()) {}

  ~IoThread() {
    if (wake_fd_ >= 0) {
      ::close(wake_fd_);
    }
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
  }

  Status Init() {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      return Status::Unavailable(std::string("epoll_create1: ") +
                                 std::strerror(errno));
    }
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) {
      return Status::Unavailable(std::string("eventfd: ") + std::strerror(errno));
    }
    mailbox_->wake_fd = wake_fd_;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      return Status::Unavailable(std::string("epoll_ctl(wake): ") +
                                 std::strerror(errno));
    }
    return Status::Ok();
  }

  void AddListener(int fd, std::uint64_t tag) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = tag;
    LYRA_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
  }

  void Start() { thread_ = std::thread(&IoThread::Run, this); }

  void RequestStop() {
    stop_.store(true, std::memory_order_release);
    mailbox_->Post([] {});  // wake the epoll loop
  }

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Thread-safe: pin a freshly accepted connection to this thread.
  void Adopt(int fd, bool tcp) {
    mailbox_->Post([this, fd, tcp] { Register(fd, tcp); });
  }

 private:
  struct Slot {
    enum class State { kWaitingEngine, kDeferredRead, kReady };
    State state = State::kWaitingEngine;
    JsonValue request;    // deferred reads only
    std::string payload;  // serialized reply once kReady
    char header[4] = {};  // its length prefix
    // Telemetry: stamped at frame decode; latency records when the reply is
    // queued (MakeReady). start_ns == 0 means "don't record" (shed/error
    // replies with no decoded command).
    std::uint64_t start_ns = 0;
    std::uint64_t seq = 0;
    TelemetryCmd cmd = TelemetryCmd::kOther;
  };

  struct Conn {
    // Decided by the first byte the connection sends: a valid length frame
    // starts with 0x00 (the 1 MiB payload cap keeps the top byte zero), so
    // 'G' can only be an HTTP "GET " — the /metrics scrape path.
    enum class Proto { kUnknown, kFrames, kHttp };

    int fd = -1;
    std::uint64_t id = 0;
    Proto proto = Proto::kUnknown;
    std::string http_buf;  // accumulated HTTP request bytes (kHttp only)
    FrameDecoder decoder;
    // Replies leave strictly in request order: only the kReady prefix of
    // this queue is ever written to the socket.
    std::deque<Slot> slots;
    std::uint64_t base_seq = 0;      // seq of slots.front()
    std::size_t engine_inflight = 0; // kWaitingEngine slots
    // Slots[0, ready_prefix) are known Ready: the deferred-read resolver
    // resumes here instead of rescanning materialized-but-unflushed replies,
    // which would be quadratic in the completion batch size.
    std::size_t ready_prefix = 0;
    std::string out;                 // spilled partial-write bytes
    std::size_t out_consumed = 0;
    std::size_t queued_bytes = 0;    // materialized-but-unsent reply bytes
    bool want_write = false;
    bool read_closed = false;
    // True while EPOLLIN interest is dropped because the engine queue was
    // saturated: instead of parse-and-reject (which burns the core the
    // engine needs), the connection stops reading and the kernel socket
    // buffer pushes back on the client until the engine drains.
    bool read_gated = false;
  };

  void Run() {
    mailbox_->owner_tid = std::this_thread::get_id();
    mailbox_->inline_owner.store(this, std::memory_order_release);
    shard_ =
        service_->telemetry().AcquireShard("io" + std::to_string(index_));
    epoll_event events[kMaxEpollEvents];
    while (!stop_.load(std::memory_order_acquire)) {
      // With gated connections, poll at 1ms so reads resume promptly after
      // the engine drains; otherwise block until traffic arrives.
      const int timeout_ms = gated_conns_.empty() ? -1 : 1;
      const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;
      }
      const std::uint64_t wake_ns = shard_ != nullptr ? TelemetryNowNs() : 0;
      if (shard_ != nullptr && n > 0) {
        shard_->wake_events.Record(static_cast<std::uint64_t>(n));
      }
      for (int i = 0; i < n; ++i) {
        if (shard_ != nullptr) {
          shard_->dispatch_lag.Record(TelemetryNowNs() - wake_ns);
        }
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kWakeTag) {
          std::uint64_t drained;
          while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          RunTasks();
        } else if (tag == kUnixListenerTag) {
          HandleAccept(loop_->unix_listen_fd_, /*tcp=*/false);
        } else if (tag == kTcpListenerTag) {
          HandleAccept(loop_->tcp_listen_fd_, /*tcp=*/true);
        } else {
          const auto it = conns_.find(tag);
          if (it == conns_.end()) {
            continue;  // closed earlier in this wait batch
          }
          Conn* conn = it->second.get();
          const std::uint32_t evs = events[i].events;
          if ((evs & EPOLLERR) != 0) {
            Close(conn);
            continue;
          }
          bool alive = true;
          if ((evs & EPOLLOUT) != 0) {
            alive = Flush(conn);
          }
          if (alive && (evs & (EPOLLIN | EPOLLHUP)) != 0) {
            HandleReadable(conn);
          }
        }
      }
      if (!gated_conns_.empty() && !router_->AnySaturated()) {
        UngateReads();
      }
    }
    // Teardown: drain completions already posted, flush what the sockets
    // will take without blocking, then drop everything.
    mailbox_->inline_owner.store(nullptr, std::memory_order_release);
    RunTasks();
    std::vector<std::uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) {
      ids.push_back(id);
    }
    for (const std::uint64_t id : ids) {
      const auto it = conns_.find(id);
      if (it != conns_.end()) {
        ResolveDeferredReads(it->second.get());
        Flush(it->second.get());
      }
    }
    for (const auto& [id, conn] : conns_) {
      ::close(conn->fd);
    }
    conns_.clear();
    {
      std::lock_guard<std::mutex> lock(mailbox_->mu);
      mailbox_->closed = true;
      mailbox_->wake_fd = -1;
      mailbox_->tasks.clear();
    }
  }

  void RunTasks() {
    std::vector<std::function<void()>> tasks;
    std::vector<Completion> completions;
    {
      std::lock_guard<std::mutex> lock(mailbox_->mu);
      tasks.swap(mailbox_->tasks);
      completions.swap(mailbox_->completions);
    }
    if (shard_ != nullptr && !completions.empty()) {
      shard_->completion_batch.Record(completions.size());
    }
    for (auto& task : tasks) {
      task();
    }
    // Materialize every completed reply first, then flush each touched
    // connection once: a drained batch of N replies leaves in N/half-iovec
    // sendmsg calls instead of N.
    dirty_conns_.clear();
    for (Completion& completion : completions) {
      OnCompletion(completion.conn_id, completion.seq, completion.reply);
    }
    for (const std::uint64_t id : dirty_conns_) {
      const auto it = conns_.find(id);
      if (it != conns_.end()) {
        Flush(it->second.get());
      }
    }
    dirty_conns_.clear();
    // Hand the drained scratch back so steady-state drains reuse capacity
    // instead of reallocating both vectors every wakeup.
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    if (mailbox_->tasks.empty() && !tasks.empty()) {
      tasks.clear();
      mailbox_->tasks.swap(tasks);
    }
    if (mailbox_->completions.empty() && !completions.empty()) {
      completions.clear();
      mailbox_->completions.swap(completions);
    }
  }

  void HandleAccept(int listen_fd, bool tcp) {
    for (;;) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        return;  // EAGAIN when drained; transient errors also just return
      }
      const std::size_t target =
          loop_->next_thread_.fetch_add(1, std::memory_order_relaxed) %
          loop_->threads_.size();
      loop_->threads_[target]->Adopt(fd, tcp);
    }
  }

  void Register(int fd, bool tcp) {
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    if (tcp) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      return;
    }
    conns_.emplace(conn->id, std::move(conn));
  }

  bool HandleReadable(Conn* conn) {
    char buf[kReadChunk];
    while (!conn->read_closed) {
      if (router_->AnySaturated()) {
        // Backpressure beats shedding on a shared core: every cycle spent
        // parsing a frame the engine cannot take is a cycle the engine
        // doesn't get. Stop reading; the Run loop re-arms once the engine
        // drains (the kernel buffer stalls the client meanwhile).
        GateRead(conn);
        break;
      }
      const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        Close(conn);
        return false;
      }
      if (n == 0) {
        // Clean EOF: answer what was pipelined, close once it flushes.
        conn->read_closed = true;
        break;
      }
      if (shard_ != nullptr) {
        shard_->bytes_in.Add(static_cast<std::uint64_t>(n));
      }
      if (conn->proto == Conn::Proto::kUnknown) {
        conn->proto =
            buf[0] == 'G' ? Conn::Proto::kHttp : Conn::Proto::kFrames;
      }
      if (conn->proto == Conn::Proto::kHttp) {
        if (!HandleHttp(conn, buf, static_cast<std::size_t>(n))) {
          return false;  // connection closed
        }
        continue;  // read until the request is complete or EAGAIN
      }
      conn->decoder.Append(buf, static_cast<std::size_t>(n));
      std::string payload;
      for (;;) {
        StatusOr<bool> next = conn->decoder.Next(&payload);
        if (!next.ok()) {
          // Oversized length prefix: the stream is unrecoverable. One error
          // frame, then close after it flushes.
          service_->CountProtocolError();
          PushReady(conn, StatusReply(next.status()));
          conn->read_closed = true;
          break;
        }
        if (!next.value()) {
          break;
        }
        HandleFrame(conn, payload);
      }
    }
    return Flush(conn);
  }

  // Minimal one-shot HTTP server for Prometheus scrapers: GET /metrics gets
  // the exposition document, anything else a 404; the connection closes
  // after the response (lyra_top reconnects per poll). Returns false when
  // the connection was torn down.
  bool HandleHttp(Conn* conn, const char* data, std::size_t n) {
    conn->http_buf.append(data, n);
    if (conn->http_buf.size() > kMaxHttpHeader) {
      Close(conn);
      return false;
    }
    if (conn->http_buf.find("\r\n\r\n") == std::string::npos) {
      return true;  // headers still incomplete
    }
    const std::uint64_t start_ns = shard_ != nullptr ? TelemetryNowNs() : 0;
    const std::size_t line_end = conn->http_buf.find("\r\n");
    const std::string line = conn->http_buf.substr(0, line_end);
    // Accept "GET /metrics", with or without a query string or version.
    const bool is_metrics = line.rfind("GET /metrics", 0) == 0 &&
                            (line.size() == 12 || line[12] == ' ' ||
                             line[12] == '?');
    std::string body;
    const char* status_line;
    const char* content_type;
    if (is_metrics) {
      body = router_->RenderPromText();
      status_line = "HTTP/1.1 200 OK";
      content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else {
      body = "not found\n";
      status_line = "HTTP/1.1 404 Not Found";
      content_type = "text/plain; charset=utf-8";
    }
    std::string response = status_line;
    response += "\r\nContent-Type: ";
    response += content_type;
    response += "\r\nContent-Length: ";
    response += std::to_string(body.size());
    response += "\r\nConnection: close\r\n\r\n";
    response += body;
    conn->queued_bytes += response.size();
    conn->out += response;
    conn->read_closed = true;
    conn->http_buf.clear();
    conn->http_buf.shrink_to_fit();
    if (shard_ != nullptr && is_metrics) {
      const std::uint64_t dur = TelemetryNowNs() - start_ns;
      shard_->RecordCmd(TelemetryCmd::kStatsProm, dur);
      shard_->spans.Record(
          start_ns, dur, conn->id, 0,
          static_cast<std::uint32_t>(router_->QueueDepthHint()),
          TelemetryCmd::kStatsProm);
      shard_->write_queue_peak.NoteMax(conn->queued_bytes);
    }
    return true;
  }

  void HandleFrame(Conn* conn, const std::string& payload) {
    const std::uint64_t start_ns = shard_ != nullptr ? TelemetryNowNs() : 0;
    if (shard_ != nullptr) {
      shard_->frames_in.Add(1);
    }
    StatusOr<JsonValue> parsed =
        JsonValue::Parse(payload, JsonParseLimits::Untrusted());
    if (!parsed.ok()) {
      service_->CountProtocolError();
      PushReady(conn, ErrorReply("invalid_argument",
                                 "bad request: " + parsed.status().message()));
      return;
    }
    if (!parsed.value().is_object()) {
      service_->CountProtocolError();
      PushReady(conn,
                ErrorReply("invalid_argument", "request must be a JSON object"));
      return;
    }
    JsonValue request = std::move(parsed.value());
    // One scan over the command name resolves both the telemetry bucket and
    // the routing class (unknown names land on kOther -> kUnknown, which
    // ReadReply answers with the usual error reply).
    const TelemetryCmd tcmd = TelemetryCmdFromName(request.GetString("cmd"));
    const SchedulerService::CmdClass cls = SchedulerService::Classify(tcmd);
    if (cls == SchedulerService::CmdClass::kEngine) {
      const ShardRouter::Plan plan = router_->RouteEngine(tcmd, request);
      if (plan.shed) {
        // Shed on the saturation hint: at heavy overload most engine frames
        // are doomed to rejection, and building + serializing a fresh reply
        // per frame just starves the frames that would be accepted. Answer
        // with one canned pre-serialized rejection instead. The hint racing
        // the engine's drain only means the authoritative check below picks
        // up the boundary cases.
        router_->shard(static_cast<int>(plan.shard))->CountShedOverload();
        if (request.Find("seq") == nullptr) {
          PushReadyRaw(conn, ShedPayload());
        } else {
          JsonValue rejection =
              ErrorReply("overloaded", "command queue full");
          rejection.Set("retry_after_ms",
                        JsonValue::MakeNumber(
                            service_->options().retry_after_ms));
          EchoSeq(request, rejection);
          PushReady(conn, rejection);
        }
        return;
      }
      // BeginEngine consumes the routing counter and names the
      // authoritative shard.
      const std::uint32_t shard = router_->BeginEngine(tcmd, request, plan);
      const std::uint64_t seq = conn->base_seq + conn->slots.size();
      conn->slots.emplace_back();
      Slot& slot = conn->slots.back();
      slot.start_ns = start_ns;
      slot.seq = seq;
      slot.cmd = tcmd;
      ++conn->engine_inflight;
      // Engine thread (or inline on overload) bounces the reply onto the
      // owning I/O thread via the mailbox sink as a typed record;
      // serialization happens there, off the engine. The slot is fully
      // initialized first: a saturated shard rejects inline, re-entering
      // OnCompletion before DispatchEngine returns.
      router_->DispatchEngine(plan, shard, std::move(request), mailbox_,
                              conn->id, seq);
    } else if (conn->engine_inflight > 0) {
      // An engine command ahead of this read is still in flight: defer, so
      // the reply order matches the request order and the read observes the
      // earlier write (its completion follows that batch's snapshot).
      conn->slots.emplace_back();
      Slot& slot = conn->slots.back();
      slot.state = Slot::State::kDeferredRead;
      slot.request = std::move(request);
      slot.start_ns = start_ns;
      slot.seq = conn->base_seq + conn->slots.size() - 1;
      slot.cmd = tcmd;
    } else {
      // Snapshot fast path: answered on this thread, engine never involved.
      conn->slots.emplace_back();
      Slot& slot = conn->slots.back();
      slot.start_ns = start_ns;
      slot.seq = conn->base_seq + conn->slots.size() - 1;
      slot.cmd = tcmd;
      MakeReady(slot, router_->ReadReply(request), conn);
    }
  }

  void MakeReady(Slot& slot, const JsonValue& reply, Conn* conn) {
    slot.payload.clear();
    reply.AppendTo(slot.payload);
    EncodeFrameHeader(static_cast<std::uint32_t>(slot.payload.size()),
                      slot.header);
    slot.state = Slot::State::kReady;
    slot.request = JsonValue();
    conn->queued_bytes += 4 + slot.payload.size();
    if (shard_ != nullptr) {
      shard_->frames_out.Add(1);
      shard_->write_queue_peak.NoteMax(conn->queued_bytes);
      if (slot.start_ns != 0) {
        // decode -> reply-queued: for engine commands this spans the queue
        // wait and batch apply; for reads it is the snapshot answer time.
        const std::uint64_t dur = TelemetryNowNs() - slot.start_ns;
        shard_->RecordCmd(slot.cmd, dur);
        shard_->spans.Record(
            slot.start_ns, dur, conn->id, slot.seq,
            static_cast<std::uint32_t>(router_->QueueDepthHint()), slot.cmd);
        if (slow_ns_ != 0 && dur >= slow_ns_) {
          LYRA_LOG_WARNING(
              "slow request: cmd=%s conn=%llu seq=%llu took %.3f ms",
              TelemetryCmdName(slot.cmd),
              static_cast<unsigned long long>(conn->id),
              static_cast<unsigned long long>(slot.seq),
              static_cast<double>(dur) / 1e6);
        }
      }
    }
  }

  void PushReady(Conn* conn, const JsonValue& reply) {
    conn->slots.emplace_back();
    MakeReady(conn->slots.back(), reply, conn);
  }

  // Ready slot from pre-serialized bytes; the shed path answers thousands
  // of doomed frames per second and must not re-serialize each one. Counts
  // the frame out but records no latency — rejections would poison the
  // request-duration histograms.
  void PushReadyRaw(Conn* conn, const std::string& payload) {
    conn->slots.emplace_back();
    Slot& slot = conn->slots.back();
    slot.payload = payload;
    EncodeFrameHeader(static_cast<std::uint32_t>(slot.payload.size()),
                      slot.header);
    slot.state = Slot::State::kReady;
    conn->queued_bytes += 4 + slot.payload.size();
    if (shard_ != nullptr) {
      shard_->frames_out.Add(1);
      shard_->write_queue_peak.NoteMax(conn->queued_bytes);
    }
  }

  const std::string& ShedPayload() {
    if (shed_payload_.empty()) {
      JsonValue rejection = ErrorReply("overloaded", "command queue full");
      rejection.Set(
          "retry_after_ms",
          JsonValue::MakeNumber(service_->options().retry_after_ms));
      rejection.AppendTo(shed_payload_);
    }
    return shed_payload_;
  }

  void OnCompletion(std::uint64_t conn_id, std::uint64_t seq,
                    const JsonValue& reply) {
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) {
      return;  // connection died with the command in flight
    }
    Conn* conn = it->second.get();
    if (seq < conn->base_seq) {
      return;
    }
    const std::size_t index = static_cast<std::size_t>(seq - conn->base_seq);
    if (index >= conn->slots.size()) {
      return;
    }
    Slot& slot = conn->slots[index];
    LYRA_CHECK(slot.state == Slot::State::kWaitingEngine);
    MakeReady(slot, reply, conn);
    --conn->engine_inflight;
    ResolveDeferredReads(conn);
    // The caller (RunTasks) flushes each dirty connection once per drain.
    if (dirty_conns_.empty() || dirty_conns_.back() != conn_id) {
      if (std::find(dirty_conns_.begin(), dirty_conns_.end(), conn_id) ==
          dirty_conns_.end()) {
        dirty_conns_.push_back(conn_id);
      }
    }
  }

  void ResolveDeferredReads(Conn* conn) {
    std::size_t idx = conn->ready_prefix;
    while (idx < conn->slots.size()) {
      Slot& slot = conn->slots[idx];
      if (slot.state == Slot::State::kWaitingEngine) {
        break;
      }
      if (slot.state == Slot::State::kDeferredRead) {
        MakeReady(slot, router_->ReadReply(slot.request), conn);
      }
      ++idx;
    }
    conn->ready_prefix = idx;
  }

  // Writes the completed reply prefix with as few sendmsg calls as the
  // socket allows. Returns false when the connection was closed.
  bool Flush(Conn* conn) {
    for (;;) {
      iovec iov[kMaxFlushIovecs];
      std::size_t niov = 0;
      std::size_t offered = 0;
      const std::size_t out_pending = conn->out.size() - conn->out_consumed;
      if (out_pending > 0) {
        iov[niov].iov_base = conn->out.data() + conn->out_consumed;
        iov[niov].iov_len = out_pending;
        ++niov;
        offered += out_pending;
      }
      for (Slot& slot : conn->slots) {
        if (slot.state != Slot::State::kReady || niov + 2 > kMaxFlushIovecs) {
          break;
        }
        iov[niov].iov_base = slot.header;
        iov[niov].iov_len = sizeof(slot.header);
        ++niov;
        iov[niov].iov_base = slot.payload.data();
        iov[niov].iov_len = slot.payload.size();
        ++niov;
        offered += sizeof(slot.header) + slot.payload.size();
      }
      if (niov == 0) {
        break;  // nothing completed yet
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = niov;
      const ssize_t sent = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (conn->queued_bytes > max_outbuf_) {
            Close(conn);  // peer stopped reading; don't buffer forever
            return false;
          }
          SetWantWrite(conn, true);
          return true;
        }
        Close(conn);  // EPIPE/ECONNRESET: peer is gone
        return false;
      }
      std::size_t n = static_cast<std::size_t>(sent);
      if (shard_ != nullptr) {
        shard_->bytes_out.Add(n);
      }
      conn->queued_bytes -= std::min(conn->queued_bytes, n);
      if (out_pending > 0) {
        const std::size_t take = std::min(n, out_pending);
        conn->out_consumed += take;
        n -= take;
        if (conn->out_consumed == conn->out.size()) {
          conn->out.clear();
          conn->out_consumed = 0;
        }
      }
      while (n > 0) {
        Slot& slot = conn->slots.front();
        const std::size_t size = sizeof(slot.header) + slot.payload.size();
        if (n >= size) {
          n -= size;
          conn->slots.pop_front();
          ++conn->base_seq;
          if (conn->ready_prefix > 0) {
            --conn->ready_prefix;
          }
        } else {
          // Frame partially on the wire: spill the remainder so the next
          // flush resumes mid-frame.
          if (n < sizeof(slot.header)) {
            conn->out.append(slot.header + n, sizeof(slot.header) - n);
            conn->out.append(slot.payload);
          } else {
            conn->out.append(slot.payload, n - sizeof(slot.header),
                             std::string::npos);
          }
          conn->slots.pop_front();
          ++conn->base_seq;
          if (conn->ready_prefix > 0) {
            --conn->ready_prefix;
          }
          n = 0;
        }
      }
      if (static_cast<std::size_t>(sent) < offered) {
        SetWantWrite(conn, true);  // socket buffer filled mid-batch
        return true;
      }
      // Everything offered left; loop in case more ready slots remain
      // beyond the iovec cap.
      if (conn->slots.empty() ||
          conn->slots.front().state != Slot::State::kReady) {
        break;
      }
    }
    SetWantWrite(conn, false);
    if (conn->read_closed && conn->slots.empty() &&
        conn->out.size() == conn->out_consumed) {
      Close(conn);
      return false;
    }
    return true;
  }

  void UpdateInterest(Conn* conn) {
    epoll_event ev{};
    ev.events = (conn->read_gated ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
                (conn->want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
    ev.data.u64 = conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void SetWantWrite(Conn* conn, bool want) {
    if (conn->want_write == want) {
      return;
    }
    conn->want_write = want;
    UpdateInterest(conn);
  }

  void GateRead(Conn* conn) {
    if (conn->read_gated) {
      return;
    }
    conn->read_gated = true;
    UpdateInterest(conn);
    gated_conns_.push_back(conn->id);
  }

  // Re-arm every gated connection and drain what accumulated in its socket
  // buffer while reads were off. HandleReadable may re-gate (engine
  // saturated again mid-drain) or close the connection, so iterate a
  // drained copy and let gated_conns_ refill.
  void UngateReads() {
    std::vector<std::uint64_t> gated;
    gated.swap(gated_conns_);
    for (const std::uint64_t id : gated) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) {
        continue;
      }
      Conn* conn = it->second.get();
      conn->read_gated = false;
      UpdateInterest(conn);
      HandleReadable(conn);
    }
  }

  void Close(Conn* conn) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conns_.erase(conn->id);  // destroys *conn
  }

  EventLoop* loop_;
  ShardRouter* router_;
  // router_->front(): telemetry registry, protocol-error counter, identity.
  SchedulerService* service_;
  std::size_t max_outbuf_;
  int index_;
  std::uint64_t slow_ns_;  // 0 disables the slow-request log
  // This thread's telemetry block; acquired at Run() start, written only by
  // this thread. Nullptr (recording skipped) if the registry is full.
  TelemetryShard* shard_ = nullptr;
  std::shared_ptr<Mailbox> mailbox_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::uint64_t next_conn_id_ = kFirstConnId;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  // Connections with replies materialized in the current completion drain,
  // flushed once at the end of RunTasks.
  std::vector<std::uint64_t> dirty_conns_;
  // Canned serialized overload rejection for the shed fast path (built on
  // first use; this thread only).
  std::string shed_payload_;
  // Connections whose EPOLLIN is dropped while the engine queue is
  // saturated; re-armed by UngateReads() once it drains.
  std::vector<std::uint64_t> gated_conns_;
};

EventLoop::EventLoop(SchedulerService* service, EventLoopOptions options)
    : owned_router_(std::make_unique<ShardRouter>(
          std::vector<SchedulerService*>{service},
          std::vector<ClusterSpec>(1))),
      router_(owned_router_.get()),
      options_(std::move(options)) {
  LYRA_CHECK(service != nullptr);
}

EventLoop::EventLoop(ShardRouter* router, EventLoopOptions options)
    : router_(router), options_(std::move(options)) {
  LYRA_CHECK(router_ != nullptr);
}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  LYRA_CHECK(!started_);
  if (options_.unix_path.empty() && options_.tcp_port < 0) {
    return Status::InvalidArgument("event loop needs at least one listener");
  }
  if (options_.io_threads < 1) {
    options_.io_threads = 1;
  }
  if (!options_.unix_path.empty()) {
    StatusOr<int> fd = ListenUnix(options_.unix_path, options_.backlog);
    if (!fd.ok()) {
      return fd.status();
    }
    unix_listen_fd_ = fd.value();
    SetNonBlocking(unix_listen_fd_);
  }
  if (options_.tcp_port >= 0) {
    StatusOr<int> fd =
        ListenTcp(options_.tcp_host, options_.tcp_port, options_.backlog,
                  &tcp_port_);
    if (!fd.ok()) {
      if (unix_listen_fd_ >= 0) {
        ::close(unix_listen_fd_);
        unix_listen_fd_ = -1;
      }
      return fd.status();
    }
    tcp_listen_fd_ = fd.value();
    SetNonBlocking(tcp_listen_fd_);
  }

  const std::uint64_t slow_ns =
      options_.slow_ms > 0.0
          ? static_cast<std::uint64_t>(options_.slow_ms * 1e6)
          : 0;
  threads_.reserve(static_cast<std::size_t>(options_.io_threads));
  for (int i = 0; i < options_.io_threads; ++i) {
    threads_.push_back(std::make_unique<IoThread>(
        this, router_, options_.max_outbuf_bytes, i, slow_ns));
    const Status init = threads_.back()->Init();
    if (!init.ok()) {
      threads_.clear();
      if (unix_listen_fd_ >= 0) {
        ::close(unix_listen_fd_);
        unix_listen_fd_ = -1;
      }
      if (tcp_listen_fd_ >= 0) {
        ::close(tcp_listen_fd_);
        tcp_listen_fd_ = -1;
      }
      return init;
    }
  }
  // Listeners live on thread 0; accepted fds are dealt round-robin.
  if (unix_listen_fd_ >= 0) {
    threads_[0]->AddListener(unix_listen_fd_, kUnixListenerTag);
  }
  if (tcp_listen_fd_ >= 0) {
    threads_[0]->AddListener(tcp_listen_fd_, kTcpListenerTag);
  }
  for (auto& thread : threads_) {
    thread->Start();
  }
  started_ = true;
  return Status::Ok();
}

void EventLoop::Stop() {
  if (stopped_ || !started_) {
    stopped_ = true;
    return;
  }
  stopped_ = true;
  for (auto& thread : threads_) {
    thread->RequestStop();
  }
  for (auto& thread : threads_) {
    thread->Join();
  }
  if (unix_listen_fd_ >= 0) {
    ::close(unix_listen_fd_);
    ::unlink(options_.unix_path.c_str());
    unix_listen_fd_ = -1;
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
}

}  // namespace lyra::svc
