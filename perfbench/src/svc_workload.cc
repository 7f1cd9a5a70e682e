#include "perfbench/src/svc_workload.h"

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "perfbench/src/layers.h"
#include "src/common/rng.h"
#include "src/svc/event_loop.h"
#include "src/svc/prom.h"
#include "src/svc/service.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"

namespace perfbench {

StatusOrScrape ScrapeService(const std::string& unix_path) {
  lyra::StatusOr<int> fd = lyra::svc::ConnectUnix(unix_path);
  if (!fd.ok()) {
    return fd.status();
  }
  lyra::Status sent = lyra::svc::WriteFrame(fd.value(), "{\"cmd\":\"stats_prom\"}");
  lyra::StatusOr<std::string> reply =
      sent.ok() ? lyra::svc::ReadFrame(fd.value()) : lyra::StatusOr<std::string>(sent);
  ::close(fd.value());
  if (!reply.ok()) {
    return reply.status();
  }
  lyra::StatusOr<lyra::JsonValue> parsed = lyra::JsonValue::Parse(reply.value());
  if (!parsed.ok()) {
    return parsed.status();
  }
  if (!parsed.value().GetBool("ok", false)) {
    return lyra::Status::Internal("stats_prom refused: " + reply.value());
  }
  return lyra::svc::ParsePrometheus(parsed.value().GetString("text", ""));
}

ServerWindow DiffScrapes(const lyra::svc::PromScrape& before, const lyra::svc::PromScrape& after) {
  ServerWindow window;
  const auto diff = [&](const std::string& family,
                        const std::map<std::string, std::string>& labels) -> lyra::obs::Histogram {
    lyra::StatusOr<lyra::obs::Histogram> late = lyra::svc::ExtractHistogram(after, family, labels);
    if (!late.ok()) {
      return lyra::obs::Histogram({});
    }
    lyra::obs::Histogram result = late.value();
    lyra::StatusOr<lyra::obs::Histogram> early =
        lyra::svc::ExtractHistogram(before, family, labels);
    if (early.ok()) {
      result.Subtract(early.value());
    }
    return result;
  };
  const std::string request = "lyra_svc_request_duration_seconds";
  window.submit = diff(request, {{"cmd", "submit"}});
  window.read = diff(request, {{"cmd", "query_job"}});
  const lyra::obs::Histogram stats = diff(request, {{"cmd", "cluster_stats"}});
  if (window.read.count() == 0) {
    window.read = stats;
  } else if (stats.count() > 0) {
    window.read.Merge(stats);
  }
  window.dispatch_lag = diff("lyra_svc_epoll_dispatch_lag_seconds", {});
  window.batch_apply = diff("lyra_svc_engine_batch_apply_seconds", {});
  window.snapshot_publish = diff("lyra_svc_engine_snapshot_publish_seconds", {});
  window.batch_commands = diff("lyra_svc_engine_batch_commands", {});
  window.overloaded = after.Value("lyra_svc_rejected_overload_total") -
                      before.Value("lyra_svc_rejected_overload_total");
  window.queue_peak = after.Value("lyra_svc_queue_peak");
  return window;
}

namespace {

double Millis(Clock::duration d) { return std::chrono::duration<double, std::milli>(d).count(); }

// Frames in flight on the connection at most. The engine queue is sized far
// above it, so the saturating phase is paced by replies and never shed.
constexpr std::uint64_t kWindow = 8192;
constexpr int kQueueCapacity = 65536;
constexpr std::size_t kRecvChunk = 64 * 1024;

// The fixed interleave, per 8 frames: 4 submits, 3 reads of acknowledged
// jobs, 1 cluster_stats.
enum class Kind : std::uint8_t { kSubmit, kQuery, kStats };
constexpr Kind kPattern[8] = {Kind::kSubmit, Kind::kQuery, Kind::kSubmit, Kind::kQuery,
                              Kind::kSubmit, Kind::kStats, Kind::kSubmit, Kind::kQuery};

struct Expect {
  Kind kind = Kind::kSubmit;
  std::int64_t job = -1;  // submit: the id it must get; query: the id asked
  Clock::time_point sent{};
};

// Finds `"key":` in `payload` and parses the integer after it.
bool IntField(const std::string& payload, const char* key, std::int64_t* out) {
  const std::size_t at = payload.find(key);
  if (at == std::string::npos) {
    return false;
  }
  const char* first = payload.data() + at + std::strlen(key);
  return std::from_chars(first, payload.data() + payload.size(), *out).ec == std::errc();
}

// One open-loop connection: a paced sender and a receiver that checks every
// reply against what was sent, FIFO. Slot seq % kWindow of `ring` is written
// by the sender before the frame leaves (published, release) and read by the
// receiver after the reply arrives; the window keeps the sender from reusing
// a slot the receiver has not consumed (received, acquire).
class Client {
 public:
  Client(int fd, std::uint64_t seed, double rate, bool record)
      : fd_(fd), interval_s_(1.0 / rate), rng_(seed), ring_(kWindow), record_(record) {
    // Submit bodies vary by seed: worker shape and work, all valid specs.
    for (int i = 0; i < 256; ++i) {
      const int gpus = 1 << rng_.UniformInt(0, 3);
      const int min_workers = static_cast<int>(rng_.UniformInt(1, 4));
      const int max_workers = min_workers + static_cast<int>(rng_.UniformInt(0, 4));
      const double work = rng_.Uniform(600.0, 36000.0);
      char body[160];
      std::snprintf(body, sizeof(body),
                    ",\"gpus_per_worker\":%d,\"min_workers\":%d,\"max_workers\":%d,"
                    "\"total_work\":%.1f}",
                    gpus, min_workers, max_workers, work);
      submit_bodies_.emplace_back(body);
    }
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Sends `frames` frames at the client's rate (or as fast as the window
  // allows), giving up on sending after `max_s` seconds; returns once every
  // sent frame is answered.
  void Run(std::uint64_t frames, double max_s) {
    frames_ = frames;
    start_ = Clock::now();
    deadline_ = start_ + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(max_s));
    std::thread receiver([this] { Receive(); });
    Send();
    receiver.join();
    wall_s_ = Seconds(Clock::now() - start_);
  }

  struct Result {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t overloaded = 0;
    std::uint64_t errors = 0;  // error replies, bad frames, FIFO or content mismatches
    std::uint64_t backlog_max = 0;
    double gen_lag_ms = 0.0;
    double wall_s = 0.0;
    std::vector<double> submit_ms;  // corrected to the intended send time
    std::vector<double> read_ms;
    std::vector<double> achieved_ms;  // from the actual send, every kind
    std::vector<std::pair<Clock::time_point, Clock::time_point>> request_spans;
  };

  Result TakeResult() {
    result_.sent = sent_;
    result_.backlog_max = backlog_max_;
    result_.gen_lag_ms = gen_lag_ms_;
    result_.wall_s = wall_s_;
    return std::move(result_);
  }

 private:
  Clock::time_point Intended(std::uint64_t seq) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(seq) * interval_s_));
  }

  void Send() {
    std::string buffer;
    std::string frame;
    std::uint64_t submits = 0;
    for (;;) {
      const Clock::time_point now = Clock::now();
      if (sent_ >= frames_ || now >= deadline_) {
        break;
      }
      const std::uint64_t due =
          std::min(static_cast<std::uint64_t>(Seconds(now - start_) / interval_s_) + 1, frames_);
      const std::uint64_t in_flight = sent_ - received_.load(std::memory_order_acquire);
      const std::uint64_t batch = std::min(due > sent_ ? due - sent_ : 0, kWindow - in_flight);
      if (batch > 0) {
        gen_lag_ms_ = std::max(gen_lag_ms_, Millis(now - Intended(sent_)));
        backlog_max_ = std::max(backlog_max_, in_flight + batch);
        buffer.clear();
        const std::uint64_t acked = acked_.load(std::memory_order_acquire);
        for (std::uint64_t seq = sent_; seq < sent_ + batch; ++seq) {
          Kind kind = kPattern[seq % 8];
          if (kind == Kind::kQuery && acked == 0) {
            kind = Kind::kStats;  // nothing acknowledged to read yet
          }
          Expect& expect = ring_[seq % kWindow];
          expect.kind = kind;
          expect.sent = now;
          frame.assign("{\"seq\":");
          frame += std::to_string(seq);
          if (kind == Kind::kSubmit) {
            expect.job = static_cast<std::int64_t>(submits);
            frame += ",\"cmd\":\"submit\"";
            frame += submit_bodies_[submits % submit_bodies_.size()];
            ++submits;
          } else if (kind == Kind::kQuery) {
            expect.job = static_cast<std::int64_t>(rng_.NextU64() % acked);
            frame += ",\"cmd\":\"query_job\",\"job\":";
            frame += std::to_string(expect.job);
            frame += "}";
          } else {
            expect.job = -1;
            frame += ",\"cmd\":\"cluster_stats\"}";
          }
          lyra::svc::AppendFrame(frame, buffer);
        }
        published_.store(sent_ + batch, std::memory_order_release);
        if (!lyra::svc::WriteAllBytes(fd_, buffer.data(), buffer.size()).ok()) {
          break;
        }
        sent_ += batch;
        continue;
      }
      // Window full: poll for replies. Otherwise sleep until the next frame
      // is due.
      const Clock::time_point next =
          due > sent_ ? now + std::chrono::microseconds(50) : Intended(sent_);
      std::this_thread::sleep_until(std::min(next, deadline_));
    }
    ::shutdown(fd_, SHUT_WR);
  }

  void Check(const std::string& payload, const Clock::time_point now) {
    const std::uint64_t seq = received_.load(std::memory_order_relaxed);
    if (seq >= published_.load(std::memory_order_acquire)) {
      ++result_.errors;  // a reply nobody asked for
      return;
    }
    const Expect& expect = ring_[seq % kWindow];
    std::int64_t echoed = -1;
    const bool ok = payload.rfind("{\"ok\":true", 0) == 0;
    bool matches =
        IntField(payload, "\"seq\":", &echoed) && echoed == static_cast<std::int64_t>(seq);
    if (ok && matches && expect.kind != Kind::kStats) {
      // A submit must get the next dense id; a read of an acknowledged id
      // must find that job (read-your-own-writes).
      std::int64_t job = -1;
      matches = IntField(payload, "\"job\":", &job) && job == expect.job;
    }
    if (ok && matches) {
      ++result_.ok;
      if (expect.kind == Kind::kSubmit) {
        acked_.store(static_cast<std::uint64_t>(expect.job) + 1, std::memory_order_release);
      }
      if (record_) {
        const double corrected = Millis(now - Intended(seq));
        (expect.kind == Kind::kSubmit ? result_.submit_ms : result_.read_ms).push_back(corrected);
        result_.achieved_ms.push_back(Millis(now - expect.sent));
        result_.request_spans.emplace_back(Intended(seq), now);
      }
    } else if (payload.find("\"code\":\"overloaded\"") != std::string::npos) {
      ++result_.overloaded;
    } else {
      ++result_.errors;
    }
    received_.store(seq + 1, std::memory_order_release);
  }

  void Receive() {
    lyra::svc::FrameDecoder decoder;
    std::string payload;
    std::vector<char> buf(kRecvChunk);
    for (;;) {
      const ssize_t n = ::read(fd_, buf.data(), buf.size());
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return;  // EOF after the half-close, or a transport failure
      }
      decoder.Append(buf.data(), static_cast<std::size_t>(n));
      const Clock::time_point now = Clock::now();
      for (;;) {
        lyra::StatusOr<bool> next = decoder.Next(&payload);
        if (!next.ok()) {
          ++result_.errors;
          return;
        }
        if (!next.value()) {
          break;
        }
        Check(payload, now);
      }
    }
  }

  const int fd_;
  const double interval_s_;
  lyra::Rng rng_;  // sender thread only
  std::vector<std::string> submit_bodies_;
  std::vector<Expect> ring_;
  const bool record_;
  std::uint64_t frames_ = 0;
  Clock::time_point start_{};
  Clock::time_point deadline_{};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> acked_{0};
  // Sender-owned.
  std::uint64_t sent_ = 0;
  std::uint64_t backlog_max_ = 0;
  double gen_lag_ms_ = 0.0;
  // Receiver-owned until the join.
  Result result_;
  double wall_s_ = 0.0;
};

struct PhaseResult {
  double setup_s = 0.0;
  Client::Result client;
  ServerWindow server;
  std::string error;
};

// One phase against a brand-new service: start it, scrape, send `frames`
// frames at `rate`, scrape again, stop everything.
PhaseResult RunPhase(const SvcConfig& config, const std::string& unix_path, double rate,
                     std::uint64_t frames, bool record, std::uint64_t client_seed) {
  PhaseResult phase;
  const Clock::time_point setup_start = Clock::now();
  lyra::svc::ServiceOptions options;
  options.engine.scale = 0.05;  // the engine never schedules, so a small cluster
  options.engine.seed = config.seed;
  options.queue_capacity = kQueueCapacity;
  lyra::svc::SchedulerService service(options, std::make_unique<lyra::svc::VirtualTimeDriver>());
  lyra::Status status = service.Start();
  if (!status.ok()) {
    phase.error = "service start: " + status.message();
    return phase;
  }
  lyra::svc::EventLoopOptions loop_options;
  loop_options.unix_path = unix_path;
  loop_options.io_threads = 1;
  lyra::svc::EventLoop loop(&service, loop_options);
  status = loop.Start();
  lyra::StatusOr<int> fd =
      status.ok() ? lyra::svc::ConnectUnix(unix_path) : lyra::StatusOr<int>(status);
  if (!fd.ok()) {
    phase.error = "connect: " + fd.status().message();
    loop.Stop();
    service.Stop();
    return phase;
  }
  phase.setup_s = Seconds(Clock::now() - setup_start);

  StatusOrScrape before = ScrapeService(unix_path);
  Client client(fd.value(), client_seed, rate, record);
  client.Run(frames, 60.0);
  phase.client = client.TakeResult();
  ::close(fd.value());
  StatusOrScrape after = ScrapeService(unix_path);
  if (before.ok() && after.ok()) {
    phase.server = DiffScrapes(before.value(), after.value());
  } else {
    phase.error = "stats_prom scrape failed";
  }
  loop.Stop();
  service.Stop();
  return phase;
}

double Ms(const lyra::obs::Histogram& h, double q) {
  return h.count() > 0 ? h.Quantile(q) * 1e3 : 0.0;
}

double MedianOf(const std::vector<PhaseResult>& phases, double (*field)(const PhaseResult&)) {
  std::vector<double> values;
  for (const PhaseResult& phase : phases) {
    values.push_back(field(phase));
  }
  return Median(std::move(values));
}

}  // namespace

RunOutcome RunSvcWorkload(const SvcConfig& config, double seconds, bool trace,
                          const std::string& trace_path, const std::string& unix_path) {
  RunOutcome outcome;
  // Each round is one light phase and one saturating phase, each on a fresh
  // service; per-layer metrics are medians over rounds. Rounds repeat while
  // the next one fits in `seconds`, and there are at least two.
  std::vector<PhaseResult> light;
  std::vector<PhaseResult> saturated;
  SpanRecorder spans;
  const Clock::time_point window_start = Clock::now();
  double last_round_s = 0.0;
  double first_round_rss_mb = 0.0;
  for (int round = 0;; ++round) {
    const double elapsed = Seconds(Clock::now() - window_start);
    if (round >= 2 && elapsed + last_round_s > seconds) {
      break;
    }
    const Clock::time_point round_start = Clock::now();
    const std::uint64_t seed = config.seed * 1000 + static_cast<std::uint64_t>(round);
    const int light_span = trace ? spans.Begin("svc.light_phase") : -1;
    light.push_back(
        RunPhase(config, unix_path, config.light_rate, config.light_requests, true, seed));
    if (light_span >= 0) {
      spans.End(light_span);
      // Request spans of the first light phase only, which keeps the span
      // file at a few MB.
      if (round == 0) {
        for (const auto& [start, end] : light.back().client.request_spans) {
          spans.Add("svc.request", start, end, light_span);
        }
      }
    }
    const int saturate_span = trace ? spans.Begin("svc.saturate_phase") : -1;
    saturated.push_back(RunPhase(config, unix_path, config.saturate_rate, config.saturate_requests,
                                 false, seed + 500));
    if (saturate_span >= 0) {
      spans.End(saturate_span);
    }
    last_round_s = Seconds(Clock::now() - round_start);
    if (round == 0) {
      // Peak memory of one round. Later rounds' fresh threads may land in
      // new malloc arenas, which says nothing about the service.
      first_round_rss_mb = PeakRssMb();
    }
    const Client::Result& l = light.back().client;
    const Client::Result& h = saturated.back().client;
    std::fprintf(stderr,
                 "perfbench: svc round %d: light p50 %.3f ms p99 %.3f ms gen lag %.3f ms; "
                 "saturated %.0f accepted/s\n",
                 round, Quantile(l.achieved_ms, 0.5), Quantile(l.achieved_ms, 0.99), l.gen_lag_ms,
                 static_cast<double>(h.ok) / h.wall_s);
  }

  std::vector<double> setups;
  for (const std::vector<PhaseResult>* phases : {&light, &saturated}) {
    for (const PhaseResult& phase : *phases) {
      setups.push_back(phase.setup_s);
      const Client::Result& c = phase.client;
      outcome.attempted += c.sent;
      outcome.failed += c.sent - c.ok;
      if (!phase.error.empty()) {
        outcome.Fail(phase.error);
      }
      if (c.ok != c.sent) {
        outcome.Fail("svc: " + std::to_string(c.sent - c.ok) + " of " + std::to_string(c.sent) +
                     " requests not answered correctly (" + std::to_string(c.overloaded) +
                     " overloaded, " + std::to_string(c.errors) + " wrong or failed)");
      }
    }
  }
  outcome.attempted = std::max<std::uint64_t>(outcome.attempted, 1);

  MetricSet& e2e = outcome.end_to_end;
  e2e.Set("setup_s", Median(setups), "s");
  e2e.Set("peak_rss_mb", first_round_rss_mb, "MB");
  // Accepted over the wall time of all saturating phases: the service's
  // speed on a shared host moves from round to round, and the total
  // integrates that where a median of rounds does not.
  double accepted = 0.0;
  double saturated_s = 0.0;
  for (const PhaseResult& phase : saturated) {
    accepted += static_cast<double>(phase.client.ok);
    saturated_s += phase.client.wall_s;
  }
  e2e.Set("work_per_s", accepted / saturated_s, "1/s");
  if (!trace) {
    return outcome;
  }

  MetricSet& layer = outcome.per_layer;
  using Field = double (*)(const PhaseResult&);
  const auto set = [&layer](const char* name, const std::vector<PhaseResult>& phases,
                            Field field, const char* unit) {
    layer.Set(name, MedianOf(phases, field), unit);
  };
  set("svc.submit_p50_ms", light,
      [](const PhaseResult& p) { return Quantile(p.client.submit_ms, 0.50); }, "ms");
  set("svc.submit_p99_ms", light,
      [](const PhaseResult& p) { return Quantile(p.client.submit_ms, 0.99); }, "ms");
  set("svc.read_p50_ms", light,
      [](const PhaseResult& p) { return Quantile(p.client.read_ms, 0.50); }, "ms");
  set("svc.read_p99_ms", light,
      [](const PhaseResult& p) { return Quantile(p.client.read_ms, 0.99); }, "ms");
  set("svc.server_submit_p99_ms", light,
      [](const PhaseResult& p) { return Ms(p.server.submit, 0.99); }, "ms");
  set("svc.server_read_p99_ms", light,
      [](const PhaseResult& p) { return Ms(p.server.read, 0.99); }, "ms");
  set("svc.client_minus_server_p50_ms", light,
      [](const PhaseResult& p) {
        lyra::obs::Histogram all = p.server.submit;
        all.Merge(p.server.read);
        return Quantile(p.client.achieved_ms, 0.50) - Ms(all, 0.50);
      },
      "ms");
  set("svc.dispatch_lag_p99_ms", light,
      [](const PhaseResult& p) { return Ms(p.server.dispatch_lag, 0.99); }, "ms");
  set("svc.gen_lag_ms", light, [](const PhaseResult& p) { return p.client.gen_lag_ms; }, "ms");
  set("svc.backlog_max", light,
      [](const PhaseResult& p) { return static_cast<double>(p.client.backlog_max); }, "count");
  set("svc.engine_apply_s", saturated,
      [](const PhaseResult& p) { return p.server.batch_apply.sum(); }, "s");
  set("svc.engine_batch_commands_mean", saturated,
      [](const PhaseResult& p) { return p.server.batch_commands.mean(); }, "count");
  set("svc.snapshot_publish_s", saturated,
      [](const PhaseResult& p) { return p.server.snapshot_publish.sum(); }, "s");
  set("svc.queue_peak", saturated, [](const PhaseResult& p) { return p.server.queue_peak; },
      "count");
  double overloaded = 0.0;
  for (const std::vector<PhaseResult>* phases : {&light, &saturated}) {
    for (const PhaseResult& phase : *phases) {
      overloaded += phase.server.overloaded;
    }
  }
  layer.Set("svc.overloaded", overloaded, "count");

  if (!trace_path.empty()) {
    const lyra::Status written = spans.WriteTrace(trace_path);
    if (!written.ok()) {
      outcome.Fail("cannot write " + trace_path + ": " + written.message());
    }
  }
  return outcome;
}

}  // namespace perfbench
