// SchedulerService: the online scheduler daemon core (DESIGN.md §8).
//
// Wraps the Simulator/ClusterState/Lyra orchestrator stack behind a
// single-writer command queue: one engine thread owns the simulation and
// drains the queue in batches — one lock acquisition and one snapshot
// publication per batch — so pipelining clients amortize mutex/condvar
// traffic across many commands. Backpressure is explicit: when the queue is
// full, submission completes immediately with an `overloaded` reply carrying
// a retry-after hint, so socket workers never wedge behind a slow engine.
//
// Read-only commands (query_job, cluster_stats, metrics, ping) never touch
// the queue. After every applied batch the engine publishes an immutable
// StateSnapshot through an atomic shared_ptr swap; ReadReply answers from
// the latest snapshot on the caller's thread, RCU-style, with no locks.
// Because the publish happens before batch completions are delivered, a
// client that pipelines a write and then a read on one connection always
// reads its own write.
//
// Commands are JSON objects with a "cmd" field: submit, cancel, query_job,
// cluster_stats, metrics, advance, drain, snapshot, ping, shutdown. Mutating
// commands are stamped with virtual time (max of the engine frontier, the
// time driver's clock, and an optional explicit "at" parameter) and recorded
// in an in-memory command log; the engine always steps to the stamp before
// applying, which makes its event sequence a pure function of the logged
// command sequence. That is the warm-restart invariant: a snapshot persists
// the EngineConfig plus the command log, and Restore replays it into a
// bit-identical engine (same decision log, same fault-log hash). Batching
// changes when commands are applied, never their stamps, so the invariant is
// unaffected by pipelining.
#ifndef SRC_SVC_SERVICE_H_
#define SRC_SVC_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/svc/registry.h"
#include "src/svc/snapshot.h"
#include "src/svc/state_snapshot.h"
#include "src/svc/telemetry.h"
#include "src/svc/time_driver.h"

namespace lyra::svc {

struct ServiceOptions {
  EngineConfig engine;
  // Runtime knobs; none of these affect scheduling decisions, so none are
  // snapshotted.
  int queue_capacity = 1024;
  // Virtual-time mode only: free-run the engine toward quiescence between
  // commands (a daemon's jobs make progress without client traffic). Leave
  // off for deterministic scripting, where the engine moves only on command
  // stamps and explicit advance/drain.
  bool auto_advance = false;
  // Hint clients receive with an `overloaded` rejection.
  double retry_after_ms = 50.0;
  // Minimum wall-clock interval between metrics re-exports into the read
  // snapshot; bounds how stale a `metrics` reply's engine section can be.
  double metrics_refresh_ms = 10.0;
  // When non-empty, the engine streams a Perfetto trace here (including the
  // service's own command instants on the svc track), written on Stop().
  std::string trace_path;
  // Federation only: size loan grants from a UsagePredictor over each
  // training cluster's pending demand instead of the raw pending-job count
  // ("seasonal-naive" | "lstm" | "last-value"; empty = off). Predictor
  // state is not snapshotted — a restored federation starts it cold.
  std::string loan_predictor;
};

class SchedulerService {
 public:
  struct Stats {
    std::uint64_t commands_applied = 0;
    std::uint64_t jobs_submitted = 0;
    std::uint64_t jobs_cancelled = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t command_errors = 0;
    // Read-only commands answered from the snapshot (never enqueued).
    std::uint64_t reads_served = 0;
    std::uint64_t snapshots_published = 0;
    std::size_t queue_depth = 0;
    std::size_t queue_peak = 0;
  };

  // How a command is routed. Reads are answered from the snapshot on the
  // caller's thread; engine commands are queued to the single writer;
  // unknown commands fail inline without touching the queue.
  enum class CmdClass { kRead, kEngine, kUnknown };
  static CmdClass Classify(const std::string& cmd);
  // Table-mapped overload for front ends that already resolved the command
  // name to a TelemetryCmd (one string scan instead of two).
  static CmdClass Classify(TelemetryCmd cmd);

  // Where a command's reply goes: OnReply(a, b, reply) is invoked exactly
  // once, on the engine thread for queued commands or inline on the
  // caller's thread for immediate rejections (overload, stopped service),
  // never under a service lock. The queue holds {sink, two caller-chosen
  // words} rather than a type-erased closure, so enqueuing a command costs
  // a shared_ptr bump and no allocation.
  class CompletionSink {
   public:
    virtual ~CompletionSink() = default;
    virtual void OnReply(std::uint64_t a, std::uint64_t b, JsonValue reply) = 0;
  };

  // The synchronous callers' sink (Execute here and in ShardRouter): Wait()
  // blocks until the one reply lands and returns it.
  class WaitSink : public CompletionSink {
   public:
    void OnReply(std::uint64_t a, std::uint64_t b, JsonValue reply) override;
    JsonValue Wait();

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    JsonValue reply_;
  };

  // `ids` is the engine's job-id space in its fleet; a lone engine keeps
  // the default, its simulator's own ids.
  SchedulerService(ServiceOptions options, std::unique_ptr<TimeDriver> driver,
                   JobIdSpace ids = {});
  ~SchedulerService();

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  // Builds the engine and starts the engine thread. InvalidArgument on
  // unknown scheduler/reclaim names.
  Status Start();

  // Builds the engine from `snapshot_path` (its EngineConfig overrides
  // options.engine) and replays the persisted command log before serving.
  // Call instead of Start().
  Status Restore(const std::string& snapshot_path);

  // Same, from an in-memory LYRASNAP file image — the multi-shard restore
  // path, where the container carries each shard's image byte-for-byte.
  // `origin` only flavors error messages.
  Status RestoreBytes(const std::string& image, const std::string& origin);

  // Processes every queued command, stops the engine thread, and finalizes
  // the engine (flushing the trace file). Idempotent.
  void Stop();

  // True once a shutdown command or Stop() landed.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // Thread-safe command entry point. Read-only commands return from the
  // snapshot without blocking; engine commands block until the engine thread
  // replies, except when the queue is full (immediate `overloaded` reply) or
  // the service is stopped (immediate `stopped` reply).
  JsonValue Execute(const JsonValue& request);
  // Wire entry point: parses with JsonParseLimits::Untrusted() and returns
  // the serialized reply.
  std::string ExecuteText(const std::string& request_text);

  // Non-blocking entry point for front ends that already classified the
  // command: enqueues an engine command and returns; sink->OnReply(a, b,
  // reply) fires after the batch containing it is applied and its snapshot
  // published. Rejections (overload, stopped) and reads (`cls` other than
  // kEngine, answered through ReadReply) reply before this returns.
  void ExecuteAsync(JsonValue request, std::shared_ptr<CompletionSink> sink,
                    std::uint64_t a, std::uint64_t b, CmdClass cls);

  // Answers a read-only (or unknown) command from the current snapshot:
  // ReadFleet (reads.h) over this one engine. Never touches the engine
  // queue. Callable from any thread.
  JsonValue ReadReply(const JsonValue& request) const;

  // Counts a wire-level protocol error (unparseable or malformed frame) in
  // Stats::command_errors. For transport front ends that parse frames
  // themselves instead of going through ExecuteText.
  void CountProtocolError() const {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
  }

  // Counts one served read in Stats::reads_served. ReadFleet counts every
  // read of a fleet, one engine or many, on the fleet's front engine.
  void CountRead() const {
    reads_served_.fetch_add(1, std::memory_order_relaxed);
  }

  // Advisory saturation hint for front ends: true when the engine queue was
  // at capacity at the last push/drain. Reading it races with the engine's
  // drain by design — a front end may shed a command the queue could just
  // have taken (or vice versa); the authoritative check in ExecuteAsync
  // still rejects when the queue really is full. Shedding on the hint lets
  // an overloaded front end answer with a canned rejection instead of
  // paying the reply-build + completion round trip per rejected frame.
  bool EngineSaturated() const {
    return queue_len_.load(std::memory_order_relaxed) >=
           static_cast<std::size_t>(options_.queue_capacity);
  }

  // Records a rejection the front end shed on the EngineSaturated() hint;
  // folded into Stats::rejected_overload.
  void CountShedOverload() const {
    rejected_shed_.fetch_add(1, std::memory_order_relaxed);
  }

  // Racy engine-queue length, for telemetry annotations only (same mirror
  // that backs EngineSaturated()).
  std::size_t QueueDepthHint() const {
    return queue_len_.load(std::memory_order_relaxed);
  }

  // The latest published snapshot (null before Start/Restore).
  std::shared_ptr<const StateSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  // The telemetry registry. Front ends acquire their per-thread shards here;
  // scrapers (RenderPrometheus, trace_dump) merge through it. The registry is
  // logically part of the service's observable state, hence usable through a
  // const service.
  Telemetry& telemetry() const { return telemetry_; }

  // Wall-clock seconds since construction (the telemetry epoch).
  double UptimeSeconds() const {
    return static_cast<double>(TelemetryNowNs() - telemetry_.epoch_ns()) * 1e-9;
  }

  const char* driver_name() const { return driver_->name(); }

  // Writes the flight recorder (every shard's recent request spans, merged
  // and time-sorted) as a Perfetto-loadable Chrome trace at `path`. Returns
  // the number of spans written. Any thread; also wired to SIGUSR1 in
  // lyra_schedd and the `trace_dump` wire command.
  StatusOr<std::size_t> DumpFlightRecorder(const std::string& path) const;

  Stats stats() const;
  const ServiceOptions& options() const { return options_; }
  TimeDriver* driver() const { return driver_.get(); }

  // Engine access for embedding and tests. Safe only when no engine thread
  // is running (before Start or after Stop).
  const Simulator& simulator() const { return *engine_.sim; }
  const std::vector<LoggedCommand>& command_log() const { return log_; }

 private:
  struct PendingCommand {
    JsonValue request;
    std::shared_ptr<CompletionSink> sink;
    std::uint64_t sink_a = 0;
    std::uint64_t sink_b = 0;
  };

  enum class NextAction { kApply, kStep, kWaitRealTime, kStop };

  void EngineLoop();
  NextAction Next(std::vector<PendingCommand>* batch);
  void PublishSnapshot(bool force_metrics);
  void EnqueueEngine(PendingCommand cmd);

  JsonValue Apply(const JsonValue& request);
  JsonValue ApplySubmit(const JsonValue& request);
  JsonValue ApplyCancel(const JsonValue& request);
  JsonValue ApplyAdvance(const JsonValue& request);
  JsonValue ApplyDrain();
  JsonValue ApplySnapshot(const JsonValue& request);

  // Shared tail of Restore/RestoreBytes: rebuild the engine and replay.
  Status RestoreSnapshot(ServiceSnapshot snapshot);

  // Virtual-time stamp for a mutating command: max(engine frontier, driver
  // clock, explicit "at"). Monotone by construction.
  TimeSec StampFor(const JsonValue& request) const;
  void TraceCommand(const char* name, TimeSec stamp);
  Status ReplayCommand(const LoggedCommand& cmd);

  ServiceOptions options_;
  std::unique_ptr<TimeDriver> driver_;
  const JobIdSpace ids_;
  Engine engine_;
  std::vector<LoggedCommand> log_;

  // Sharded telemetry plane (DESIGN.md §9). Mutable: shard acquisition and
  // recording are observability, not service state.
  mutable Telemetry telemetry_;
  // Engine thread's shard; acquired in Start/Restore before the thread runs.
  TelemetryShard* engine_shard_ = nullptr;

  SnapshotBuilder builder_;  // engine-thread only
  std::atomic<std::shared_ptr<const StateSnapshot>> snapshot_;

  std::thread engine_thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // engine thread waits for work here
  std::deque<PendingCommand> queue_;
  // Lock-free mirror of queue_.size(), refreshed at every push and drain;
  // backs the EngineSaturated() shed hint only (never authoritative).
  std::atomic<std::size_t> queue_len_{0};
  // Front-end sheds on the saturation hint; merged into rejected_overload.
  mutable std::atomic<std::uint64_t> rejected_shed_{0};
  bool stop_requested_ = false;
  bool started_ = false;
  std::atomic<bool> stopped_{false};
  // Engine-thread-only: true once auto-advance reached quiescence (reset by
  // the next mutating command), so the loop blocks instead of spinning.
  bool auto_quiescent_ = false;
  bool finalized_ = false;

  // Engine-thread-local batch accumulators, folded into the mu_-guarded
  // counters once per batch (before completions are delivered, so a caller
  // that saw its reply also sees its command counted).
  std::uint64_t batch_applied_ = 0;
  std::uint64_t batch_submitted_ = 0;
  std::uint64_t batch_cancelled_ = 0;
  std::chrono::steady_clock::time_point last_metrics_refresh_{};

  // Guarded by mu_ so a stats() reader always sees one coherent snapshot of
  // the queue-coupled counters (queue_depth/queue_peak vs applied counts).
  std::uint64_t commands_applied_ = 0;
  std::uint64_t jobs_submitted_ = 0;
  std::uint64_t jobs_cancelled_ = 0;
  std::uint64_t rejected_overload_ = 0;
  std::uint64_t snapshots_published_ = 0;
  std::size_t queue_peak_ = 0;

  // Touched by reader threads on the lock-free path; relaxed atomics.
  mutable std::atomic<std::uint64_t> command_errors_{0};
  mutable std::atomic<std::uint64_t> reads_served_{0};
};

}  // namespace lyra::svc

#endif  // SRC_SVC_SERVICE_H_
