#include "src/svc/service.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>

#include "src/common/check.h"
#include "src/obs/trace_exporter.h"
#include "src/svc/reads.h"
#include "src/svc/replies.h"

namespace lyra::svc {
namespace {

// Events the engine processes per auto-advance chunk before re-checking the
// command queue; bounds command latency while the engine free-runs.
constexpr std::uint64_t kAutoStepChunk = 4096;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

bool ModelFamilyFromName(const std::string& name, ModelFamily* family) {
  for (ModelFamily candidate :
       {ModelFamily::kResNet, ModelFamily::kVgg, ModelFamily::kBert,
        ModelFamily::kGnmt, ModelFamily::kOther}) {
    if (name == ModelFamilyName(candidate)) {
      *family = candidate;
      return true;
    }
  }
  // Lowercase shorthands for hand-typed commands.
  if (name == "resnet") {
    *family = ModelFamily::kResNet;
  } else if (name == "vgg") {
    *family = ModelFamily::kVgg;
  } else if (name == "bert") {
    *family = ModelFamily::kBert;
  } else if (name == "gnmt") {
    *family = ModelFamily::kGnmt;
  } else if (name == "other" || name.empty()) {
    *family = ModelFamily::kOther;
  } else {
    return false;
  }
  return true;
}

}  // namespace

SchedulerService::CmdClass SchedulerService::Classify(const std::string& cmd) {
  return Classify(TelemetryCmdFromName(cmd));
}

SchedulerService::CmdClass SchedulerService::Classify(TelemetryCmd cmd) {
  switch (cmd) {
    case TelemetryCmd::kSubmit:
    case TelemetryCmd::kCancel:
    case TelemetryCmd::kAdvance:
    case TelemetryCmd::kDrain:
    case TelemetryCmd::kSnapshot:
    case TelemetryCmd::kShutdown:
    case TelemetryCmd::kMigrate:
      return CmdClass::kEngine;
    case TelemetryCmd::kQueryJob:
    case TelemetryCmd::kClusterStats:
    case TelemetryCmd::kMetrics:
    case TelemetryCmd::kPing:
    case TelemetryCmd::kStatsProm:
    case TelemetryCmd::kTraceDump:
    case TelemetryCmd::kFederationStats:
      return CmdClass::kRead;
    case TelemetryCmd::kOther:
    case TelemetryCmd::kBatchApply:
    case TelemetryCmd::kSnapshotPublish:
      break;
  }
  return CmdClass::kUnknown;
}

SchedulerService::SchedulerService(ServiceOptions options,
                                   std::unique_ptr<TimeDriver> driver,
                                   JobIdSpace ids)
    : options_(std::move(options)),
      driver_(std::move(driver)),
      ids_(ids),
      builder_(ids) {
  LYRA_CHECK(driver_ != nullptr);
  LYRA_CHECK_GT(options_.queue_capacity, 0);
}

SchedulerService::~SchedulerService() { Stop(); }

Status SchedulerService::Start() {
  StatusOr<Engine> built = BuildEngine(options_.engine, options_.trace_path);
  if (!built.ok()) {
    return built.status();
  }
  engine_ = std::move(built.value());
  engine_.sim->Begin();
  engine_.sim->set_job_dirty_sink(builder_.sink());
  snapshot_.store(builder_.Publish(*engine_.sim, log_.size(), true),
                  std::memory_order_release);
  last_metrics_refresh_ = std::chrono::steady_clock::now();
  engine_shard_ = telemetry_.AcquireShard("engine");
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    snapshots_published_ = 1;
  }
  engine_thread_ = std::thread(&SchedulerService::EngineLoop, this);
  return Status::Ok();
}

Status SchedulerService::Restore(const std::string& snapshot_path) {
  StatusOr<ServiceSnapshot> loaded = LoadSnapshot(snapshot_path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  return RestoreSnapshot(std::move(loaded).value());
}

Status SchedulerService::RestoreBytes(const std::string& image,
                                      const std::string& origin) {
  StatusOr<ServiceSnapshot> decoded = DecodeSnapshot(image, origin);
  if (!decoded.ok()) {
    return decoded.status();
  }
  return RestoreSnapshot(std::move(decoded).value());
}

Status SchedulerService::RestoreSnapshot(ServiceSnapshot snapshot) {
  options_.engine = snapshot.config;
  StatusOr<Engine> built = BuildEngine(options_.engine, options_.trace_path);
  if (!built.ok()) {
    return built.status();
  }
  engine_ = std::move(built.value());
  engine_.sim->Begin();
  // Replay: the exact discipline the live service used — step to the stamp,
  // re-apply. Event sequencing is a pure function of this command list, so
  // the rebuilt engine's decision log matches the original's byte-for-byte.
  for (const LoggedCommand& cmd : snapshot.commands) {
    const Status replayed = ReplayCommand(cmd);
    if (!replayed.ok()) {
      return replayed;
    }
  }
  engine_.sim->StepUntil(snapshot.horizon);
  driver_->AdvanceTo(engine_.sim->now());
  log_ = std::move(snapshot.commands);
  engine_.sim->set_job_dirty_sink(builder_.sink());
  snapshot_.store(builder_.Publish(*engine_.sim, log_.size(), true),
                  std::memory_order_release);
  last_metrics_refresh_ = std::chrono::steady_clock::now();
  engine_shard_ = telemetry_.AcquireShard("engine");
  {
    std::lock_guard<std::mutex> lock(mu_);
    started_ = true;
    snapshots_published_ = 1;
  }
  engine_thread_ = std::thread(&SchedulerService::EngineLoop, this);
  return Status::Ok();
}

Status SchedulerService::ReplayCommand(const LoggedCommand& cmd) {
  Simulator& sim = *engine_.sim;
  switch (cmd.kind) {
    case CommandKind::kSubmit: {
      sim.StepUntil(cmd.stamp);
      const StatusOr<JobId> id = sim.SubmitJob(cmd.spec);
      if (!id.ok()) {
        return Status::DataLoss("snapshot replay: submit failed: " +
                                id.status().message());
      }
      return Status::Ok();
    }
    case CommandKind::kCancel: {
      sim.StepUntil(cmd.stamp);
      const Status status = sim.CancelJob(JobId(cmd.job));
      if (!status.ok()) {
        return Status::DataLoss("snapshot replay: cancel failed: " +
                                status.message());
      }
      return Status::Ok();
    }
    case CommandKind::kAdvance:
      sim.StepUntil(cmd.stamp);
      return Status::Ok();
    case CommandKind::kDrain:
      sim.StepUntil(kInfinity);
      return Status::Ok();
  }
  return Status::DataLoss("snapshot replay: unknown command kind");
}

void SchedulerService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      stopped_.store(true, std::memory_order_release);
      return;
    }
    stop_requested_ = true;
  }
  stopped_.store(true, std::memory_order_release);
  cv_.notify_all();
  driver_->Interrupt();
  if (engine_thread_.joinable()) {
    engine_thread_.join();
  }
  if (engine_.sim != nullptr && !finalized_) {
    finalized_ = true;
    engine_.sim->Finalize();  // closes meters, writes the trace file
  }
}

SchedulerService::Stats SchedulerService::stats() const {
  Stats stats;
  stats.command_errors = command_errors_.load(std::memory_order_relaxed);
  stats.reads_served = reads_served_.load(std::memory_order_relaxed);
  // One lock for the queue-coupled counters: a reader never observes a batch
  // counted as applied while queue_depth still includes it, or a queue_peak
  // below a previously returned queue_depth.
  std::lock_guard<std::mutex> lock(mu_);
  stats.commands_applied = commands_applied_;
  stats.jobs_submitted = jobs_submitted_;
  stats.jobs_cancelled = jobs_cancelled_;
  stats.rejected_overload =
      rejected_overload_ + rejected_shed_.load(std::memory_order_relaxed);
  stats.snapshots_published = snapshots_published_;
  stats.queue_depth = queue_.size();
  stats.queue_peak = queue_peak_;
  return stats;
}

void SchedulerService::WaitSink::OnReply(std::uint64_t /*a*/,
                                         std::uint64_t /*b*/, JsonValue reply) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    reply_ = std::move(reply);
    done_ = true;
  }
  cv_.notify_all();
}

JsonValue SchedulerService::WaitSink::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return done_; });
  return std::move(reply_);
}

JsonValue SchedulerService::Execute(const JsonValue& request) {
  const CmdClass cls = Classify(request.GetString("cmd"));
  if (cls != CmdClass::kEngine) {
    return ReadReply(request);
  }
  auto waiter = std::make_shared<WaitSink>();
  ExecuteAsync(request, waiter, 0, 0, cls);
  return waiter->Wait();
}

std::string SchedulerService::ExecuteText(const std::string& request_text) {
  const StatusOr<JsonValue> parsed =
      JsonValue::Parse(request_text, JsonParseLimits::Untrusted());
  if (!parsed.ok()) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply("invalid_argument", "bad request: " + parsed.status().message())
        .Dump();
  }
  if (!parsed.value().is_object()) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply("invalid_argument", "request must be a JSON object").Dump();
  }
  return Execute(parsed.value()).Dump();
}

void SchedulerService::ExecuteAsync(JsonValue request,
                                    std::shared_ptr<CompletionSink> sink,
                                    std::uint64_t a, std::uint64_t b,
                                    CmdClass cls) {
  if (cls != CmdClass::kEngine) {
    sink->OnReply(a, b, ReadReply(request));
    return;
  }
  PendingCommand cmd;
  cmd.request = std::move(request);
  cmd.sink = std::move(sink);
  cmd.sink_a = a;
  cmd.sink_b = b;
  EnqueueEngine(std::move(cmd));
}

void SchedulerService::EnqueueEngine(PendingCommand cmd) {
  JsonValue rejection;
  bool rejected = false;
  bool was_empty = false;
  if (stopped()) {
    rejection = ErrorReply("unavailable", "service is stopped");
    rejected = true;
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stop_requested_) {
      rejection = ErrorReply("unavailable", "service is stopped");
      rejected = true;
    } else if (queue_.size() >= static_cast<std::size_t>(options_.queue_capacity)) {
      ++rejected_overload_;
      rejection = ErrorReply("overloaded", "command queue full");
      rejection.Set("retry_after_ms", JsonValue::MakeNumber(options_.retry_after_ms));
      rejected = true;
    } else {
      was_empty = queue_.empty();
      queue_.push_back(std::move(cmd));
      queue_len_.store(queue_.size(), std::memory_order_relaxed);
      queue_peak_ = std::max(queue_peak_, queue_.size());
    }
  }
  if (rejected) {
    EchoSeq(cmd.request, rejection);
    cmd.sink->OnReply(cmd.sink_a, cmd.sink_b, std::move(rejection));
    return;
  }
  // Only the push that makes the queue non-empty can find the engine asleep:
  // the engine drains the whole queue under the lock, so while it holds
  // earlier commands it is awake and will pick ours up in its next drain.
  // Pipelined bursts thus pay one wakeup, not one per command.
  if (was_empty) {
    cv_.notify_one();
    driver_->Interrupt();
  }
}

JsonValue SchedulerService::ReadReply(const JsonValue& request) const {
  const SchedulerService* self = this;
  return ReadFleet({&self, 1}, request, nullptr);
}

SchedulerService::NextAction SchedulerService::Next(
    std::vector<PendingCommand>* batch) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (!queue_.empty()) {
      // Drain the whole queue in one lock hold: pipelined clients pay one
      // mutex round and one snapshot publish per batch, not per command.
      batch->reserve(queue_.size());
      for (PendingCommand& cmd : queue_) {
        batch->push_back(std::move(cmd));
      }
      queue_.clear();
      queue_len_.store(0, std::memory_order_relaxed);
      return NextAction::kApply;
    }
    if (stop_requested_) {
      return NextAction::kStop;
    }
    Simulator& sim = *engine_.sim;
    if (driver_->realtime()) {
      if (sim.HasUnfinishedJobs() && std::isfinite(sim.NextEventTime())) {
        return NextAction::kWaitRealTime;
      }
    } else if (options_.auto_advance && !auto_quiescent_ &&
               sim.HasUnfinishedJobs()) {
      return NextAction::kStep;
    }
    cv_.wait(lock);
  }
}

void SchedulerService::PublishSnapshot(bool force_metrics) {
  const auto wall = std::chrono::steady_clock::now();
  bool refresh = force_metrics;
  if (!refresh &&
      std::chrono::duration<double, std::milli>(wall - last_metrics_refresh_)
              .count() >= options_.metrics_refresh_ms) {
    refresh = true;
  }
  if (refresh) {
    last_metrics_refresh_ = wall;
  }
  const std::uint64_t publish_start =
      engine_shard_ != nullptr ? TelemetryNowNs() : 0;
  snapshot_.store(builder_.Publish(*engine_.sim, log_.size(), refresh),
                  std::memory_order_release);
  if (engine_shard_ != nullptr) {
    engine_shard_->engine_snapshot_publish.Record(TelemetryNowNs() -
                                                  publish_start);
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshots_published_;
}

void SchedulerService::EngineLoop() {
  std::vector<PendingCommand> batch;
  std::vector<JsonValue> replies;
  for (;;) {
    batch.clear();
    switch (Next(&batch)) {
      case NextAction::kApply: {
        const std::uint64_t apply_start = TelemetryNowNs();
        replies.clear();
        replies.reserve(batch.size());
        for (const PendingCommand& cmd : batch) {
          replies.push_back(Apply(cmd.request));
          EchoSeq(cmd.request, replies.back());
        }
        if (engine_shard_ != nullptr) {
          const std::uint64_t apply_end = TelemetryNowNs();
          engine_shard_->engine_batch_apply.Record(apply_end - apply_start);
          engine_shard_->engine_batch_commands.Record(batch.size());
          engine_shard_->spans.Record(
              apply_start, apply_end - apply_start, log_.size(), batch.size(),
              static_cast<std::uint32_t>(
                  queue_len_.load(std::memory_order_relaxed)),
              TelemetryCmd::kBatchApply);
        }
        // Publish before delivering replies: a client that saw its write
        // acknowledged reads a snapshot at or past that write.
        PublishSnapshot(false);
        {
          std::lock_guard<std::mutex> lock(mu_);
          commands_applied_ += batch_applied_;
          jobs_submitted_ += batch_submitted_;
          jobs_cancelled_ += batch_cancelled_;
        }
        batch_applied_ = 0;
        batch_submitted_ = 0;
        batch_cancelled_ = 0;
        for (std::size_t i = 0; i < batch.size(); ++i) {
          batch[i].sink->OnReply(batch[i].sink_a, batch[i].sink_b,
                                 std::move(replies[i]));
        }
        break;
      }
      case NextAction::kStep: {
        // Free-run toward quiescence in bounded chunks so a newly queued
        // command waits at most one chunk.
        const bool more = engine_.sim->StepUntil(kInfinity, kAutoStepChunk);
        driver_->AdvanceTo(engine_.sim->now());
        if (!more) {
          auto_quiescent_ = true;
        }
        PublishSnapshot(false);
        break;
      }
      case NextAction::kWaitRealTime: {
        // Sleep (interruptibly) until the wall clock reaches the next
        // event, then catch the engine up to the driver's time.
        if (driver_->WaitUntil(engine_.sim->NextEventTime())) {
          engine_.sim->StepUntil(driver_->Now());
          PublishSnapshot(false);
        }
        break;
      }
      case NextAction::kStop:
        return;
    }
  }
}

TimeSec SchedulerService::StampFor(const JsonValue& request) const {
  const double at = request.GetDouble("at", -1.0);
  const double base = at >= 0.0 ? at : driver_->Now();
  return std::max(base, engine_.sim->now());
}

void SchedulerService::TraceCommand(const char* name, TimeSec stamp) {
  obs::TraceExporter* trace = engine_.sim->mutable_trace_exporter();
  if (trace != nullptr) {
    char args[48];
    std::snprintf(args, sizeof(args), "\"log_seq\": %zu", log_.size());
    trace->Instant(obs::TraceTrack::kService, name, stamp, args);
  }
}

JsonValue SchedulerService::Apply(const JsonValue& request) {
  ++batch_applied_;
  const std::string cmd = request.GetString("cmd");
  if (cmd == "submit") {
    return ApplySubmit(request);
  }
  if (cmd == "cancel") {
    return ApplyCancel(request);
  }
  if (cmd == "advance") {
    return ApplyAdvance(request);
  }
  if (cmd == "drain") {
    return ApplyDrain();
  }
  if (cmd == "snapshot") {
    return ApplySnapshot(request);
  }
  if (cmd == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_requested_ = true;
    }
    stopped_.store(true, std::memory_order_release);
    cv_.notify_all();
    JsonValue reply = OkReply();
    reply.Set("stopping", JsonValue::MakeBool(true));
    return reply;
  }
  command_errors_.fetch_add(1, std::memory_order_relaxed);
  return ErrorReply("invalid_argument", "unknown cmd: \"" + cmd + "\"");
}

JsonValue SchedulerService::ApplySubmit(const JsonValue& request) {
  // One walk over the request's members instead of a Find() scan per field:
  // submit dominates saturation traffic and the scans were measurable there.
  JobSpec spec;
  spec.gpus_per_worker = 1;
  spec.min_workers = 1;
  spec.max_workers = 0;  // defaults to min_workers when absent
  bool have_max_workers = false;
  const JsonValue* model_field = nullptr;
  unsigned seen = 0;  // first occurrence wins, matching Find()'s semantics
  const auto first = [&seen](int bit) {
    if ((seen & (1u << bit)) != 0) {
      return false;
    }
    seen |= 1u << bit;
    return true;
  };
  // A worker field that is a number must be an int; a non-number keeps the
  // default. Returns whether `out` was set; a bad number names its field.
  const char* bad_field = nullptr;
  const auto read_int = [&bad_field](const JsonValue& v, const char* field, int* out) {
    if (!v.is_number()) {
      return false;
    }
    const std::optional<std::int64_t> n = v.AsInt();
    if (!n || *n < std::numeric_limits<int>::min() || *n > std::numeric_limits<int>::max()) {
      if (bad_field == nullptr) bad_field = field;
      return false;
    }
    *out = static_cast<int>(*n);
    return true;
  };
  for (const auto& [key, value] : request.AsObject()) {
    if (key == "gpus_per_worker") {
      if (first(0)) read_int(value, "gpus_per_worker", &spec.gpus_per_worker);
    } else if (key == "min_workers") {
      if (first(1)) read_int(value, "min_workers", &spec.min_workers);
    } else if (key == "max_workers") {
      if (first(2)) have_max_workers = read_int(value, "max_workers", &spec.max_workers);
    } else if (key == "requested_workers") {
      if (first(3)) read_int(value, "requested_workers", &spec.requested_workers);
    } else if (key == "fungible") {
      if (first(4)) spec.fungible = value.is_bool() && value.AsBool();
    } else if (key == "heterogeneous") {
      if (first(5)) spec.heterogeneous = value.is_bool() && value.AsBool();
    } else if (key == "checkpointing") {
      if (first(6)) spec.checkpointing = value.is_bool() && value.AsBool();
    } else if (key == "total_work") {
      if (first(7)) spec.total_work = value.is_number() ? value.AsDouble() : 0.0;
    } else if (key == "model") {
      if (first(8)) model_field = &value;
    }
  }
  if (bad_field != nullptr) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply("invalid_argument",
                      std::string("submit \"") + bad_field + "\" must be an integer in int range");
  }
  if (!have_max_workers) {
    spec.max_workers = spec.min_workers;
  }
  const std::string model =
      model_field != nullptr && model_field->is_string() ? model_field->AsString()
                                                         : "other";
  if (!ModelFamilyFromName(model, &spec.model)) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply("invalid_argument", "unknown model family: " + model);
  }

  const TimeSec stamp = StampFor(request);
  spec.submit_time = stamp;
  engine_.sim->StepUntil(stamp);
  const StatusOr<JobId> id = engine_.sim->SubmitJob(spec);
  if (!id.ok()) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return StatusReply(id.status());
  }
  LoggedCommand logged;
  logged.kind = CommandKind::kSubmit;
  logged.stamp = stamp;
  logged.spec = spec;
  TraceCommand("submit", stamp);
  log_.push_back(std::move(logged));
  ++batch_submitted_;
  auto_quiescent_ = false;

  JsonValue reply = OkReply();
  reply.Set("job", JsonValue::MakeNumber(
                       static_cast<double>(ids_.Global(id.value().value))));
  reply.Set("time", JsonValue::MakeNumber(stamp));
  return reply;
}

JsonValue SchedulerService::ApplyCancel(const JsonValue& request) {
  const std::optional<std::int64_t> id = request.GetInt("job");
  if (!id) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply("invalid_argument", "cancel requires a numeric \"job\"");
  }
  const std::int64_t local = ids_.Local(*id);
  const TimeSec stamp = StampFor(request);
  engine_.sim->StepUntil(stamp);
  const Status status = engine_.sim->CancelJob(JobId(local));
  if (!status.ok()) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    // The simulator's text names its own id; the reply names the client's.
    return status.code() == StatusCode::kNotFound
               ? NoSuchJob(*id)
               : ErrorReply("failed_precondition",
                            "job " + std::to_string(*id) + " already terminated");
  }
  LoggedCommand logged;
  logged.kind = CommandKind::kCancel;
  logged.stamp = stamp;
  logged.job = local;
  TraceCommand("cancel", stamp);
  log_.push_back(std::move(logged));
  ++batch_cancelled_;
  auto_quiescent_ = false;

  JsonValue reply = OkReply();
  reply.Set("job", JsonValue::MakeNumber(static_cast<double>(*id)));
  reply.Set("time", JsonValue::MakeNumber(engine_.sim->now()));
  return reply;
}

JsonValue SchedulerService::ApplyAdvance(const JsonValue& request) {
  const double to = request.GetDouble("to", -1.0);
  if (to < 0.0 || !std::isfinite(to)) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply("invalid_argument",
                      "advance requires a finite non-negative \"to\"");
  }
  const TimeSec stamp = std::max(to, engine_.sim->now());
  engine_.sim->StepUntil(stamp);
  driver_->AdvanceTo(stamp);
  LoggedCommand logged;
  logged.kind = CommandKind::kAdvance;
  logged.stamp = stamp;
  TraceCommand("advance", stamp);
  log_.push_back(std::move(logged));
  auto_quiescent_ = false;

  JsonValue reply = OkReply();
  reply.Set("time", JsonValue::MakeNumber(engine_.sim->now()));
  reply.Set("virtual_time", JsonValue::MakeNumber(stamp));
  return reply;
}

JsonValue SchedulerService::ApplyDrain() {
  engine_.sim->StepUntil(kInfinity);
  driver_->AdvanceTo(engine_.sim->now());
  LoggedCommand logged;
  logged.kind = CommandKind::kDrain;
  logged.stamp = engine_.sim->now();
  TraceCommand("drain", logged.stamp);
  log_.push_back(std::move(logged));
  auto_quiescent_ = true;

  std::size_t finished = 0;
  for (const auto& job : engine_.sim->jobs()) {
    if (job->state() == JobState::kFinished ||
        job->state() == JobState::kCancelled) {
      ++finished;
    }
  }
  JsonValue reply = OkReply();
  reply.Set("time", JsonValue::MakeNumber(engine_.sim->now()));
  reply.Set("jobs", JsonValue::MakeNumber(
                        static_cast<double>(engine_.sim->jobs().size())));
  reply.Set("terminal", JsonValue::MakeNumber(static_cast<double>(finished)));
  return reply;
}

StatusOr<std::size_t> SchedulerService::DumpFlightRecorder(
    const std::string& path) const {
  const std::vector<RequestSpan> spans = telemetry_.CollectSpans();
  obs::TraceExporter exporter(std::max<std::size_t>(spans.size() + 16, 1024));
  const std::uint64_t epoch = telemetry_.epoch_ns();
  for (const RequestSpan& span : spans) {
    // Stamps are wall time since the telemetry epoch; a clamped start keeps
    // a torn ring slot from producing a negative timestamp.
    const double start_s =
        span.start_ns >= epoch
            ? static_cast<double>(span.start_ns - epoch) * 1e-9
            : 0.0;
    const double dur_s = static_cast<double>(span.dur_ns) * 1e-9;
    char args[128];
    std::snprintf(args, sizeof(args),
                  "\"conn\": %" PRIu64 ", \"seq\": %" PRIu64
                  ", \"queue_depth\": %u, \"shard\": %u",
                  span.conn, span.seq, span.queue_depth,
                  static_cast<unsigned>(span.shard));
    exporter.Complete(obs::TraceTrack::kService, TelemetryCmdName(span.cmd),
                      start_s, start_s + dur_s, args);
  }
  const Status written = exporter.WriteJson(path);
  if (!written.ok()) {
    return written;
  }
  return spans.size();
}

JsonValue SchedulerService::ApplySnapshot(const JsonValue& request) {
  const std::string path = request.GetString("path");
  if (path.empty()) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return ErrorReply("invalid_argument", "snapshot requires a \"path\"");
  }
  ServiceSnapshot snapshot;
  snapshot.config = options_.engine;
  snapshot.commands = log_;
  snapshot.horizon = engine_.sim->now();
  const Status saved = SaveSnapshot(snapshot, path);
  if (!saved.ok()) {
    command_errors_.fetch_add(1, std::memory_order_relaxed);
    return StatusReply(saved);
  }
  TraceCommand("snapshot", snapshot.horizon);
  JsonValue reply = OkReply();
  reply.Set("path", JsonValue::MakeString(path));
  reply.Set("commands", JsonValue::MakeNumber(static_cast<double>(log_.size())));
  reply.Set("time", JsonValue::MakeNumber(snapshot.horizon));
  return reply;
}

}  // namespace lyra::svc
