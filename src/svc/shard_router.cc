#include "src/svc/shard_router.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/common/envelope.h"
#include "src/common/hash.h"
#include "src/svc/prom.h"
#include "src/svc/replies.h"
#include "src/svc/snapshot.h"

namespace lyra::svc {
namespace {

// Reply fields where "merged" means the furthest shard, not the sum: virtual
// times, high-watermarks, and version counters.
bool MergeByMax(const std::string& key) {
  return key == "time" || key == "metrics_time" || key == "virtual_time" ||
         key == "queue_peak" || key == "snapshot_version";
}

// Structural merge of per-shard reply documents: numbers sum (or max, see
// above), objects recurse, everything else keeps the first shard's value.
// Used for cluster_stats and the engine metrics export, whose members are
// all per-shard tallies.
void MergeNumeric(JsonValue& into, const JsonValue& from) {
  if (!into.is_object() || !from.is_object()) {
    return;
  }
  for (const auto& [key, value] : from.AsObject()) {
    JsonValue* existing = into.FindMutable(key);
    if (existing == nullptr) {
      into.Set(key, value);
    } else if (existing->is_number() && value.is_number()) {
      const double merged = MergeByMax(key)
                                ? std::max(existing->AsDouble(), value.AsDouble())
                                : existing->AsDouble() + value.AsDouble();
      *existing = JsonValue::MakeNumber(merged);
    } else if (existing->is_object() && value.is_object()) {
      MergeNumeric(*existing, value);
    }
  }
}

std::string ShardSuffixPath(const std::string& path, int shard) {
  return path + ".shard" + std::to_string(shard);
}

}  // namespace

// Barrier aggregator for fanout commands: each shard's reply lands in its
// own slot (no lock — distinct indices), and the last shard to complete
// merges and delivers to the client's sink. The acq_rel countdown makes
// every slot write visible to the merging thread.
class ShardRouter::FanoutSink : public SchedulerService::CompletionSink {
 public:
  FanoutSink(const ShardRouter* router, TelemetryCmd cmd, JsonValue request,
             std::string snapshot_path, std::uint64_t snapshot_submit_seq,
             std::shared_ptr<SchedulerService::CompletionSink> parent,
             std::uint64_t a, std::uint64_t b, int shards)
      : router_(router),
        cmd_(cmd),
        request_(std::move(request)),
        snapshot_path_(std::move(snapshot_path)),
        snapshot_submit_seq_(snapshot_submit_seq),
        parent_(std::move(parent)),
        a_(a),
        b_(b),
        replies_(static_cast<std::size_t>(shards)),
        remaining_(shards) {}

  void OnReply(std::uint64_t shard, std::uint64_t /*unused*/,
               JsonValue reply) override {
    replies_[static_cast<std::size_t>(shard)] = std::move(reply);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      JsonValue merged = router_->MergeFanout(cmd_, request_, snapshot_path_,
                                              snapshot_submit_seq_, replies_);
      parent_->OnReply(a_, b_, std::move(merged));
    }
  }

 private:
  const ShardRouter* router_;
  const TelemetryCmd cmd_;
  const JsonValue request_;
  const std::string snapshot_path_;
  const std::uint64_t snapshot_submit_seq_;
  const std::shared_ptr<SchedulerService::CompletionSink> parent_;
  const std::uint64_t a_;
  const std::uint64_t b_;
  std::vector<JsonValue> replies_;
  std::atomic<int> remaining_;
};

// Synchronous bridge for ShardRouter::Execute.
class ShardRouter::WaitSink : public SchedulerService::CompletionSink {
 public:
  void OnReply(std::uint64_t /*a*/, std::uint64_t /*b*/,
               JsonValue reply) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      reply_ = std::move(reply);
      done_ = true;
    }
    cv_.notify_all();
  }

  JsonValue Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_; });
    return std::move(reply_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  JsonValue reply_;
};

ShardRouter::ShardRouter(std::vector<SchedulerService*> shards)
    : shards_(std::move(shards)) {
  LYRA_CHECK(!shards_.empty());
  for (SchedulerService* shard : shards_) {
    LYRA_CHECK(shard != nullptr);
  }
}

std::string ShardRouter::PartPath(const std::string& path, int shard) {
  return path + ".part" + std::to_string(shard);
}

std::uint64_t ShardRouter::Hash(const void* data, std::size_t size) {
  return Fnv1a(std::string_view(static_cast<const char*>(data), size));
}

ShardRouter::Plan ShardRouter::RouteEngine(TelemetryCmd cmd,
                                           const JsonValue& request) const {
  Plan plan;
  if (shard_count() == 1) {
    plan.shed = front()->EngineSaturated();
    return plan;
  }
  switch (cmd) {
    case TelemetryCmd::kSubmit: {
      plan.rewrite_job = true;
      const JsonValue* key = request.Find("key");
      if (key != nullptr && key->is_string()) {
        const std::string& k = key->AsString();
        plan.shard = static_cast<std::uint32_t>(
            Hash(k.data(), k.size()) %
            static_cast<std::uint64_t>(shard_count()));
      } else {
        // Peek only: a shed submit must not consume a routing sequence
        // number, or a restore would route later submits differently than
        // the uninterrupted run (the counter is snapshotted).
        plan.shard = static_cast<std::uint32_t>(
            Fnv1aU64(submit_seq_.load(std::memory_order_relaxed)) %
            static_cast<std::uint64_t>(shard_count()));
      }
      plan.shed = shards_[plan.shard]->EngineSaturated();
      return plan;
    }
    case TelemetryCmd::kCancel: {
      const JsonValue* job = request.Find("job");
      if (job != nullptr && job->is_number()) {
        plan.shard = ShardOfJob(job->AsInt());
        plan.rewrite_job = true;
      }
      // Missing/invalid "job": shard 0 produces the usual error reply.
      plan.shed = shards_[plan.shard]->EngineSaturated();
      return plan;
    }
    default:
      plan.fanout = true;
      plan.shed = AnySaturated();
      return plan;
  }
}

std::uint32_t ShardRouter::BeginEngine(TelemetryCmd cmd, JsonValue& request,
                                       const Plan& plan) {
  if (shard_count() == 1 || plan.fanout) {
    return plan.shard;
  }
  if (cmd == TelemetryCmd::kSubmit) {
    const JsonValue* key = request.Find("key");
    if (key != nullptr && key->is_string()) {
      return plan.shard;
    }
    // The fetch_add is the authoritative routing decision: two I/O threads
    // that both planned from the same peeked value still dispatch to
    // distinct, deterministic shards.
    const std::uint64_t seq = submit_seq_.fetch_add(1, std::memory_order_relaxed);
    return static_cast<std::uint32_t>(
        Fnv1aU64(seq) % static_cast<std::uint64_t>(shard_count()));
  }
  if (cmd == TelemetryCmd::kCancel && plan.rewrite_job) {
    const JsonValue* job = request.Find("job");
    if (job != nullptr && job->is_number()) {
      request.Replace("job", JsonValue::MakeNumber(
                                 static_cast<double>(ToLocal(job->AsInt()))));
    }
  }
  return plan.shard;
}

void ShardRouter::DispatchEngine(
    const Plan& plan, std::uint32_t shard, JsonValue request,
    std::shared_ptr<SchedulerService::CompletionSink> sink, std::uint64_t a,
    std::uint64_t b) {
  if (!plan.fanout || shard_count() == 1) {
    shards_[shard]->ExecuteAsync(std::move(request), std::move(sink), a, b,
                                 SchedulerService::CmdClass::kEngine);
    return;
  }
  const TelemetryCmd cmd = TelemetryCmdFromName(request.GetString("cmd"));
  std::string snapshot_path;
  std::uint64_t snapshot_seq = 0;
  if (cmd == TelemetryCmd::kSnapshot) {
    snapshot_path = request.GetString("path");
    // Sampled at dispatch: every shard's queue is FIFO, so the commands a
    // shard applies before its part of this snapshot are exactly the ones
    // dispatched before this point — the counter value here matches the
    // command set the container captures.
    snapshot_seq = submit_seq_.load(std::memory_order_relaxed);
  }
  auto fan = std::make_shared<FanoutSink>(this, cmd, request, snapshot_path,
                                          snapshot_seq, std::move(sink), a, b,
                                          shard_count());
  for (int k = 0; k < shard_count(); ++k) {
    JsonValue copy = request;
    if (cmd == TelemetryCmd::kSnapshot && !snapshot_path.empty()) {
      copy.Replace("path", JsonValue::MakeString(PartPath(snapshot_path, k)));
    }
    shards_[static_cast<std::size_t>(k)]->ExecuteAsync(
        std::move(copy), fan, static_cast<std::uint64_t>(k), 0,
        SchedulerService::CmdClass::kEngine);
  }
}

void ShardRouter::RewriteReplyJob(std::uint32_t shard, JsonValue& reply) const {
  if (shard_count() == 1) {
    return;
  }
  const JsonValue* job = reply.Find("job");
  if (job != nullptr && job->is_number()) {
    reply.Replace("job", JsonValue::MakeNumber(static_cast<double>(
                             ToGlobal(job->AsInt(), shard))));
  }
  // A not_found from cancel/query_job names the shard-local id; clients only
  // ever saw the global one.
  if (!reply.GetBool("ok", false) && reply.GetString("code") == "not_found") {
    static constexpr char kPrefix[] = "no such job: ";
    const std::string message = reply.GetString("error");
    if (message.rfind(kPrefix, 0) == 0) {
      char* end = nullptr;
      const long long local =
          std::strtoll(message.c_str() + sizeof(kPrefix) - 1, &end, 10);
      if (end != nullptr && *end == '\0') {
        reply.Replace("error",
                      JsonValue::MakeString(
                          kPrefix + std::to_string(ToGlobal(local, shard))));
      }
    }
  }
}

JsonValue ShardRouter::MergeFanout(TelemetryCmd cmd, const JsonValue& request,
                                   const std::string& snapshot_path,
                                   std::uint64_t snapshot_submit_seq,
                                   std::vector<JsonValue>& replies) const {
  // Any failed shard fails the whole command; the merged reply is that
  // shard's error annotated with its index. Shards that did apply keep the
  // command in their logs (per-shard replay-exactness is untouched); the
  // client sees the failure and can retry the idempotent fanout commands.
  for (std::size_t k = 0; k < replies.size(); ++k) {
    if (!replies[k].GetBool("ok", false)) {
      JsonValue failed = replies[k];
      failed.Set("shard", JsonValue::MakeNumber(static_cast<double>(k)));
      if (cmd == TelemetryCmd::kSnapshot && !snapshot_path.empty()) {
        for (std::size_t p = 0; p < replies.size(); ++p) {
          std::remove(PartPath(snapshot_path, static_cast<int>(p)).c_str());
        }
      }
      EchoSeq(request, failed);
      return failed;
    }
  }

  JsonValue merged = OkReply();
  switch (cmd) {
    case TelemetryCmd::kAdvance: {
      double time = 0.0, virtual_time = 0.0;
      for (const JsonValue& reply : replies) {
        time = std::max(time, reply.GetDouble("time", 0.0));
        virtual_time = std::max(virtual_time, reply.GetDouble("virtual_time", 0.0));
      }
      merged.Set("time", JsonValue::MakeNumber(time));
      merged.Set("virtual_time", JsonValue::MakeNumber(virtual_time));
      break;
    }
    case TelemetryCmd::kDrain: {
      double time = 0.0, jobs = 0.0, terminal = 0.0;
      for (const JsonValue& reply : replies) {
        time = std::max(time, reply.GetDouble("time", 0.0));
        jobs += reply.GetDouble("jobs", 0.0);
        terminal += reply.GetDouble("terminal", 0.0);
      }
      merged.Set("time", JsonValue::MakeNumber(time));
      merged.Set("jobs", JsonValue::MakeNumber(jobs));
      merged.Set("terminal", JsonValue::MakeNumber(terminal));
      break;
    }
    case TelemetryCmd::kShutdown:
      merged.Set("stopping", JsonValue::MakeBool(true));
      break;
    case TelemetryCmd::kSnapshot: {
      // Gather the per-shard LYRASNAP part files into the LYRASHRD
      // container, then drop the parts. Runs on the last engine thread to
      // finish its part — snapshot writes are engine-thread file I/O anyway.
      MultiSnapshot multi;
      multi.submit_seq = snapshot_submit_seq;
      double time = 0.0, commands = 0.0;
      for (std::size_t k = 0; k < replies.size(); ++k) {
        StatusOr<std::string> image =
            ReadFile(PartPath(snapshot_path, static_cast<int>(k)));
        if (!image.ok()) {
          JsonValue failed = StatusReply(image.status());
          EchoSeq(request, failed);
          return failed;
        }
        multi.shard_images.push_back(std::move(image).value());
        time = std::max(time, replies[k].GetDouble("time", 0.0));
        commands += replies[k].GetDouble("commands", 0.0);
      }
      const Status saved = SaveMultiSnapshot(multi, snapshot_path);
      for (std::size_t k = 0; k < replies.size(); ++k) {
        std::remove(PartPath(snapshot_path, static_cast<int>(k)).c_str());
      }
      if (!saved.ok()) {
        JsonValue failed = StatusReply(saved);
        EchoSeq(request, failed);
        return failed;
      }
      merged.Set("path", JsonValue::MakeString(snapshot_path));
      merged.Set("commands", JsonValue::MakeNumber(commands));
      merged.Set("time", JsonValue::MakeNumber(time));
      merged.Set("shards",
                 JsonValue::MakeNumber(static_cast<double>(replies.size())));
      break;
    }
    default:
      break;
  }
  EchoSeq(request, merged);
  return merged;
}

JsonValue ShardRouter::ReadReply(const JsonValue& request) const {
  if (shard_count() == 1) {
    return front()->ReadReply(request);
  }
  const std::string cmd = request.GetString("cmd");
  if (cmd == "query_job") {
    return QueryJob(request);
  }
  if (cmd == "cluster_stats") {
    return MergedClusterStats(request);
  }
  if (cmd == "metrics") {
    return MergedMetrics(request);
  }
  if (cmd == "ping") {
    return MergedPing(request);
  }
  if (cmd == "stats_prom") {
    return MergedStatsProm(request);
  }
  if (cmd == "trace_dump") {
    return MergedTraceDump(request);
  }
  // Unknown commands: the front shard produces the standard error reply
  // (and counts it).
  return front()->ReadReply(request);
}

JsonValue ShardRouter::QueryJob(const JsonValue& request) const {
  const JsonValue* job = request.Find("job");
  if (job == nullptr || !job->is_number()) {
    return front()->ReadReply(request);  // standard invalid_argument reply
  }
  const std::int64_t global = job->AsInt();
  const std::uint32_t shard = ShardOfJob(global);
  JsonValue local_request = request;  // keeps "seq" for the shard's EchoSeq
  local_request.Replace("job", JsonValue::MakeNumber(
                                   static_cast<double>(ToLocal(global))));
  JsonValue reply = shards_[shard]->ReadReply(local_request);
  RewriteReplyJob(shard, reply);  // also rewrites a not_found's message
  return reply;
}

JsonValue ShardRouter::MergedClusterStats(const JsonValue& request) const {
  JsonValue merged;
  for (int k = 0; k < shard_count(); ++k) {
    const std::shared_ptr<const StateSnapshot> snap = shards_[k]->snapshot();
    if (snap == nullptr || shards_[k]->stopped()) {
      JsonValue reply = ErrorReply("unavailable", "service is stopped");
      EchoSeq(request, reply);
      return reply;
    }
    JsonValue piece = SnapshotClusterStatsReply(*snap);
    if (k == 0) {
      merged = std::move(piece);
    } else {
      MergeNumeric(merged, piece);
    }
  }
  front()->CountRead();
  EchoSeq(request, merged);
  return merged;
}

JsonValue ShardRouter::MergedMetrics(const JsonValue& request) const {
  JsonValue engine;
  double time = 0.0, metrics_time = 0.0, command_log = 0.0;
  for (int k = 0; k < shard_count(); ++k) {
    const std::shared_ptr<const StateSnapshot> snap = shards_[k]->snapshot();
    if (snap == nullptr || shards_[k]->stopped()) {
      JsonValue reply = ErrorReply("unavailable", "service is stopped");
      EchoSeq(request, reply);
      return reply;
    }
    time = std::max(time, snap->time);
    metrics_time = std::max(metrics_time, snap->metrics_time);
    command_log += static_cast<double>(snap->command_log_size);
    const JsonValue piece = snap->engine_metrics != nullptr
                                ? *snap->engine_metrics
                                : JsonValue::MakeNull();
    if (k == 0) {
      engine = piece;
    } else {
      MergeNumeric(engine, piece);
    }
  }
  const SchedulerService::Stats stats = AggregateStats();
  JsonValue reply = OkReply();
  reply.Set("time", JsonValue::MakeNumber(time));
  reply.Set("engine", std::move(engine));
  JsonValue service = JsonValue::MakeObject();
  service.Set("commands_applied", JsonValue::MakeNumber(
                                      static_cast<double>(stats.commands_applied)));
  service.Set("jobs_submitted",
              JsonValue::MakeNumber(static_cast<double>(stats.jobs_submitted)));
  service.Set("jobs_cancelled",
              JsonValue::MakeNumber(static_cast<double>(stats.jobs_cancelled)));
  service.Set("rejected_overload",
              JsonValue::MakeNumber(static_cast<double>(stats.rejected_overload)));
  service.Set("command_errors",
              JsonValue::MakeNumber(static_cast<double>(stats.command_errors)));
  service.Set("reads_served",
              JsonValue::MakeNumber(static_cast<double>(stats.reads_served)));
  service.Set("snapshots_published",
              JsonValue::MakeNumber(
                  static_cast<double>(stats.snapshots_published)));
  service.Set("queue_depth",
              JsonValue::MakeNumber(static_cast<double>(stats.queue_depth)));
  service.Set("queue_peak",
              JsonValue::MakeNumber(static_cast<double>(stats.queue_peak)));
  service.Set("command_log", JsonValue::MakeNumber(command_log));
  service.Set("driver", JsonValue::MakeString(front()->driver_name()));
  service.Set("shards",
              JsonValue::MakeNumber(static_cast<double>(shard_count())));
  reply.Set("service", std::move(service));
  reply.Set("metrics_time", JsonValue::MakeNumber(metrics_time));
  front()->CountRead();
  EchoSeq(request, reply);
  return reply;
}

JsonValue ShardRouter::MergedPing(const JsonValue& request) const {
  JsonValue shards = JsonValue::MakeArray();
  double time = 0.0, virtual_time = 0.0, snapshot_seq = 0.0;
  double commands_applied = 0.0;
  for (int k = 0; k < shard_count(); ++k) {
    const std::shared_ptr<const StateSnapshot> snap = shards_[k]->snapshot();
    if (snap == nullptr || shards_[k]->stopped()) {
      JsonValue reply = ErrorReply("unavailable", "service is stopped");
      EchoSeq(request, reply);
      return reply;
    }
    const SchedulerService::Stats stats = shards_[k]->stats();
    const double shard_virtual = shards_[k]->driver()->Now();
    time = std::max(time, snap->time);
    virtual_time = std::max(virtual_time, shard_virtual);
    snapshot_seq = std::max(snapshot_seq, static_cast<double>(snap->version));
    commands_applied += static_cast<double>(stats.commands_applied);
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("shard", JsonValue::MakeNumber(static_cast<double>(k)));
    entry.Set("commands_applied",
              JsonValue::MakeNumber(static_cast<double>(stats.commands_applied)));
    entry.Set("snapshot_seq",
              JsonValue::MakeNumber(static_cast<double>(snap->version)));
    entry.Set("virtual_time", JsonValue::MakeNumber(shard_virtual));
    shards.Append(std::move(entry));
  }
  JsonValue reply = OkReply();
  reply.Set("time", JsonValue::MakeNumber(time));
  reply.Set("virtual_time", JsonValue::MakeNumber(virtual_time));
  reply.Set("driver", JsonValue::MakeString(front()->driver_name()));
  reply.Set("uptime_s", JsonValue::MakeNumber(front()->UptimeSeconds()));
  reply.Set("commands_applied", JsonValue::MakeNumber(commands_applied));
  reply.Set("snapshot_seq", JsonValue::MakeNumber(snapshot_seq));
  reply.Set("scheduler",
            JsonValue::MakeString(front()->options().engine.scheduler));
  reply.Set("reclaim", JsonValue::MakeString(front()->options().engine.reclaim));
  reply.Set("shard_count",
            JsonValue::MakeNumber(static_cast<double>(shard_count())));
  reply.Set("shards", std::move(shards));
  front()->CountRead();
  EchoSeq(request, reply);
  return reply;
}

JsonValue ShardRouter::MergedStatsProm(const JsonValue& request) const {
  if (front()->snapshot() == nullptr || front()->stopped()) {
    JsonValue reply = ErrorReply("unavailable", "service is stopped");
    EchoSeq(request, reply);
    return reply;
  }
  JsonValue reply = OkReply();
  reply.Set("text", JsonValue::MakeString(RenderPromText()));
  front()->CountRead();
  EchoSeq(request, reply);
  return reply;
}

std::string ShardRouter::RenderPromText() const { return RenderPrometheus(*this); }

JsonValue ShardRouter::MergedTraceDump(const JsonValue& request) const {
  const std::string path = request.GetString("path");
  if (path.empty()) {
    return front()->ReadReply(request);  // standard invalid_argument reply
  }
  double spans = 0.0;
  for (int k = 0; k < shard_count(); ++k) {
    const std::string shard_path = k == 0 ? path : ShardSuffixPath(path, k);
    const StatusOr<std::size_t> dumped =
        shards_[k]->DumpFlightRecorder(shard_path);
    if (!dumped.ok()) {
      front()->CountProtocolError();
      JsonValue reply = StatusReply(dumped.status());
      EchoSeq(request, reply);
      return reply;
    }
    spans += static_cast<double>(dumped.value());
  }
  JsonValue reply = OkReply();
  reply.Set("path", JsonValue::MakeString(path));
  reply.Set("spans", JsonValue::MakeNumber(spans));
  reply.Set("shards", JsonValue::MakeNumber(static_cast<double>(shard_count())));
  front()->CountRead();
  EchoSeq(request, reply);
  return reply;
}

JsonValue ShardRouter::Execute(const JsonValue& request) {
  const TelemetryCmd tcmd = TelemetryCmdFromName(request.GetString("cmd"));
  if (SchedulerService::Classify(tcmd) != SchedulerService::CmdClass::kEngine) {
    return ReadReply(request);
  }
  Plan plan = RouteEngine(tcmd, request);
  // Synchronous callers take the authoritative per-shard rejection rather
  // than the advisory shed (there is no canned-reply fast path to protect).
  plan.shed = false;
  JsonValue mutable_request = request;
  const std::uint32_t shard = BeginEngine(tcmd, mutable_request, plan);
  auto waiter = std::make_shared<WaitSink>();
  DispatchEngine(plan, shard, std::move(mutable_request), waiter, 0, 0);
  JsonValue reply = waiter->Wait();
  if (plan.rewrite_job) {
    RewriteReplyJob(shard, reply);
  }
  return reply;
}

bool ShardRouter::AnySaturated() const {
  for (const SchedulerService* shard : shards_) {
    if (shard->EngineSaturated()) {
      return true;
    }
  }
  return false;
}

std::size_t ShardRouter::QueueDepthHint() const {
  std::size_t depth = 0;
  for (const SchedulerService* shard : shards_) {
    depth += shard->QueueDepthHint();
  }
  return depth;
}

SchedulerService::Stats ShardRouter::AggregateStats() const {
  SchedulerService::Stats total;
  for (const SchedulerService* shard : shards_) {
    const SchedulerService::Stats stats = shard->stats();
    total.commands_applied += stats.commands_applied;
    total.jobs_submitted += stats.jobs_submitted;
    total.jobs_cancelled += stats.jobs_cancelled;
    total.rejected_overload += stats.rejected_overload;
    total.command_errors += stats.command_errors;
    total.reads_served += stats.reads_served;
    total.snapshots_published += stats.snapshots_published;
    total.queue_depth += stats.queue_depth;
    total.queue_peak = std::max(total.queue_peak, stats.queue_peak);
  }
  return total;
}

StatusOr<ShardSet> BuildShardSet(
    const ServiceOptions& base, int shards,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver) {
  if (shards < 1 || shards > kMaxEngines) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxEngines) + "], got " +
                                   std::to_string(shards));
  }
  ShardSet set;
  for (int k = 0; k < shards; ++k) {
    ServiceOptions options = base;
    // Independent deterministic streams per shard; shard 0 keeps the base
    // seed so a one-shard fleet is the unsharded service exactly.
    options.engine.seed = base.engine.seed + static_cast<std::uint64_t>(k);
    if (!base.trace_path.empty() && k > 0) {
      options.trace_path = ShardSuffixPath(base.trace_path, k);
    }
    auto service = std::make_unique<SchedulerService>(std::move(options),
                                                      make_driver(k));
    const Status started = service->Start();
    if (!started.ok()) {
      return started;  // ~ShardSet stops the shards already started
    }
    set.services.push_back(std::move(service));
  }
  std::vector<SchedulerService*> pointers;
  pointers.reserve(set.services.size());
  for (const auto& service : set.services) {
    pointers.push_back(service.get());
  }
  set.router = std::make_unique<ShardRouter>(std::move(pointers));
  return set;
}

StatusOr<ShardSet> RestoreShardSet(
    const ServiceOptions& base, const std::string& snapshot_path,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver) {
  StatusOr<MultiSnapshot> loaded = LoadMultiSnapshot(snapshot_path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  const MultiSnapshot& multi = loaded.value();
  ShardSet set;
  for (std::size_t k = 0; k < multi.shard_images.size(); ++k) {
    ServiceOptions options = base;
    if (!base.trace_path.empty() && k > 0) {
      options.trace_path =
          ShardSuffixPath(base.trace_path, static_cast<int>(k));
    }
    auto service = std::make_unique<SchedulerService>(std::move(options),
                                                      make_driver(static_cast<int>(k)));
    const std::string origin =
        multi.shard_images.size() == 1
            ? snapshot_path
            : snapshot_path + " (shard " + std::to_string(k) + ")";
    const Status restored = service->RestoreBytes(multi.shard_images[k], origin);
    if (!restored.ok()) {
      return restored;
    }
    set.services.push_back(std::move(service));
  }
  std::vector<SchedulerService*> pointers;
  pointers.reserve(set.services.size());
  for (const auto& service : set.services) {
    pointers.push_back(service.get());
  }
  set.router = std::make_unique<ShardRouter>(std::move(pointers));
  set.router->set_submit_seq(multi.submit_seq);
  return set;
}

}  // namespace lyra::svc
