#include "src/svc/shard_router.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/common/envelope.h"
#include "src/common/hash.h"
#include "src/svc/prom.h"
#include "src/svc/reads.h"
#include "src/svc/replies.h"
#include "src/svc/snapshot.h"

namespace lyra::svc {
namespace {

// How a "cluster"/"to" field renders in error messages.
std::string DescribeTarget(const JsonValue& target) {
  if (target.is_string()) {
    return target.AsString();
  }
  const std::optional<std::int64_t> index = target.AsInt();
  return index ? std::to_string(*index) : "?";
}

// How the engines' replies to a barrier command merge into the client's
// reply, field by field in reply order. The words are the metrics merge's
// (FoldMetric, reads.cc): a sum adds, a max takes the largest, and a const
// is the same at every engine, so engine 0's value stands.
enum class Fold { kMax, kSum, kConst };
struct FieldRule {
  const char* field = nullptr;  // null ends a command's rules
  Fold fold = Fold::kConst;
};
struct BarrierMerge {
  TelemetryCmd cmd;
  FieldRule rules[3];
};
constexpr BarrierMerge kBarrierMerges[] = {
    {TelemetryCmd::kAdvance, {{"time", Fold::kMax}, {"virtual_time", Fold::kMax}}},
    {TelemetryCmd::kDrain,
     {{"time", Fold::kMax}, {"jobs", Fold::kSum}, {"terminal", Fold::kSum}}},
    {TelemetryCmd::kShutdown, {{"stopping", Fold::kConst}}},
    // "path" is each engine's part file until the container step names the
    // container.
    {TelemetryCmd::kSnapshot,
     {{"path", Fold::kConst}, {"commands", Fold::kSum}, {"time", Fold::kMax}}},
};

void FoldField(const FieldRule& rule, const std::vector<JsonValue>& replies,
               JsonValue& merged) {
  if (rule.fold == Fold::kConst) {
    merged.Set(rule.field, *replies.front().Find(rule.field));
    return;
  }
  double value = 0.0;
  for (const JsonValue& reply : replies) {
    const double v = reply.GetDouble(rule.field, 0.0);
    value = rule.fold == Fold::kSum ? value + v : std::max(value, v);
  }
  merged.Set(rule.field, JsonValue::MakeNumber(value));
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

// Two-hop migration chain: cancel on the source engine, then resubmit on the
// destination engine with the remaining work plus the checkpoint cost. Each
// hop's reply arrives on that engine's thread; `a` carries the phase.
class ShardRouter::MigrationSink
    : public SchedulerService::CompletionSink,
      public std::enable_shared_from_this<MigrationSink> {
 public:
  MigrationSink(ShardRouter* router, JsonValue original,
                std::shared_ptr<SchedulerService::CompletionSink> parent,
                std::uint64_t a, std::uint64_t b, std::int64_t from_job,
                std::uint32_t dest_engine, std::uint32_t dest_cluster,
                std::uint32_t source_cluster, JsonValue submit,
                double checkpoint_cost)
      : router_(router),
        original_(std::move(original)),
        parent_(std::move(parent)),
        a_(a),
        b_(b),
        from_job_(from_job),
        dest_engine_(dest_engine),
        dest_cluster_(dest_cluster),
        source_cluster_(source_cluster),
        submit_(std::move(submit)),
        checkpoint_cost_(checkpoint_cost) {}

  void OnReply(std::uint64_t phase, std::uint64_t /*unused*/,
               JsonValue reply) override {
    if (!reply.GetBool("ok", false)) {
      EchoSeq(original_, reply);
      parent_->OnReply(a_, b_, std::move(reply));
      return;
    }
    if (phase == 0) {
      // The job left the source at the cancel's engine time; it arrives at
      // the destination no earlier (dest StampFor still maxes with its own
      // frontier).
      submit_.Replace("at",
                      JsonValue::MakeNumber(reply.GetDouble("time", 0.0)));
      router_->shard(static_cast<int>(dest_engine_))
          ->ExecuteAsync(std::move(submit_), shared_from_this(), 1, 0,
                         SchedulerService::CmdClass::kEngine);
      return;
    }
    const std::int64_t to_job = *reply.GetInt("job");
    const double time = reply.GetDouble("time", 0.0);
    {
      std::lock_guard<std::mutex> lock(router_->broker_mu_);
      router_->broker_.RecordMigration(time, from_job_, to_job,
                                       source_cluster_, dest_cluster_,
                                       checkpoint_cost_);
    }
    JsonValue done = OkReply();
    done.Set("job", JsonValue::MakeNumber(static_cast<double>(to_job)));
    done.Set("from_job", JsonValue::MakeNumber(static_cast<double>(from_job_)));
    done.Set("cluster", JsonValue::MakeString(
                            router_->clusters_[dest_cluster_].name));
    done.Set("checkpoint_cost", JsonValue::MakeNumber(checkpoint_cost_));
    done.Set("time", JsonValue::MakeNumber(time));
    EchoSeq(original_, done);
    parent_->OnReply(a_, b_, std::move(done));
  }

 private:
  ShardRouter* const router_;
  const JsonValue original_;
  const std::shared_ptr<SchedulerService::CompletionSink> parent_;
  const std::uint64_t a_;
  const std::uint64_t b_;
  const std::int64_t from_job_;
  const std::uint32_t dest_engine_;
  const std::uint32_t dest_cluster_;
  const std::uint32_t source_cluster_;
  JsonValue submit_;
  const double checkpoint_cost_;
};

ShardRouter::ShardRouter(std::vector<SchedulerService*> shards,
                         std::vector<ClusterSpec> clusters)
    : shards_(std::move(shards)), clusters_(std::move(clusters)) {
  LYRA_CHECK(!shards_.empty());
  for (SchedulerService* shard : shards_) {
    LYRA_CHECK(shard != nullptr);
  }
  LYRA_CHECK(!clusters_.empty());
  std::uint32_t next = 0;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    LYRA_CHECK(clusters_[c].shards >= 1);
    std::vector<std::uint32_t> range;
    for (int s = 0; s < clusters_[c].shards; ++s, ++next) {
      range.push_back(next);
      engine_cluster_.push_back(static_cast<std::uint32_t>(c));
      kind_engines_[static_cast<int>(clusters_[c].kind)].push_back(next);
    }
    cluster_engines_.push_back(std::move(range));
  }
  LYRA_CHECK(next == shards_.size());
}

int ShardRouter::FindCluster(const std::string& name) const {
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (clusters_[c].name == name) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

int ShardRouter::ResolveCluster(const JsonValue& target) const {
  if (target.is_string()) {
    return FindCluster(target.AsString());
  }
  const std::optional<std::int64_t> index = target.AsInt();
  return index && *index >= 0 && *index < cluster_count()
             ? static_cast<int>(*index)
             : -1;
}

std::string ShardRouter::PartPath(const std::string& path, int shard) {
  return path + ".part" + std::to_string(shard);
}

std::string ShardRouter::EnginePath(const std::string& path, int shard) {
  return shard == 0 || path.empty() ? path
                                    : path + ".shard" + std::to_string(shard);
}

std::uint64_t ShardRouter::Hash(const void* data, std::size_t size) {
  return Fnv1a(std::string_view(static_cast<const char*>(data), size));
}

const std::vector<std::uint32_t>* ShardRouter::TargetEngines(
    const JsonValue& request) const {
  if (!federated()) {
    return &cluster_engines_[0];
  }
  const JsonValue* cluster = request.Find("cluster");
  if (cluster != nullptr) {
    const int c = ResolveCluster(*cluster);
    return c < 0 ? nullptr : &cluster_engines_[static_cast<std::size_t>(c)];
  }
  const JsonValue* kind_field = request.Find("kind");
  ClusterKind kind = ClusterKind::kTraining;
  if (kind_field != nullptr &&
      (!kind_field->is_string() ||
       !ParseClusterKind(kind_field->AsString(), &kind))) {
    return nullptr;
  }
  const std::vector<std::uint32_t>& engines =
      kind_engines_[static_cast<int>(kind)];
  return engines.empty() ? nullptr : &engines;
}

ShardRouter::Plan ShardRouter::RouteEngine(TelemetryCmd cmd,
                                           const JsonValue& request) const {
  Plan plan;
  if (cmd == TelemetryCmd::kMigrate) {
    const std::optional<std::int64_t> job = request.GetInt("job");
    if (!federated() || !job) {
      plan.reject = true;
      return plan;
    }
    plan.migrate = true;
    plan.shard = JobIdSpace::Owner(*job, shards_.size());
    plan.shed = shards_[plan.shard]->EngineSaturated();
    return plan;
  }
  if (shard_count() == 1) {
    plan.shed = front()->EngineSaturated();
    return plan;
  }
  switch (cmd) {
    case TelemetryCmd::kSubmit: {
      const std::vector<std::uint32_t>* targets = TargetEngines(request);
      if (targets == nullptr) {
        plan.reject = true;
        return plan;
      }
      const JsonValue* key = request.Find("key");
      std::uint64_t hash = 0;
      if (key != nullptr && key->is_string()) {
        const std::string& k = key->AsString();
        hash = Hash(k.data(), k.size());
      } else {
        // Peek only: a shed submit must not consume a routing sequence
        // number, or a restore would route later submits differently than
        // the uninterrupted run (the counter is snapshotted).
        hash = Fnv1aU64(submit_seq_.load(std::memory_order_relaxed));
      }
      plan.shard = (*targets)[hash % targets->size()];
      plan.shed = shards_[plan.shard]->EngineSaturated();
      return plan;
    }
    case TelemetryCmd::kCancel:
      // A missing or malformed "job" goes to engine 0 for its usual error.
      plan.shard = JobIdSpace::Owner(request.GetInt("job").value_or(0),
                                     shards_.size());
      plan.shed = shards_[plan.shard]->EngineSaturated();
      return plan;
    default:
      plan.fanout = true;
      plan.shed = AnySaturated();
      return plan;
  }
}

std::uint32_t ShardRouter::BeginEngine(TelemetryCmd cmd,
                                       const JsonValue& request,
                                       const Plan& plan) {
  if (shard_count() == 1 || cmd != TelemetryCmd::kSubmit || plan.reject) {
    return plan.shard;
  }
  const JsonValue* key = request.Find("key");
  if (key != nullptr && key->is_string()) {
    return plan.shard;
  }
  // The fetch_add is the authoritative routing decision: two I/O threads
  // that both planned from the same peeked value still dispatch to
  // distinct, deterministic engines. RouteEngine validated the target.
  const std::vector<std::uint32_t>* targets = TargetEngines(request);
  const std::uint64_t seq = submit_seq_.fetch_add(1, std::memory_order_relaxed);
  return (*targets)[Fnv1aU64(seq) % targets->size()];
}

JsonValue ShardRouter::RejectReply(const JsonValue& request) const {
  JsonValue reply;
  const JsonValue* cluster = request.Find("cluster");
  const JsonValue* kind = request.Find("kind");
  ClusterKind parsed;
  if (request.GetString("cmd") == "migrate") {
    reply = federated()
                ? ErrorReply("invalid_argument",
                             "migrate requires a numeric \"job\"")
                : ErrorReply("failed_precondition",
                             "migration requires at least two clusters");
  } else if (cluster != nullptr) {
    reply = ErrorReply("invalid_argument",
                       "no such cluster: " + DescribeTarget(*cluster));
  } else if (kind != nullptr &&
             (!kind->is_string() || !ParseClusterKind(kind->AsString(), &parsed))) {
    reply = ErrorReply("invalid_argument",
                       "unknown cluster kind: " + DescribeTarget(*kind));
  } else {
    reply = ErrorReply("failed_precondition",
                       "no cluster of the requested kind");
  }
  EchoSeq(request, reply);
  return reply;
}

void ShardRouter::DispatchEngine(
    const Plan& plan, std::uint32_t shard, JsonValue request,
    std::shared_ptr<SchedulerService::CompletionSink> sink, std::uint64_t a,
    std::uint64_t b) {
  if (plan.reject) {
    front()->CountProtocolError();
    sink->OnReply(a, b, RejectReply(request));
    return;
  }
  if (plan.migrate) {
    StartMigration(std::move(request), std::move(sink), a, b);
    return;
  }
  if (!plan.fanout) {
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

void ShardRouter::StartMigration(
    JsonValue request, std::shared_ptr<SchedulerService::CompletionSink> sink,
    std::uint64_t a, std::uint64_t b) {
  const auto fail = [&](JsonValue reply) {
    front()->CountProtocolError();
    EchoSeq(request, reply);
    sink->OnReply(a, b, std::move(reply));
  };

  // A federation with one training cluster has nowhere to move a job to.
  if (std::count_if(clusters_.begin(), clusters_.end(),
                    [](const ClusterSpec& c) {
                      return c.kind == ClusterKind::kTraining;
                    }) < 2) {
    return fail(ErrorReply("failed_precondition",
                           "migration requires at least two training clusters"));
  }
  const std::int64_t job = *request.GetInt("job");  // RouteEngine-checked
  const std::uint32_t source_engine = JobIdSpace::Owner(job, shards_.size());
  const std::uint32_t source_cluster = ClusterOfEngine(source_engine);

  const JsonValue* to = request.Find("to");
  if (to == nullptr) {
    return fail(
        ErrorReply("invalid_argument", "migrate requires a \"to\" cluster"));
  }
  const int dest = ResolveCluster(*to);
  if (dest < 0) {
    return fail(ErrorReply("invalid_argument",
                           "no such cluster: " + DescribeTarget(*to)));
  }
  if (clusters_[static_cast<std::size_t>(dest)].kind !=
      ClusterKind::kTraining) {
    return fail(ErrorReply(
        "failed_precondition",
        "destination cluster \"" +
            clusters_[static_cast<std::size_t>(dest)].name +
            "\" is not a training cluster"));
  }

  const std::shared_ptr<const StateSnapshot> snap =
      shard(static_cast<int>(source_engine))->snapshot();
  if (snap == nullptr ||
      shard(static_cast<int>(source_engine))->stopped()) {
    return fail(ErrorReply("unavailable", "service is stopped"));
  }
  // RCU read: the record can be stale, but the cancel below is the
  // authoritative gate — a job that finished in between fails there and the
  // engine error is forwarded verbatim.
  const JobRecord* record = snap->FindJob(job);
  if (record == nullptr) {
    return fail(NoSuchJob(job));
  }
  if (clusters_[source_cluster].kind != ClusterKind::kTraining) {
    return fail(ErrorReply("failed_precondition",
                           "job " + std::to_string(job) +
                               " is not on a training cluster"));
  }
  if (static_cast<std::uint32_t>(dest) == source_cluster) {
    return fail(ErrorReply(
        "failed_precondition",
        "job " + std::to_string(job) + " is already on cluster \"" +
            clusters_[source_cluster].name + "\""));
  }
  if (record->state == JobState::kFinished ||
      record->state == JobState::kCancelled) {
    return fail(ErrorReply(
        "failed_precondition",
        "job " + std::to_string(job) + " is already " +
            kJobStateNames[static_cast<std::size_t>(record->state)]));
  }

  const double cost = record->spec.checkpointing ? kMigrationCheckpointCost
                                                 : kMigrationColdCost;
  // The destination engine comes from a dedicated hash, never the submit
  // counter: migrations must not shift how later keyless submits route (the
  // counter is snapshotted and replay-compared).
  const std::string route_key = "migrate:" + std::to_string(job);
  const std::vector<std::uint32_t>& dests =
      cluster_engines_[static_cast<std::size_t>(dest)];
  const std::uint32_t dest_engine =
      dests[Hash(route_key.data(), route_key.size()) % dests.size()];

  JsonValue submit = JsonValue::MakeObject();
  submit.Set("cmd", JsonValue::MakeString("submit"));
  submit.Set("at", JsonValue::MakeNumber(0.0));  // patched to the cancel time
  submit.Set("gpus_per_worker", JsonValue::MakeNumber(
                                    static_cast<double>(record->spec.gpus_per_worker)));
  submit.Set("min_workers", JsonValue::MakeNumber(
                                static_cast<double>(record->spec.min_workers)));
  submit.Set("max_workers", JsonValue::MakeNumber(
                                static_cast<double>(record->spec.max_workers)));
  submit.Set("requested_workers",
             JsonValue::MakeNumber(
                 static_cast<double>(record->spec.requested_workers)));
  submit.Set("fungible", JsonValue::MakeBool(record->spec.fungible));
  submit.Set("heterogeneous", JsonValue::MakeBool(record->spec.heterogeneous));
  submit.Set("checkpointing", JsonValue::MakeBool(record->spec.checkpointing));
  submit.Set("model",
             JsonValue::MakeString(ModelFamilyName(record->spec.model)));
  submit.Set("total_work",
             JsonValue::MakeNumber(record->work_remaining + cost));

  JsonValue cancel = JsonValue::MakeObject();
  cancel.Set("cmd", JsonValue::MakeString("cancel"));
  cancel.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  const JsonValue* at = request.Find("at");
  if (at != nullptr && at->is_number()) {
    cancel.Set("at", *at);
  }

  auto chain = std::make_shared<MigrationSink>(
      this, std::move(request), std::move(sink), a, b, job, dest_engine,
      static_cast<std::uint32_t>(dest), source_cluster, std::move(submit),
      cost);
  shard(static_cast<int>(source_engine))
      ->ExecuteAsync(std::move(cancel), std::move(chain), 0, 0,
                     SchedulerService::CmdClass::kEngine);
}

JsonValue ShardRouter::MergeFanout(TelemetryCmd cmd, const JsonValue& request,
                                   const std::string& snapshot_path,
                                   std::uint64_t snapshot_submit_seq,
                                   const std::vector<JsonValue>& replies) const {
  // Any failed shard fails the whole command; the merged reply is that
  // shard's error annotated with its index. Shards that did apply keep the
  // command in their logs (per-shard replay-exactness is untouched); the
  // client sees the failure and can retry the idempotent fanout commands.
  for (std::size_t k = 0; k < replies.size(); ++k) {
    if (!replies[k].GetBool("ok", false)) {
      JsonValue failed = replies[k];
      failed.Set("shard", JsonValue::MakeNumber(static_cast<double>(k)));
      if (cmd == TelemetryCmd::kSnapshot && !snapshot_path.empty()) {
        RemoveParts(snapshot_path);
      }
      EchoSeq(request, failed);
      return failed;
    }
  }

  JsonValue merged = OkReply();
  for (const BarrierMerge& merge : kBarrierMerges) {
    for (const FieldRule& rule : merge.rules) {
      if (merge.cmd == cmd && rule.field != nullptr) {
        FoldField(rule, replies, merged);
      }
    }
  }
  if (cmd == TelemetryCmd::kSnapshot) {
    // The container step, the one barrier that is more than a fold. Runs on
    // the last engine thread to finish its part — snapshot writes are
    // engine-thread file I/O anyway.
    const Status saved = SaveContainer(snapshot_path, snapshot_submit_seq);
    if (!saved.ok()) {
      JsonValue failed = StatusReply(saved);
      EchoSeq(request, failed);
      return failed;
    }
    merged.Replace("path", JsonValue::MakeString(snapshot_path));
    merged.Set("shards",
               JsonValue::MakeNumber(static_cast<double>(replies.size())));
    if (federated()) {
      merged.Set("clusters",
                 JsonValue::MakeNumber(static_cast<double>(cluster_count())));
    }
  }
  EchoSeq(request, merged);
  if (federated() &&
      (cmd == TelemetryCmd::kAdvance || cmd == TelemetryCmd::kDrain)) {
    // Broker round at the barrier: every engine has stepped to the merged
    // time and published its snapshot (publish-before-completion), so the
    // signals are post-barrier. Barrier merges are serialized by the fanout
    // countdown, making the grant/reclaim trace deterministic; the lock only
    // fences concurrent migration completions.
    std::lock_guard<std::mutex> lock(broker_mu_);
    broker_.Evaluate(merged.GetDouble("time", 0.0), CollectSignals());
    merged.Set("loans",
               JsonValue::MakeNumber(
                   static_cast<double>(broker_.ledger().loans.size())));
  }
  return merged;
}

void ShardRouter::RemoveParts(const std::string& path) const {
  for (int k = 0; k < shard_count(); ++k) {
    std::remove(PartPath(path, k).c_str());
  }
}

Status ShardRouter::SaveContainer(const std::string& path,
                                  std::uint64_t submit_seq) const {
  std::vector<std::string> images;
  for (int k = 0; k < shard_count(); ++k) {
    StatusOr<std::string> image = ReadFile(PartPath(path, k));
    if (!image.ok()) {
      RemoveParts(path);
      return image.status();
    }
    images.push_back(std::move(image).value());
  }
  RemoveParts(path);
  if (!federated()) {
    MultiSnapshot multi;
    multi.submit_seq = submit_seq;
    multi.shard_images = std::move(images);
    return SaveMultiSnapshot(multi, path);
  }
  FedSnapshot fed;
  fed.submit_seq = submit_seq;
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
    // Per-cluster images carry no routing counter of their own; the
    // federation counter above covers every cluster.
    MultiSnapshot multi;
    for (const std::uint32_t e :
         cluster_engines_[static_cast<std::size_t>(c)]) {
      multi.shard_images.push_back(std::move(images[e]));
    }
    FedClusterImage cluster;
    cluster.name = spec.name;
    cluster.kind = static_cast<std::uint8_t>(spec.kind);
    cluster.loan_priority = spec.loan_priority;
    cluster.shards = static_cast<std::uint32_t>(spec.shards);
    cluster.image = EncodeMultiSnapshot(multi);
    fed.clusters.push_back(std::move(cluster));
  }
  {
    std::lock_guard<std::mutex> lock(broker_mu_);
    fed.ledger = broker_.ledger();
  }
  return SaveFedSnapshot(fed, path);
}

JsonValue ShardRouter::ReadReply(const JsonValue& request) const {
  return ReadFleet(shards_, request, federated() ? this : nullptr);
}

std::string ShardRouter::RenderPromText() const {
  return RenderPrometheus(shards_, federated() ? this : nullptr);
}

StateSnapshot ShardRouter::SumCluster(const Snapshots& snaps, int c) const {
  return SumSnapshots(std::span(snaps).subspan(
      static_cast<std::size_t>(cluster_first_engine(c)),
      static_cast<std::size_t>(clusters_[static_cast<std::size_t>(c)].shards)));
}

const PoolCounters& ShardRouter::OwnPool(const StateSnapshot& sum,
                                         int c) const {
  return clusters_[static_cast<std::size_t>(c)].kind == ClusterKind::kInference
             ? sum.inference
             : sum.training;
}

std::vector<LoanBroker::ClusterSignal> ShardRouter::CollectSignals() const {
  const Snapshots snaps = LoadSnapshots(shards_);
  std::vector<LoanBroker::ClusterSignal> signals;
  signals.reserve(clusters_.size());
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
    const StateSnapshot sum = SumCluster(snaps, c);
    LoanBroker::ClusterSignal signal;
    signal.kind = spec.kind;
    signal.loan_priority = spec.loan_priority;
    signal.total_gpus = OwnPool(sum, c).total_gpus;
    signal.free_gpus = OwnPool(sum, c).free_gpus;
    if (spec.kind == ClusterKind::kTraining) {
      signal.pending_jobs = static_cast<std::int64_t>(sum.state_counts[0]);
    }
    signals.push_back(signal);
  }
  return signals;
}

JsonValue ShardRouter::ClusterInfo(int c, const FedLedger& ledger,
                                   const Snapshots& snaps) const {
  const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
  const StateSnapshot sum = SumCluster(snaps, c);
  const PoolCounters& pool = OwnPool(sum, c);
  JsonValue info = JsonValue::MakeObject();
  info.Set("cluster", JsonValue::MakeNumber(static_cast<double>(c)));
  info.Set("name", JsonValue::MakeString(spec.name));
  info.Set("kind", JsonValue::MakeString(ClusterKindName(spec.kind)));
  info.Set("loan_priority",
           JsonValue::MakeNumber(static_cast<double>(spec.loan_priority)));
  info.Set("shards", JsonValue::MakeNumber(static_cast<double>(spec.shards)));
  info.Set("first_engine", JsonValue::MakeNumber(static_cast<double>(
                               cluster_first_engine(c))));
  JsonValue jobs = JsonValue::MakeObject();
  for (std::size_t s = 0; s < sum.state_counts.size(); ++s) {
    jobs.Set(kJobStateNames[s],
             JsonValue::MakeNumber(static_cast<double>(sum.state_counts[s])));
  }
  info.Set("jobs", std::move(jobs));
  JsonValue gpus = JsonValue::MakeObject();
  gpus.Set("total", JsonValue::MakeNumber(static_cast<double>(pool.total_gpus)));
  gpus.Set("used", JsonValue::MakeNumber(static_cast<double>(pool.used_gpus)));
  gpus.Set("free", JsonValue::MakeNumber(static_cast<double>(pool.free_gpus)));
  info.Set("gpus", std::move(gpus));
  const auto cluster = static_cast<std::uint32_t>(c);
  info.Set("loaned", JsonValue::MakeNumber(
                         static_cast<double>(LoanedBy(ledger, cluster))));
  info.Set("borrowed", JsonValue::MakeNumber(
                           static_cast<double>(BorrowedBy(ledger, cluster))));
  return info;
}

JsonValue ShardRouter::ClusterArray(const Snapshots& snaps) const {
  const FedLedger ledger = LedgerCopy();
  JsonValue clusters = JsonValue::MakeArray();
  for (int c = 0; c < cluster_count(); ++c) {
    clusters.Append(ClusterInfo(c, ledger, snaps));
  }
  return clusters;
}

JsonValue ShardRouter::FederationStats(const Snapshots& snaps) const {
  FedLedger ledger;
  std::vector<std::string> events;
  {
    std::lock_guard<std::mutex> lock(broker_mu_);
    ledger = broker_.ledger();
    events = broker_.events();
  }

  JsonValue reply = OkReply();
  reply.Set("time", JsonValue::MakeNumber(SumSnapshots(snaps).time));
  reply.Set("submit_seq",
            JsonValue::MakeNumber(static_cast<double>(submit_seq())));
  reply.Set("shards",
            JsonValue::MakeNumber(static_cast<double>(shard_count())));
  JsonValue clusters = JsonValue::MakeArray();
  for (int c = 0; c < cluster_count(); ++c) {
    clusters.Append(ClusterInfo(c, ledger, snaps));
  }
  reply.Set("clusters", std::move(clusters));

  JsonValue broker = JsonValue::MakeObject();
  broker.Set("active",
             JsonValue::MakeNumber(static_cast<double>(ledger.loans.size())));
  broker.Set("next_loan_id",
             JsonValue::MakeNumber(static_cast<double>(ledger.next_loan_id)));
  broker.Set("granted",
             JsonValue::MakeNumber(static_cast<double>(ledger.total_granted)));
  broker.Set("reclaimed", JsonValue::MakeNumber(
                              static_cast<double>(ledger.total_reclaimed)));
  broker.Set("returned", JsonValue::MakeNumber(
                             static_cast<double>(ledger.total_returned)));
  // Hex string: the hash is a full u64 and would lose bits as a double.
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(ledger.ledger_hash));
  broker.Set("ledger_hash", JsonValue::MakeString(hex));
  JsonValue loans = JsonValue::MakeArray();
  for (const FedLoan& loan : ledger.loans) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("id", JsonValue::MakeNumber(static_cast<double>(loan.id)));
    entry.Set("lender",
              JsonValue::MakeNumber(static_cast<double>(loan.lender)));
    entry.Set("borrower",
              JsonValue::MakeNumber(static_cast<double>(loan.borrower)));
    entry.Set("gpus", JsonValue::MakeNumber(static_cast<double>(loan.gpus)));
    entry.Set("granted_at", JsonValue::MakeNumber(loan.granted_at));
    loans.Append(std::move(entry));
  }
  broker.Set("loans", std::move(loans));
  JsonValue recent = JsonValue::MakeArray();
  for (const std::string& event : events) {
    recent.Append(JsonValue::MakeString(event));
  }
  broker.Set("events", std::move(recent));
  reply.Set("broker", std::move(broker));
  return reply;
}

Status ShardRouter::ConfigureLoanPredictor(const std::string& name) {
  std::lock_guard<std::mutex> lock(broker_mu_);
  return broker_.ConfigurePredictor(name);
}

FedLedger ShardRouter::LedgerCopy() const {
  std::lock_guard<std::mutex> lock(broker_mu_);
  return broker_.ledger();
}

std::vector<std::string> ShardRouter::RecentEvents() const {
  std::lock_guard<std::mutex> lock(broker_mu_);
  return broker_.events();
}

void ShardRouter::RestoreLedger(const FedLedger& ledger) {
  std::lock_guard<std::mutex> lock(broker_mu_);
  broker_.RestoreLedger(ledger);
}

void ShardRouter::ReconcileBroker() {
  std::lock_guard<std::mutex> lock(broker_mu_);
  broker_.Reconcile(SumSnapshots(LoadSnapshots(shards_)).time,
                    clusters_.size());
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
  auto waiter = std::make_shared<SchedulerService::WaitSink>();
  DispatchEngine(plan, BeginEngine(tcmd, request, plan), request, waiter, 0, 0);
  return waiter->Wait();
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
  return SumStats(shards_);
}

namespace {

// Wires the router over `set.services`; a federation also gets the
// configured loan predictor.
Status AttachRouter(ShardSet& set, std::vector<ClusterSpec> clusters,
                    const ServiceOptions& base) {
  std::vector<SchedulerService*> pointers;
  pointers.reserve(set.services.size());
  for (const auto& service : set.services) {
    pointers.push_back(service.get());
  }
  set.router =
      std::make_unique<ShardRouter>(std::move(pointers), std::move(clusters));
  if (set.router->cluster_count() > 1 && !base.loan_predictor.empty()) {
    return set.router->ConfigureLoanPredictor(base.loan_predictor);
  }
  return Status::Ok();
}

ServiceOptions EngineOptions(const ServiceOptions& base, int engine) {
  ServiceOptions options = base;
  options.trace_path = ShardRouter::EnginePath(base.trace_path, engine);
  return options;
}

// Flat engine k of `engines` numbers its jobs k, k + engines, ...
JobIdSpace EngineIds(std::size_t engines, int engine) {
  return {static_cast<std::int64_t>(engines), engine};
}

}  // namespace

StatusOr<ShardSet> BuildShardSet(
    const ServiceOptions& base, const std::vector<ClusterSpec>& clusters,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver) {
  const Status valid = ValidateClusters(clusters);
  if (!valid.ok()) {
    return valid;
  }
  int engines = 0;
  for (const ClusterSpec& cluster : clusters) {
    engines += cluster.shards;
  }
  ShardSet set;
  for (int k = 0; k < engines; ++k) {
    ServiceOptions options = EngineOptions(base, k);
    // Independent deterministic streams per shard; shard 0 keeps the base
    // seed so a one-shard fleet is the unsharded service exactly.
    options.engine.seed = base.engine.seed + static_cast<std::uint64_t>(k);
    auto service = std::make_unique<SchedulerService>(
        std::move(options), make_driver(k),
        EngineIds(static_cast<std::size_t>(engines), k));
    const Status started = service->Start();
    if (!started.ok()) {
      return started;  // ~ShardSet stops the shards already started
    }
    set.services.push_back(std::move(service));
  }
  const Status attached = AttachRouter(set, clusters, base);
  if (!attached.ok()) {
    return attached;
  }
  return set;
}

StatusOr<ShardSet> RestoreShardSet(
    const ServiceOptions& base, const std::string& snapshot_path,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver) {
  StatusOr<std::string> bytes = ReadFile(snapshot_path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  // The envelope magic picks the layout. LYRAFED_ nests one LYRASNAP or
  // LYRASHRD image per cluster plus the layout and broker ledger; anything
  // else must be a one-cluster fleet's LYRASNAP or LYRASHRD file (the
  // decoder rejects an unknown magic).
  FedSnapshot fed;
  std::vector<ClusterSpec> clusters;
  std::vector<std::string> images;
  if (bytes.value().compare(0, 8, "LYRAFED_") == 0) {
    StatusOr<FedSnapshot> decoded =
        DecodeFedSnapshot(bytes.value(), snapshot_path);
    if (!decoded.ok()) {
      return decoded.status();
    }
    fed = std::move(decoded).value();
    for (const FedClusterImage& cluster : fed.clusters) {
      if (cluster.kind > 1) {
        return Status::DataLoss("bad cluster kind in " + snapshot_path);
      }
      StatusOr<MultiSnapshot> multi = DecodeMultiSnapshot(
          cluster.image, snapshot_path + " (cluster " + cluster.name + ")");
      if (!multi.ok()) {
        return multi.status();
      }
      if (multi.value().shard_images.size() != cluster.shards) {
        return Status::DataLoss(
            "cluster " + cluster.name + " has " +
            std::to_string(multi.value().shard_images.size()) +
            " images for " + std::to_string(cluster.shards) + " shards in " +
            snapshot_path);
      }
      for (std::string& image : multi.value().shard_images) {
        images.push_back(std::move(image));
      }
      ClusterSpec spec;
      spec.name = cluster.name;
      spec.kind = static_cast<ClusterKind>(cluster.kind);
      spec.shards = static_cast<int>(cluster.shards);
      spec.loan_priority = static_cast<int>(cluster.loan_priority);
      clusters.push_back(std::move(spec));
    }
  } else {
    StatusOr<MultiSnapshot> multi =
        DecodeMultiSnapshot(bytes.value(), snapshot_path);
    if (!multi.ok()) {
      return multi.status();
    }
    fed.submit_seq = multi.value().submit_seq;
    images = std::move(multi.value().shard_images);
    ClusterSpec fleet;
    fleet.name = "train0";
    fleet.shards = static_cast<int>(images.size());
    clusters.push_back(std::move(fleet));
  }

  ShardSet set;
  for (std::size_t k = 0; k < images.size(); ++k) {
    const int engine = static_cast<int>(k);
    auto service = std::make_unique<SchedulerService>(
        EngineOptions(base, engine), make_driver(engine),
        EngineIds(images.size(), engine));
    const std::string origin =
        images.size() == 1
            ? snapshot_path
            : snapshot_path + " (shard " + std::to_string(k) + ")";
    const Status restored = service->RestoreBytes(images[k], origin);
    if (!restored.ok()) {
      return restored;
    }
    set.services.push_back(std::move(service));
  }
  const Status attached = AttachRouter(set, std::move(clusters), base);
  if (!attached.ok()) {
    return attached;
  }
  set.router->set_submit_seq(fed.submit_seq);
  if (set.router->cluster_count() > 1) {
    set.router->RestoreLedger(fed.ledger);
    // A crash between a snapshot and a cluster-set change can persist loans
    // against clusters that no longer exist; drop them before serving.
    set.router->ReconcileBroker();
  }
  return set;
}

}  // namespace lyra::svc
