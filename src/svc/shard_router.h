// Engine sharding for the online scheduler service (DESIGN.md §10).
//
// `lyra_schedd --shards=N` runs N fully independent SchedulerService engines
// — each with its own Simulator, command queue, time driver, telemetry
// "engine" shard, and RCU StateSnapshot — behind the one epoll front end.
// ShardRouter is the thin routing layer the I/O threads call instead of a
// single service:
//
//   - submit / cancel / query_job go straight from the decoded frame to the
//     owning shard's ExecuteAsync (no hop thread, no extra queue). Ownership
//     is an FNV-1a hash: of the client's "key" string when present (stable
//     client affinity), of the router's monotone submit counter otherwise;
//     cancel and query_job hash nothing — the shard is encoded in the job id.
//   - Job ids returned to clients are global: G = local * N + shard, so
//     shard = G mod N and the id carries its own route. At N == 1 global and
//     local coincide and every reply byte matches the unsharded service.
//   - cluster_stats / metrics / ping / stats_prom merge the per-shard
//     snapshots and telemetry registries at read time, RCU-style, off the
//     engine threads.
//   - advance / drain / snapshot / shutdown fan out to every shard with a
//     completion barrier; `snapshot` additionally gathers the per-shard
//     LYRASNAP images into one LYRASHRD container (snapshot.h) together with
//     the submit counter, so a warm restart rebuilds every shard
//     byte-identically *and* keeps routing future keyless submits the way an
//     uninterrupted run would have.
//
// Dispatch is two-phase so the submit counter can never desynchronize from
// the shard a command actually ran on: RouteEngine is side-effect-free (the
// shed check peeks the counter), BeginEngine consumes it and returns the
// authoritative shard, and only then is the command enqueued. The caller
// must finish initializing its per-request state (the event loop's reply
// slot) between BeginEngine and DispatchEngine, because a saturated shard
// delivers its rejection inline, before DispatchEngine returns.
#ifndef SRC_SVC_SHARD_ROUTER_H_
#define SRC_SVC_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/svc/service.h"

namespace lyra::svc {

class ShardRouter {
 public:
  // The services must outlive the router. At least one shard.
  explicit ShardRouter(std::vector<SchedulerService*> shards);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;
  virtual ~ShardRouter() = default;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  SchedulerService* shard(int i) const { return shards_[static_cast<std::size_t>(i)]; }
  // Shard 0 doubles as the front end's home service: I/O-thread telemetry,
  // protocol-error counts, and identity fields all live there.
  SchedulerService* front() const { return shards_.front(); }

  // --- Job-id arithmetic -----------------------------------------------

  // Global ids interleave the shard index in the low bits: G = L * N + s.
  // N == 1 is the identity, so single-shard deployments keep the engine's
  // raw sequential ids on the wire.
  std::int64_t ToGlobal(std::int64_t local, std::uint32_t shard) const {
    return local * shard_count() + static_cast<std::int64_t>(shard);
  }
  std::int64_t ToLocal(std::int64_t global) const {
    return global / shard_count();
  }
  std::uint32_t ShardOfJob(std::int64_t global) const {
    const std::int64_t n = shard_count();
    return static_cast<std::uint32_t>(((global % n) + n) % n);
  }

  // --- Engine-command dispatch (two-phase) ------------------------------

  struct Plan {
    bool shed = false;         // target saturated: answer canned, enqueue nothing
    bool fanout = false;       // barrier command (advance/drain/snapshot/shutdown)
    bool rewrite_job = false;  // reply "job" needs the local->global rewrite
    bool reject = false;       // invalid target: DispatchEngine answers inline
    std::uint32_t shard = 0;   // advisory target (authoritative after Begin)
  };

  // Phase 1: pure routing decision, no side effects. For keyless submits the
  // counter is peeked, not consumed — a shed frame must not burn a sequence
  // number or replay-after-restore would route differently than the
  // uninterrupted run. Virtual so a FederationRouter (federation.h) can
  // layer cluster-aware routing over the same event loop.
  virtual Plan RouteEngine(TelemetryCmd cmd, const JsonValue& request) const;

  // Phase 2: consumes the submit counter where routing is counter-based and
  // rewrites the request's "job" from global to local in place (cancel).
  // Returns the authoritative shard (0 for fanout commands).
  virtual std::uint32_t BeginEngine(TelemetryCmd cmd, JsonValue& request,
                                    const Plan& plan);

  // Phase 3: enqueue. Single-shard commands go to shard `shard`'s
  // ExecuteAsync; fanout commands are copied to every shard behind a
  // barrier sink that merges the N replies and delivers once to `sink` with
  // (a, b). Inline rejections can invoke the sink before this returns.
  virtual void DispatchEngine(
      const Plan& plan, std::uint32_t shard, JsonValue request,
      std::shared_ptr<SchedulerService::CompletionSink> sink, std::uint64_t a,
      std::uint64_t b);

  // Reply-side id rewrite (local -> global) for replies from `shard`.
  // No-op when the reply has no numeric "job" (error replies) or N == 1.
  virtual void RewriteReplyJob(std::uint32_t shard, JsonValue& reply) const;

  // --- Reads ------------------------------------------------------------

  // Merged read-only answer. N == 1 delegates to the shard byte-for-byte;
  // otherwise query_job routes by id, cluster_stats/metrics/ping merge the
  // per-shard snapshots, stats_prom renders the merged exposition, and
  // trace_dump fans out per-shard trace files.
  virtual JsonValue ReadReply(const JsonValue& request) const;

  // The Prometheus exposition the /metrics endpoint and stats_prom serve.
  // A federation re-renders with cluster= labels and broker gauges.
  virtual std::string RenderPromText() const;

  // Synchronous convenience for tools and tests (mirrors
  // SchedulerService::Execute, including reply-id rewrites and barriers).
  JsonValue Execute(const JsonValue& request);

  // --- Front-end hints and aggregates -----------------------------------

  // True when any shard's queue is at capacity: the event loop gates reads
  // on this, deliberately conservative — with per-frame routing unknown at
  // gate time, one saturated shard stalls intake rather than letting its
  // frames pile up as rejections.
  bool AnySaturated() const;

  // Sum of the per-shard racy queue depths (telemetry annotations).
  std::size_t QueueDepthHint() const;

  // Per-shard stats summed (queue_peak is a max).
  SchedulerService::Stats AggregateStats() const;

  // Routing sequence for keyless submits; persisted in the LYRASHRD
  // container and restored by RestoreShardSet.
  std::uint64_t submit_seq() const {
    return submit_seq_.load(std::memory_order_relaxed);
  }
  void set_submit_seq(std::uint64_t seq) {
    submit_seq_.store(seq, std::memory_order_relaxed);
  }

  // FNV-1a over `data` (src/common/hash.h): the key routing hash, exposed
  // for tests. Keyless submits route by Fnv1aU64 of the sequence number.
  static std::uint64_t Hash(const void* data, std::size_t size);

  // Per-shard scratch file a fanout snapshot writes before the merge gathers
  // the parts into the container ("<path>.part<k>").
  static std::string PartPath(const std::string& path, int shard);

 protected:
  class FanoutSink;
  class WaitSink;

  JsonValue MergedClusterStats(const JsonValue& request) const;
  JsonValue MergedMetrics(const JsonValue& request) const;
  JsonValue MergedPing(const JsonValue& request) const;
  JsonValue MergedStatsProm(const JsonValue& request) const;
  JsonValue MergedTraceDump(const JsonValue& request) const;
  JsonValue QueryJob(const JsonValue& request) const;

  // Merges the N fanout replies into the client's one (called by the last
  // shard to complete, on its engine thread). Barrier merges are strictly
  // sequential across fanout commands — the merging thread only delivers
  // the next barrier after finishing this one — so an override may fold in
  // ordered post-barrier work (the federation's loan broker).
  virtual JsonValue MergeFanout(TelemetryCmd cmd, const JsonValue& request,
                                const std::string& snapshot_path,
                                std::uint64_t snapshot_submit_seq,
                                std::vector<JsonValue>& replies) const;

  // Consumes one submit-routing sequence number (BeginEngine's counter
  // discipline, exposed for subclasses that route within a cluster's range).
  std::uint64_t NextSubmitSeq() {
    return submit_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<SchedulerService*> shards_;
  std::atomic<std::uint64_t> submit_seq_{0};
};

// A shard fleet plus its router, built together: the common construction
// path for lyra_schedd, the saturation bench, and tests.
struct ShardSet {
  std::vector<std::unique_ptr<SchedulerService>> services;
  std::unique_ptr<ShardRouter> router;
};

// Builds and Start()s `shards` engines from `base`. Each shard gets
// base.engine.seed + shard (independent fault/workload streams) and its own
// driver from `make_driver(shard)`. Shard 0 keeps base.trace_path; other
// shards get trace_path + ".shard<k>" when non-empty.
StatusOr<ShardSet> BuildShardSet(
    const ServiceOptions& base, int shards,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver);

// Restores a fleet from a snapshot file — plain LYRASNAP (one shard) or a
// LYRASHRD container (the file decides the shard count). Runtime knobs come
// from `base`; each shard's EngineConfig comes from its persisted image.
StatusOr<ShardSet> RestoreShardSet(
    const ServiceOptions& base, const std::string& snapshot_path,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver);

}  // namespace lyra::svc

#endif  // SRC_SVC_SHARD_ROUTER_H_
