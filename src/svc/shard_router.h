// The engine router of the online scheduler service (DESIGN.md §10, §11).
//
// `lyra_schedd` runs one or more fully independent SchedulerService engines
// — each with its own Simulator, command queue, time driver, telemetry
// "engine" shard, and RCU StateSnapshot — behind the one epoll front end.
// ShardRouter is the thin routing layer the I/O threads call instead of a
// single service. Its topology is always a list of clusters (ClusterSpec,
// federation.h), each owning a contiguous range of the flat engine pool,
// and the one decision it branches on is the cluster count:
//
//   - One cluster is a shard fleet: `--shards=N` and the plain service are
//     one training cluster of N engines ("0x1@N"). The submit fields
//     "cluster" and "kind" are not interpreted, and there is no federation
//     surface (no loans in barrier replies, no federation_stats, no
//     lyra_fed_* metrics). At one engine every reply byte matches the
//     unsharded service.
//   - Two or more clusters are a federation: submits target a cluster by
//     "cluster" (name or index) or by "kind" (default training), a
//     LoanBroker runs at every advance/drain barrier, `migrate` moves jobs
//     between training clusters, and snapshots nest per-cluster containers.
//
// Routing and ids are the same in both:
//
//   - submit / cancel / query_job go straight from the decoded frame to the
//     owning engine's ExecuteAsync (no hop thread, no extra queue), request
//     and reply untouched. Within the target engine set, ownership is an
//     FNV-1a hash: of the client's "key" string when present (stable client
//     affinity), of the router's monotone submit counter otherwise —
//     targets[h % size], which over a one-cluster fleet is plain h % N.
//     Cancel and query_job hash nothing: the engine is encoded in the job
//     id.
//   - Each engine owns its job ids (JobIdSpace, state_snapshot.h): engine
//     k of E numbers its jobs G = local * E + k and converts them itself,
//     so G mod E is the id's route and the router only reads it. At E == 1
//     the ids are the simulator's own.
//   - Every read goes through ReadFleet (reads.h) over the engine list, the
//     plain service's one path, with this router as the federation layer
//     when there are two or more clusters.
//   - advance / drain / snapshot / shutdown fan out to every engine with a
//     completion barrier; `snapshot` gathers the per-engine LYRASNAP images
//     into one container (snapshot.h) together with the submit counter:
//     LYRASNAP at one engine, LYRASHRD for one cluster of N engines, LYRAFED
//     for a federation. A warm restart (RestoreShardSet) reads the layout
//     from the file's magic, rebuilds every engine byte-identically, and
//     keeps routing future keyless submits the way an uninterrupted run
//     would have.
//
// Dispatch is two-phase so the submit counter can never desynchronize from
// the engine a command actually ran on: RouteEngine is side-effect-free
// (the shed check peeks the counter), BeginEngine consumes it and returns
// the authoritative engine, and only then is the command enqueued. The
// caller must finish initializing its per-request state (the event loop's
// reply slot) between BeginEngine and DispatchEngine, because a saturated
// engine or an invalid target delivers its rejection inline, before
// DispatchEngine returns.
#ifndef SRC_SVC_SHARD_ROUTER_H_
#define SRC_SVC_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/svc/federation.h"
#include "src/svc/service.h"
#include "src/svc/state_snapshot.h"

namespace lyra::svc {

class ShardRouter {
 public:
  // The services must outlive the router. `clusters` own contiguous ranges
  // of `shards` in order; their shard counts must sum to shards.size().
  ShardRouter(std::vector<SchedulerService*> shards,
              std::vector<ClusterSpec> clusters);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  SchedulerService* shard(int i) const { return shards_[static_cast<std::size_t>(i)]; }
  // Shard 0 doubles as the front end's home service: I/O-thread telemetry,
  // protocol-error counts, and identity fields all live there.
  SchedulerService* front() const { return shards_.front(); }

  // --- Topology ---------------------------------------------------------

  int cluster_count() const { return static_cast<int>(clusters_.size()); }
  const ClusterSpec& cluster_spec(int c) const {
    return clusters_[static_cast<std::size_t>(c)];
  }
  int cluster_first_engine(int c) const {
    return static_cast<int>(cluster_engines_[static_cast<std::size_t>(c)].front());
  }
  std::uint32_t ClusterOfEngine(std::uint32_t engine) const {
    return engine_cluster_[engine];
  }
  int FindCluster(const std::string& name) const;  // -1 when unknown

  // --- Engine-command dispatch (two-phase) ------------------------------

  struct Plan {
    bool shed = false;        // target saturated: answer canned, enqueue nothing
    bool fanout = false;      // barrier command (advance/drain/snapshot/shutdown)
    bool reject = false;      // invalid target: answered inline
    bool migrate = false;     // federation migrate: cancel/resubmit chain
    std::uint32_t shard = 0;  // advisory target (authoritative after Begin)
  };

  // Phase 1: pure routing decision, no side effects. For keyless submits the
  // counter is peeked, not consumed — a shed frame must not burn a sequence
  // number or replay-after-restore would route differently than the
  // uninterrupted run. At one engine this is the saturation check alone.
  Plan RouteEngine(TelemetryCmd cmd, const JsonValue& request) const;

  // Phase 2: consumes the submit counter where routing is counter-based.
  // Returns the authoritative shard (0 for fanout commands).
  std::uint32_t BeginEngine(TelemetryCmd cmd, const JsonValue& request,
                            const Plan& plan);

  // Phase 3: enqueue. Single-shard commands go to shard `shard`'s
  // ExecuteAsync; fanout commands are copied to every shard behind a
  // barrier sink that merges the N replies and delivers once to `sink` with
  // (a, b). Rejections and migrations that fail their preconditions invoke
  // the sink before this returns.
  void DispatchEngine(const Plan& plan, std::uint32_t shard, JsonValue request,
                      std::shared_ptr<SchedulerService::CompletionSink> sink,
                      std::uint64_t a, std::uint64_t b);

  // --- Reads ------------------------------------------------------------

  // ReadFleet over the engines, with this router as the federation layer
  // in a federation.
  JsonValue ReadReply(const JsonValue& request) const;

  // The Prometheus exposition the /metrics endpoint and stats_prom serve; a
  // federation appends cluster-labeled lyra_fed_* families.
  std::string RenderPromText() const;

  // The federation layer of the reads, over `snaps` (one per engine):
  // cluster c's engines' snapshots summed, and its own pool in that sum
  // (inference clusters serve from the inference pool, training clusters
  // from the training pool); cluster_stats' "federation" array; and the
  // federation_stats reply.
  StateSnapshot SumCluster(const Snapshots& snaps, int c) const;
  const PoolCounters& OwnPool(const StateSnapshot& sum, int c) const;
  JsonValue ClusterArray(const Snapshots& snaps) const;
  JsonValue FederationStats(const Snapshots& snaps) const;

  // Synchronous convenience for tools and tests (mirrors
  // SchedulerService::Execute, including barriers).
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

  // Routing sequence for keyless submits; persisted in the snapshot
  // container and restored by RestoreShardSet.
  std::uint64_t submit_seq() const {
    return submit_seq_.load(std::memory_order_relaxed);
  }
  void set_submit_seq(std::uint64_t seq) {
    submit_seq_.store(seq, std::memory_order_relaxed);
  }

  // --- Loan broker (federations) ----------------------------------------

  // Thread-safe pass-through to LoanBroker::ConfigurePredictor.
  Status ConfigureLoanPredictor(const std::string& name);
  // Thread-safe copies of the broker state (tools, tests, stats).
  FedLedger LedgerCopy() const;
  std::vector<std::string> RecentEvents() const;
  void RestoreLedger(const FedLedger& ledger);
  // Post-restore loan reconciliation at the engines' current frontier.
  void ReconcileBroker();

  // FNV-1a over `data` (src/common/hash.h): the key routing hash, exposed
  // for tests. Keyless submits route by Fnv1aU64 of the sequence number.
  static std::uint64_t Hash(const void* data, std::size_t size);

  // Per-shard scratch file a fanout snapshot writes before the merge gathers
  // the parts into the container ("<path>.part<k>").
  static std::string PartPath(const std::string& path, int shard);

  // Engine k's own copy of a per-engine file (trace stream, flight-recorder
  // dump): engine 0 keeps `path`, engine k > 0 gets "<path>.shard<k>". An
  // empty path (feature off) stays empty.
  static std::string EnginePath(const std::string& path, int shard);

 private:
  class FanoutSink;
  class MigrationSink;

  bool federated() const { return clusters_.size() > 1; }

  // Merges the N fanout replies into the client's one (called by the last
  // shard to complete, on its engine thread). Barrier merges are strictly
  // sequential across fanout commands — the merging thread only delivers
  // the next barrier after finishing this one — so the federation's broker
  // round folded in here sees barriers in order.
  JsonValue MergeFanout(TelemetryCmd cmd, const JsonValue& request,
                        const std::string& snapshot_path,
                        std::uint64_t snapshot_submit_seq,
                        const std::vector<JsonValue>& replies) const;
  // Gathers the engines' part files into this topology's container at
  // `path`; the parts are removed either way.
  Status SaveContainer(const std::string& path, std::uint64_t submit_seq) const;
  void RemoveParts(const std::string& path) const;

  // Candidate engines for a submit: the one cluster's range, or in a
  // federation the explicit cluster's range or every engine of the
  // requested kind. nullptr when the target doesn't resolve.
  const std::vector<std::uint32_t>* TargetEngines(
      const JsonValue& request) const;
  // A "cluster"/"to" field (name or index) as a cluster index; -1 when
  // unknown.
  int ResolveCluster(const JsonValue& target) const;
  JsonValue RejectReply(const JsonValue& request) const;
  void StartMigration(JsonValue request,
                      std::shared_ptr<SchedulerService::CompletionSink> sink,
                      std::uint64_t a, std::uint64_t b);

  // Per-cluster stats object (jobs by state, pools, loan balance) shared by
  // federation_stats and the cluster_stats federation array.
  JsonValue ClusterInfo(int c, const FedLedger& ledger,
                        const Snapshots& snaps) const;
  std::vector<LoanBroker::ClusterSignal> CollectSignals() const;

  std::vector<SchedulerService*> shards_;
  std::atomic<std::uint64_t> submit_seq_{0};

  std::vector<ClusterSpec> clusters_;
  std::vector<std::uint32_t> engine_cluster_;                // per engine
  std::vector<std::vector<std::uint32_t>> cluster_engines_;  // per cluster
  std::vector<std::uint32_t> kind_engines_[2];               // per ClusterKind
  // Guards the broker: barrier merges run serialized on engine threads, but
  // migration completions land on arbitrary engine threads concurrently.
  mutable std::mutex broker_mu_;
  mutable LoanBroker broker_;
};

// An engine fleet plus its router, built together: the one construction
// path for lyra_schedd, the saturation bench, and tests.
struct ShardSet {
  std::vector<std::unique_ptr<SchedulerService>> services;
  std::unique_ptr<ShardRouter> router;
};

// Builds and Start()s one engine per (cluster, shard) after
// ValidateClusters. Flat engine k of N gets job-id space {N, k}, seed
// base.engine.seed + k (independent fault/workload streams; engine 0 keeps
// the base seed and a one-engine fleet the identity id space, so it is the
// unsharded service exactly), trace_path EnginePath(base.trace_path, k),
// and its own driver from make_driver(k). A federation also gets
// base.loan_predictor.
StatusOr<ShardSet> BuildShardSet(
    const ServiceOptions& base, const std::vector<ClusterSpec>& clusters,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver);

// Restores a fleet from a snapshot file; the envelope magic picks the
// layout. LYRASNAP (one engine) and LYRASHRD (one cluster of N engines)
// restore a shard fleet; LYRAFED restores the federation's cluster layout
// and broker ledger too, reconciling loans after the restore. Job-id
// spaces come from the engine count, as in BuildShardSet; runtime knobs
// come from `base`; each engine's EngineConfig comes from its persisted
// image. NotFound for a missing file, InvalidArgument for an unknown magic.
StatusOr<ShardSet> RestoreShardSet(
    const ServiceOptions& base, const std::string& snapshot_path,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver);

}  // namespace lyra::svc

#endif  // SRC_SVC_SHARD_ROUTER_H_
