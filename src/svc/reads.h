// The one read path of the online service (DESIGN.md §8, §10).
//
// One engine is a fleet of length one. Every read-only command (query_job,
// cluster_stats, metrics, ping, stats_prom, trace_dump), the error for an
// unknown command and federation_stats are answered by ReadFleet over the
// engine list, from each engine's published snapshot, on the caller's
// thread. SchedulerService::ReadReply passes {this}; ShardRouter::ReadReply
// passes its engines, plus itself when it is a federation, which layers the
// cluster-level extras on top (cluster_stats' "federation" array, the
// lyra_fed_* families, federation_stats).
//
// Output that only a fleet has (the "shards"/"shard_count" fields, ping's
// per-engine array, the lyra_svc_shards gauge and the shard="k" samples) is
// emitted exactly when the list holds more than one engine, so one engine
// answers byte-for-byte as the plain service always has.
#ifndef SRC_SVC_READS_H_
#define SRC_SVC_READS_H_

#include <span>
#include <vector>

#include "src/common/json.h"
#include "src/svc/service.h"
#include "src/svc/state_snapshot.h"

namespace lyra::svc {

class ShardRouter;

// A fleet's engines; engine 0 is the front, which counts the fleet's reads
// and read errors.
using EngineList = std::span<const SchedulerService* const>;

// Each engine's published snapshot, loaded once.
Snapshots LoadSnapshots(EngineList engines);

// Each engine's Stats, read once and summed (queue_peak takes the max); the
// per-engine values land in `each` when it is non-null.
SchedulerService::Stats SumStats(
    EngineList engines, std::vector<SchedulerService::Stats>* each = nullptr);

// Answers a read-only or unknown command over `engines` (non-empty). Any
// stopped or unpublished engine makes every read `unavailable`. query_job
// asks the engine that owns the id (JobIdSpace::Owner), whose snapshot
// converts it. `federation` is null outside a federation.
JsonValue ReadFleet(EngineList engines, const JsonValue& request,
                    const ShardRouter* federation);

}  // namespace lyra::svc

#endif  // SRC_SVC_READS_H_
