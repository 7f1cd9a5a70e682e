// Immutable read snapshots of the scheduler engine (DESIGN.md §8).
//
// The engine thread is the single writer of the Simulator; read-only
// commands (query_job, cluster_stats, metrics, ping) must scale with cores
// instead of serializing through the engine's command queue. After every
// applied command batch (and every auto-advance chunk) the engine publishes a
// StateSnapshot via an atomic shared_ptr swap; reader threads load the
// pointer, answer from the immutable structure, and drop it — RCU-style, no
// locks on the read path, old snapshots retire when the last reader releases
// them.
//
// Publication is O(changed jobs), not O(jobs): job records live in fixed-size
// copy-on-write chunks shared between consecutive snapshots, and the
// simulator reports which jobs mutated since the last publish through a
// Job::DirtySink. Only chunks containing dirtied jobs are rebuilt; per-chunk
// state counts make the aggregate job-state counters an O(dirty chunks)
// incremental update.
#ifndef SRC_SVC_STATE_SNAPSHOT_H_
#define SRC_SVC_STATE_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/json.h"
#include "src/common/types.h"
#include "src/workload/job.h"

namespace lyra {
class Simulator;
}

namespace lyra::svc {

// Jobs per copy-on-write chunk. Power of two; small enough that rebuilding
// the chunks a batch touched stays cheap, large enough that a million-job
// snapshot is ~4k shared_ptrs.
inline constexpr std::size_t kSnapshotChunkSize = 256;

// One job's observable state, flattened out of the live Job object.
struct JobRecord {
  JobSpec spec;
  JobState state = JobState::kPending;
  int current_workers = 0;
  double work_remaining = 0.0;
  int preemptions = 0;
  int scaling_operations = 0;
  TimeSec first_start_time = -1.0;
  TimeSec finish_time = -1.0;
};

// Wire names of the job states, indexed by JobState (and so like
// StateSnapshot::state_counts).
inline constexpr std::array<const char*, 4> kJobStateNames = {
    "pending", "running", "finished", "cancelled"};

struct JobChunk {
  std::vector<JobRecord> records;
  // Records per JobState (index = enum value), so the builder can maintain
  // snapshot-wide counts by subtracting the replaced chunk's contribution.
  std::array<std::uint32_t, 4> state_counts{};
};

struct PoolCounters {
  int servers = 0;
  int total_gpus = 0;
  int used_gpus = 0;
  int free_gpus = 0;
};

struct StateSnapshot {
  // Strictly increasing publish counter; readers use it to assert snapshot
  // monotonicity (a torn or stale-reordered load would break it).
  std::uint64_t version = 0;
  // Engine frontier (virtual time) at publication. Monotone across versions.
  TimeSec time = 0.0;
  std::uint64_t events_processed = 0;
  std::size_t job_count = 0;
  std::size_t command_log_size = 0;
  std::array<std::uint64_t, 4> state_counts{};  // by JobState
  PoolCounters training;
  PoolCounters on_loan;
  PoolCounters inference;
  std::vector<std::shared_ptr<const JobChunk>> chunks;
  // Parsed engine-metrics export, refreshed on a wall-clock throttle rather
  // than every publish (exporting the registry is orders of magnitude more
  // expensive than a batch). metrics_time is the frontier it was taken at;
  // it may lag `time` by up to the throttle interval. Null until the first
  // refresh (Start/Restore force one).
  std::shared_ptr<const JsonValue> engine_metrics;
  TimeSec metrics_time = 0.0;

  // Record for `id`, or nullptr when out of range.
  const JobRecord* FindJob(std::int64_t id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= job_count) {
      return nullptr;
    }
    const auto index = static_cast<std::size_t>(id);
    return &chunks[index / kSnapshotChunkSize]
                ->records[index % kSnapshotChunkSize];
  }
};

// Builds successive snapshots for one engine. Engine-thread only; the
// returned snapshots are immutable and safe to hand to any thread.
class SnapshotBuilder {
 public:
  // The sink to arm on the simulator (Simulator::set_job_dirty_sink).
  Job::DirtySink* sink() { return &sink_; }

  // Rebuilds the chunks containing jobs dirtied since the last publish and
  // returns a new snapshot sharing every untouched chunk. `refresh_metrics`
  // re-exports the metrics registry (callers throttle this). The previous
  // metrics document is carried forward otherwise.
  std::shared_ptr<const StateSnapshot> Publish(const Simulator& sim,
                                               std::size_t command_log_size,
                                               bool refresh_metrics);

 private:
  Job::DirtySink sink_;
  std::vector<std::shared_ptr<const JobChunk>> chunks_;
  std::array<std::uint64_t, 4> state_counts_{};
  std::uint64_t version_ = 0;
  std::shared_ptr<const JsonValue> engine_metrics_;
  TimeSec metrics_time_ = 0.0;
  std::vector<std::size_t> dirty_chunks_;  // scratch, reused across publishes
};

// One snapshot per engine of a fleet (null where none is published yet).
using Snapshots = std::vector<std::shared_ptr<const StateSnapshot>>;

// The published snapshots summed into one: time, metrics_time and version
// take the max; events, job and state counts, command-log sizes and pools
// add. Null entries are skipped, so a zero version means none was
// published. Chunks and the metrics export are left empty.
StateSnapshot SumSnapshots(std::span<const std::shared_ptr<const StateSnapshot>> snaps);

// Read-only reply builders: pure functions of the snapshot, callable from any
// thread. Field names and order match the historical engine-side handlers
// byte-for-byte. SnapshotJobReply looks up `local` and names the job `id`,
// the id the client sent (they differ on a multi-engine fleet).
JsonValue SnapshotJobReply(const StateSnapshot& snap, std::int64_t local,
                           std::int64_t id);
JsonValue SnapshotClusterStatsReply(const StateSnapshot& snap);

}  // namespace lyra::svc

#endif  // SRC_SVC_STATE_SNAPSHOT_H_
