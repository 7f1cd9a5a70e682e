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

// An engine's job ids (DESIGN.md §10). Engine k of a fleet of N numbers the
// job its simulator calls L as G = L * N + k, so G mod N names the owning
// engine, and a lone engine (N = 1, k = 0) keeps the simulator's ids. The
// engine converts at its own boundary (submit and cancel replies, errors,
// the snapshot lookup); its command log stays in simulator ids.
struct JobIdSpace {
  std::int64_t stride = 1;  // N
  std::int64_t offset = 0;  // k

  std::int64_t Global(std::int64_t local) const {
    return local * stride + offset;
  }
  // The simulator id `global` names here; -1, which names no job, for a
  // negative id or another engine's.
  std::int64_t Local(std::int64_t global) const {
    return global >= 0 && global % stride == offset ? global / stride : -1;
  }
  // Which of `engines` owns `global`; engine 0 answers for a negative id.
  static std::uint32_t Owner(std::int64_t global, std::size_t engines) {
    return global < 0 ? 0
                      : static_cast<std::uint32_t>(
                            static_cast<std::uint64_t>(global) % engines);
  }
};

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
  JobIdSpace ids;  // the publishing engine's

  // Record for the client's job id `id`, or nullptr when it names none here.
  const JobRecord* FindJob(std::int64_t id) const {
    const std::int64_t local = ids.Local(id);
    if (local < 0 || static_cast<std::size_t>(local) >= job_count) {
      return nullptr;
    }
    const auto index = static_cast<std::size_t>(local);
    return &chunks[index / kSnapshotChunkSize]
                ->records[index % kSnapshotChunkSize];
  }
};

// Builds successive snapshots for one engine. Engine-thread only; the
// returned snapshots are immutable and safe to hand to any thread.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(JobIdSpace ids = {}) : ids_(ids) {}

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
  JobIdSpace ids_;
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
// byte-for-byte. SnapshotJobReply answers for the client's job id `id`.
JsonValue SnapshotJobReply(const StateSnapshot& snap, std::int64_t id);
JsonValue SnapshotClusterStatsReply(const StateSnapshot& snap);

}  // namespace lyra::svc

#endif  // SRC_SVC_STATE_SNAPSHOT_H_
