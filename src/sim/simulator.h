// Discrete-event GPU-cluster simulator (§7.1).
//
// Replays a job trace against a training cluster plus an optional inference
// cluster, driving a pluggable job scheduler (every scheduler_interval), the
// resource orchestrator with a pluggable reclaiming policy (every
// orchestrator_interval, §3), and all job events: arrival, completion,
// scaling, and preemption. Job progress is piecewise linear; completion
// events carry per-job generation counters so allocation changes invalidate
// stale events in O(1). A fixed preemption overhead — the 63 s measured on
// the testbed (§7.5) — is charged to checkpointing jobs; jobs without
// checkpoints lose all progress (§4).
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <chrono>
#include <limits>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/common/stats.h"
#include "src/obs/obs.h"
#include "src/lyra/orchestrator.h"
#include "src/profile/job_profiler.h"
#include "src/lyra/reclaim.h"
#include "src/sched/scheduler.h"
#include "src/sim/decision_log.h"
#include "src/sim/faults.h"
#include "src/sim/inference_cluster.h"
#include "src/workload/trace.h"

namespace lyra {

struct SimulatorOptions {
  int training_servers = 443;  // 3,544 V100 GPUs
  int gpus_per_server = 8;
  TimeSec scheduler_interval = 60.0;
  TimeSec orchestrator_interval = 5 * kMinute;
  // Checkpoint save/terminate/relaunch/load cost charged on preemption.
  TimeSec preemption_overhead = 63.0;
  // Interval between periodic checkpoints of checkpointing jobs, in seconds
  // of base-demand progress (CheckFreq-style). A preempted job resumes from
  // its last checkpoint; 0 means a checkpoint is taken at preemption time.
  TimeSec checkpoint_interval = 0.0;
  bool enable_loaning = true;
  // Minimum reclaim batch: deficits smaller than this ride on the inference
  // headroom until a whole chunk is due (bulk reclaim instructions).
  // <= 0 scales automatically with the inference cluster (1/32 of it).
  int reclaim_chunk = 0;
  ThroughputOptions throughput;
  // Table 9 sensitivity: fraction of jobs whose running-time estimate is
  // wrong, each with a uniform relative error up to the max below.
  double misprediction_fraction = 0.0;
  double misprediction_max_error = 0.25;
  // Estimate running times with the learning profiler (§3) instead of the
  // oracle: jobs are estimated at submission from previously completed jobs.
  bool use_profiler = false;
  std::uint64_t seed = 5;
  // Record 5-minute usage samples for the figure benches.
  bool record_series = false;
  // Record every scheduling decision (starts, finishes, scales, preemptions,
  // loans) for the §7.2-style calibration comparison.
  bool record_decisions = false;
  // When non-empty, stream job/loan/reclaim/decision events and scheduler
  // phase spans into a ring buffer and write them here at the end of Run()
  // as Chrome trace-event JSON (opens in ui.perfetto.dev). Purely
  // observational: results are bit-identical with tracing on or off.
  std::string trace_path;
  // Ring capacity for the trace stream; oldest events are dropped (and
  // counted) beyond this.
  std::size_t trace_capacity = obs::TraceExporter::kDefaultCapacity;
  // Hard stop; 0 = trace duration + 7 days.
  TimeSec max_time = 0.0;
  // Deterministic fault injection (DESIGN.md §7). Disabled by default; when
  // disabled the simulator performs zero extra RNG draws and its output is
  // bit-identical to a run without the fault subsystem (enforced by the
  // golden-trace test).
  FaultOptions faults;
};

struct SeriesPoint {
  TimeSec time = 0.0;
  double overall_usage = 0.0;
  double training_usage = 0.0;
  double onloan_usage = 0.0;  // -1 when nothing is on loan
  int loaned_servers = 0;
  int pending_jobs = 0;
};

struct SimulationResult {
  std::size_t total_jobs = 0;
  std::size_t finished_jobs = 0;

  Summary queuing;
  Summary jct;
  // Jobs that ever ran on a loaned server (Table 7).
  Summary queuing_on_loan;
  Summary jct_on_loan;

  std::vector<double> queuing_samples;
  std::vector<double> jct_samples;
  std::vector<double> queuing_on_loan_samples;
  std::vector<double> jct_on_loan_samples;
  // Per-job flag: queued at first try (first allocation took more than one
  // scheduling epoch). Indexed by job id; used for the Fig 2 series.
  std::vector<bool> queued_flags;
  std::vector<TimeSec> submit_times;

  double training_usage = 0.0;  // time-weighted, training pool only
  double overall_usage = 0.0;   // both clusters (0 when no inference cluster)
  double onloan_usage = 0.0;    // usage of loaned servers while loaned (Fig 9)

  int preemptions = 0;
  double preemption_ratio = 0.0;  // preemptions / job submissions
  // Collateral damage: GPUs vacated in excess of the reclaim demand, as a
  // fraction of the demanded GPUs (§7.3).
  double collateral_damage = 0.0;
  int scaling_operations = 0;

  // Simulator performance: discrete events drained by Run() and the
  // wall-clock it took. events_per_sec is their ratio (0 when wall-clock is
  // too small to measure). Excluded from determinism comparisons.
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;

  // Per-phase wall-clock profile of Run() (event drain, scheduler tick,
  // placement, orchestrator tick, reclaim policy, finalize).
  // Self times are disjoint, so they sum to ~wall_seconds. Wall-clock, so —
  // like the fields above — excluded from determinism comparisons.
  std::vector<obs::PhaseStat> phases;
  // Trace-ring overflow count (0 unless tracing was on and the ring filled).
  std::uint64_t trace_events_dropped = 0;

  OrchestratorStats orchestrator;
  // Fault-injection totals and a rolling hash of the fault-event log (0 when
  // faults are disabled). The hash participates in determinism comparisons:
  // equal seeds must produce equal fault sequences.
  FaultStats faults;
  std::uint64_t fault_log_hash = 0;
  std::vector<SeriesPoint> series;  // 5-minute cadence when record_series
  // Mean absolute relative error of the profiler's estimates (0 when the
  // profiler is off).
  double profiler_error = 0.0;
};

class Simulator {
 public:
  // `scheduler` and `reclaim_policy` must outlive the simulator. The
  // inference cluster may be null (no loaning possible, overall usage
  // reported as training usage).
  Simulator(SimulatorOptions options, const Trace& trace, JobScheduler* scheduler,
            ReclaimPolicy* reclaim_policy,
            std::unique_ptr<InferenceCluster> inference);

  SimulationResult Run();

  // --- Incremental driving (online service mode) ---------------------------
  //
  // Run() is exactly Begin() + StepUntil(+inf) + Finalize(); the service
  // layer instead interleaves StepUntil with SubmitJob/CancelJob, so the
  // scheduling core is identical between batch simulation and online serving
  // and batch results stay bit-identical (enforced by the golden fixture).

  // Arms the run (wall epoch, obs pre-registration). Idempotent; Run() and
  // the first StepUntil call it implicitly.
  void Begin();

  // Drains queued events with time <= horizon, at most max_events of them,
  // stopping early when every submitted job reached a terminal state (batch
  // semantics: an idle cluster does not tick forever). Returns true when
  // events at or below the horizon may remain (max_events exhausted), false
  // once quiescent at the horizon. Chunk boundaries never change behaviour:
  // StepUntil(t1); StepUntil(t2) processes the same events in the same order
  // as a single StepUntil(t2) for t1 <= t2.
  bool StepUntil(TimeSec horizon,
                 std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  // Closes meters, folds final metrics, writes the trace file. Call once,
  // after the last StepUntil.
  SimulationResult Finalize();

  // Injects a job online. The spec's id is assigned by the simulator (dense,
  // arrival order); submit_time below now() is clamped to now(). Returns the
  // assigned id, or InvalidArgument for a malformed spec.
  StatusOr<JobId> SubmitJob(JobSpec spec);

  // Cancels a pending or running job, releasing its resources. NotFound for
  // unknown ids, FailedPrecondition when the job already terminated.
  Status CancelJob(JobId id);

  // Simulated-clock frontier: the time of the last processed event.
  TimeSec now() const { return now_; }
  // Time of the next queued event, +inf when the queue is empty.
  TimeSec NextEventTime() const {
    return events_.empty() ? std::numeric_limits<double>::infinity()
                           : events_.top().time;
  }
  // True while any submitted job is pending or running.
  bool HasUnfinishedJobs() const { return finished_count_ < jobs_.size(); }
  std::uint64_t events_processed() const { return result_.events_processed; }

  // Read-only access for tests and examples (valid after Run()).
  const ClusterState& cluster() const { return cluster_; }
  const std::vector<std::unique_ptr<Job>>& jobs() const { return jobs_; }
  const DecisionLog& decision_log() const { return decision_log_; }
  // This run's metrics registry (counters/gauges/histograms); disjoint per
  // simulation, so parallel runs never share metric state.
  const obs::MetricsRegistry& metrics() const { return obs_.metrics; }
  // The trace exporter, or null when options.trace_path is empty.
  const obs::TraceExporter* trace_exporter() const { return trace_.get(); }
  // Mutable variant for the service layer, which emits its command stream
  // onto the svc track of the same timeline. Single-threaded use only.
  obs::TraceExporter* mutable_trace_exporter() { return trace_.get(); }
  // The fault injector, or null when options.faults.enabled is false.
  const FaultInjector* fault_injector() const { return faults_.get(); }

  // Arms `sink` on every current and future job so the service layer can
  // publish read snapshots in O(changed jobs). Service mode only; batch
  // simulation never calls this. `sink` must outlive the simulator. Call from
  // the engine thread (the only thread that mutates jobs).
  void set_job_dirty_sink(Job::DirtySink* sink) {
    job_dirty_sink_ = sink;
    for (const auto& job : jobs_) {
      job->ArmDirtySink(sink);
    }
  }

 private:
  enum class EventType {
    kJobArrival,
    kJobFinish,
    kSchedulerTick,
    kOrchestratorTick,
    // Fault events (DESIGN.md §7). `job` carries the server id for
    // crash/recovery and the job id for straggler end; `generation` carries
    // the per-job straggler generation.
    kServerCrash,
    kServerRecovery,
    kWorkerFailure,
    kRevocationStorm,
    kStragglerStart,
    kStragglerEnd,
  };

  struct Event {
    TimeSec time = 0.0;
    std::uint64_t seq = 0;  // FIFO order among same-time events
    EventType type = EventType::kJobArrival;
    std::int64_t job = -1;
    std::uint64_t generation = 0;

    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  void PushEvent(TimeSec time, EventType type, std::int64_t job = -1,
                 std::uint64_t generation = 0);
  void AdvanceMeters(TimeSec now);
  void ScheduleFinish(Job& job, TimeSec now);
  void SyncAfterScheduling(TimeSec now);
  void HandleSchedulerTick(TimeSec now);
  void HandleOrchestratorTick(TimeSec now);
  void HandleFinish(TimeSec now, std::int64_t job_index, std::uint64_t generation);
  void RecordSeriesPoint(TimeSec now);
  double OverallUsedGpus(TimeSec now) const;

  // Placement-derived throughput times the job's straggler factor. Exactly
  // equal to the model rate while the factor is 1.0 (no FP perturbation).
  double EffectiveRate(const Job& job, const PlacementProfile& profile,
                       const ThroughputModel& model) const;
  // Requeues fully preempted jobs and refreshes scaled-in survivors after a
  // reclaim-shaped disruption (orchestrator reclaim, crash, storm).
  void PreemptAndRequeue(TimeSec now, const std::vector<JobId>& preempted,
                         obs::TraceTrack track, const char* end_reason);
  void RefreshScaledIn(TimeSec now, const std::vector<JobId>& scaled_in);

  // Fault machinery (all no-ops unless options_.faults.enabled).
  void PushFaultEvent(TimeSec time, EventType type);
  void HandleServerCrash(TimeSec now);
  void HandleServerRecovery(TimeSec now, std::int64_t server);
  void HandleWorkerFailure(TimeSec now);
  void HandleRevocationStorm(TimeSec now);
  void HandleStragglerStart(TimeSec now);
  void HandleStragglerEnd(TimeSec now, std::int64_t job_index,
                          std::uint64_t generation);

  SimulatorOptions options_;
  JobScheduler* scheduler_;
  ReclaimPolicy* reclaim_policy_;
  std::unique_ptr<InferenceCluster> inference_;
  ClusterState cluster_;
  std::vector<std::unique_ptr<Job>> jobs_;
  std::vector<std::uint64_t> finish_generation_;
  std::unique_ptr<FaultInjector> faults_;
  // Per-job straggler generation: invalidates queued kStragglerEnd events
  // when a newer straggler (or a preemption) superseded them.
  std::vector<std::uint64_t> straggler_generation_;
  std::vector<Job*> pending_;
  std::vector<Job*> running_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::uint64_t next_seq_ = 0;
  std::size_t finished_count_ = 0;  // jobs in any terminal state
  std::size_t cancelled_count_ = 0;
  bool dirty_ = true;  // cluster/job state changed since the last tick
  Job::DirtySink* job_dirty_sink_ = nullptr;  // not owned; null in batch mode
  TimeSec meter_cutoff_ = 0.0;

  // Stepping state (members so StepUntil can resume where it left off).
  bool began_ = false;
  bool hit_max_time_ = false;
  TimeSec now_ = 0.0;
  TimeSec next_scheduler_tick_ = 0.0;
  TimeSec next_orchestrator_tick_ = 0.0;
  std::chrono::steady_clock::time_point wall_start_{};

  obs::ObsContext obs_;
  // Cached pointers into obs_.metrics for the per-event counters: the event
  // loop bumps one of these on every event, and a string-keyed registry
  // lookup per event is measurable at online-service rates. Addresses are
  // stable (the registry owns counters by unique_ptr). Set in Begin().
  obs::Counter* arrival_counter_ = nullptr;
  obs::Counter* finish_counter_ = nullptr;
  obs::Counter* scheduler_tick_counter_ = nullptr;
  obs::Counter* orchestrator_tick_counter_ = nullptr;
  obs::Counter* fault_counter_ = nullptr;
  obs::Counter* ticks_coalesced_counter_ = nullptr;
  std::unique_ptr<obs::TraceExporter> trace_;
  JobProfiler profiler_;
  DecisionLog decision_log_;
  TimeWeightedMean training_meter_;
  TimeWeightedMean overall_meter_;
  TimeWeightedMean onloan_meter_;
  SimulationResult result_;
  int total_inference_gpus_ = 0;
};

}  // namespace lyra

#endif  // SRC_SIM_SIMULATOR_H_
