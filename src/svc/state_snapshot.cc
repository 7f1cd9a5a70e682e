#include "src/svc/state_snapshot.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/sim/simulator.h"
#include "src/svc/replies.h"

namespace lyra::svc {
namespace {

JobRecord RecordOf(const Job& job) {
  JobRecord record;
  record.spec = job.spec();
  record.state = job.state();
  record.current_workers = job.current_workers();
  record.work_remaining = job.work_remaining();
  record.preemptions = job.preemptions();
  record.scaling_operations = job.scaling_operations();
  record.first_start_time = job.first_start_time();
  record.finish_time = job.finish_time();
  return record;
}

PoolCounters CountersOf(const ClusterState& cluster, ServerPool pool) {
  PoolCounters counters;
  counters.servers = cluster.NumServersInPool(pool);
  counters.total_gpus = cluster.TotalGpus(pool);
  counters.used_gpus = cluster.UsedGpus(pool);
  counters.free_gpus = cluster.FreeGpus(pool);
  return counters;
}

JsonValue PoolJson(const PoolCounters& counters) {
  JsonValue stats = JsonValue::MakeObject();
  stats.Set("servers", JsonValue::MakeNumber(counters.servers));
  stats.Set("total_gpus", JsonValue::MakeNumber(counters.total_gpus));
  stats.Set("used_gpus", JsonValue::MakeNumber(counters.used_gpus));
  stats.Set("free_gpus", JsonValue::MakeNumber(counters.free_gpus));
  return stats;
}

}  // namespace

std::shared_ptr<const StateSnapshot> SnapshotBuilder::Publish(
    const Simulator& sim, std::size_t command_log_size, bool refresh_metrics) {
  const auto& jobs = sim.jobs();

  // Every mutated job — including every newly submitted one, which is armed
  // dirty at SubmitJob — latched its id into the sink exactly once.
  dirty_chunks_.clear();
  for (const std::int64_t id : sink_.ids) {
    dirty_chunks_.push_back(static_cast<std::size_t>(id) / kSnapshotChunkSize);
  }
  std::sort(dirty_chunks_.begin(), dirty_chunks_.end());
  dirty_chunks_.erase(std::unique(dirty_chunks_.begin(), dirty_chunks_.end()),
                      dirty_chunks_.end());

  const std::size_t wanted_chunks =
      (jobs.size() + kSnapshotChunkSize - 1) / kSnapshotChunkSize;
  chunks_.resize(wanted_chunks);

  for (const std::size_t c : dirty_chunks_) {
    LYRA_CHECK_LT(c, chunks_.size());
    const std::size_t base = c * kSnapshotChunkSize;
    const std::size_t count = std::min(kSnapshotChunkSize, jobs.size() - base);
    auto rebuilt = std::make_shared<JobChunk>();
    rebuilt->records.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      rebuilt->records.push_back(RecordOf(*jobs[base + i]));
      ++rebuilt->state_counts[static_cast<std::size_t>(
          rebuilt->records.back().state)];
    }
    if (chunks_[c] != nullptr) {
      for (std::size_t s = 0; s < 4; ++s) {
        state_counts_[s] -= chunks_[c]->state_counts[s];
      }
    }
    for (std::size_t s = 0; s < 4; ++s) {
      state_counts_[s] += rebuilt->state_counts[s];
    }
    chunks_[c] = std::move(rebuilt);
  }

  for (const std::int64_t id : sink_.ids) {
    jobs[static_cast<std::size_t>(id)]->ClearDirty();
  }
  sink_.ids.clear();

  if (refresh_metrics) {
    StatusOr<JsonValue> parsed = JsonValue::Parse(sim.metrics().ExportJson());
    engine_metrics_ = std::make_shared<const JsonValue>(
        parsed.ok() ? std::move(parsed.value()) : JsonValue::MakeNull());
    metrics_time_ = sim.now();
  }

  auto snapshot = std::make_shared<StateSnapshot>();
  snapshot->version = ++version_;
  snapshot->time = sim.now();
  snapshot->events_processed = sim.events_processed();
  snapshot->job_count = jobs.size();
  snapshot->command_log_size = command_log_size;
  snapshot->state_counts = state_counts_;
  snapshot->training = CountersOf(sim.cluster(), ServerPool::kTraining);
  snapshot->on_loan = CountersOf(sim.cluster(), ServerPool::kOnLoan);
  snapshot->inference = CountersOf(sim.cluster(), ServerPool::kInference);
  snapshot->chunks = chunks_;
  snapshot->engine_metrics = engine_metrics_;
  snapshot->metrics_time = metrics_time_;
  snapshot->ids = ids_;
  return snapshot;
}

StateSnapshot SumSnapshots(
    std::span<const std::shared_ptr<const StateSnapshot>> snaps) {
  StateSnapshot sum;
  const auto add = [](PoolCounters& into, const PoolCounters& from) {
    into.servers += from.servers;
    into.total_gpus += from.total_gpus;
    into.used_gpus += from.used_gpus;
    into.free_gpus += from.free_gpus;
  };
  for (const auto& snap : snaps) {
    if (snap == nullptr) {
      continue;
    }
    sum.version = std::max(sum.version, snap->version);
    sum.time = std::max(sum.time, snap->time);
    sum.metrics_time = std::max(sum.metrics_time, snap->metrics_time);
    sum.events_processed += snap->events_processed;
    sum.job_count += snap->job_count;
    sum.command_log_size += snap->command_log_size;
    for (std::size_t s = 0; s < sum.state_counts.size(); ++s) {
      sum.state_counts[s] += snap->state_counts[s];
    }
    add(sum.training, snap->training);
    add(sum.on_loan, snap->on_loan);
    add(sum.inference, snap->inference);
  }
  return sum;
}

JsonValue SnapshotJobReply(const StateSnapshot& snap, std::int64_t id) {
  const JobRecord* job = snap.FindJob(id);
  if (job == nullptr) {
    return NoSuchJob(id);
  }
  JsonValue reply = OkReply();
  reply.Set("job", JsonValue::MakeNumber(static_cast<double>(id)));
  reply.Set("state", JsonValue::MakeString(
                         kJobStateNames[static_cast<std::size_t>(job->state)]));
  reply.Set("submit_time", JsonValue::MakeNumber(job->spec.submit_time));
  reply.Set("gpus_per_worker", JsonValue::MakeNumber(job->spec.gpus_per_worker));
  reply.Set("min_workers", JsonValue::MakeNumber(job->spec.min_workers));
  reply.Set("max_workers", JsonValue::MakeNumber(job->spec.max_workers));
  reply.Set("workers", JsonValue::MakeNumber(job->current_workers));
  reply.Set("work_remaining", JsonValue::MakeNumber(job->work_remaining));
  reply.Set("preemptions", JsonValue::MakeNumber(job->preemptions));
  reply.Set("scaling_operations", JsonValue::MakeNumber(job->scaling_operations));
  if (job->first_start_time >= 0.0) {
    reply.Set("first_start_time", JsonValue::MakeNumber(job->first_start_time));
  }
  if (job->finish_time >= 0.0) {
    reply.Set("finish_time", JsonValue::MakeNumber(job->finish_time));
  }
  return reply;
}

JsonValue SnapshotClusterStatsReply(const StateSnapshot& snap) {
  JsonValue jobs = JsonValue::MakeObject();
  jobs.Set("total", JsonValue::MakeNumber(static_cast<double>(snap.job_count)));
  for (std::size_t s = 0; s < kJobStateNames.size(); ++s) {
    jobs.Set(kJobStateNames[s],
             JsonValue::MakeNumber(static_cast<double>(snap.state_counts[s])));
  }

  JsonValue pools = JsonValue::MakeObject();
  pools.Set("training", PoolJson(snap.training));
  pools.Set("on_loan", PoolJson(snap.on_loan));
  pools.Set("inference", PoolJson(snap.inference));

  JsonValue reply = OkReply();
  reply.Set("time", JsonValue::MakeNumber(snap.time));
  reply.Set("events_processed",
            JsonValue::MakeNumber(static_cast<double>(snap.events_processed)));
  reply.Set("jobs", std::move(jobs));
  reply.Set("cluster", std::move(pools));
  return reply;
}

}  // namespace lyra::svc
