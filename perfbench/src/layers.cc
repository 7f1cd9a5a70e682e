#include "perfbench/src/layers.h"

#include "src/obs/obs.h"
#include "src/obs/trace_exporter.h"

namespace perfbench {
namespace {

double PlacementSeconds() {
  const lyra::obs::ObsContext* context = lyra::obs::Current();
  return context != nullptr ? context->profiler.total_sec(lyra::obs::Phase::kPlacement) : 0.0;
}

}  // namespace

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = Clock::now();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

void SpanRecorder::Add(const char* name, Clock::time_point start, Clock::time_point end,
                       int parent) {
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = parent;
  spans_.push_back(span);
}

std::vector<double> SpanRecorder::ChildSeconds() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child[static_cast<std::size_t>(span.parent)] += Seconds(span.end - span.start);
    }
  }
  return child;
}

std::map<std::string, double> SpanRecorder::SelfSeconds() const {
  const std::vector<double> child = ChildSeconds();
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += Seconds(spans_[i].end - spans_[i].start) - child[i];
  }
  return self;
}

lyra::Status SpanRecorder::WriteTrace(const std::string& path) const {
  lyra::obs::TraceExporter exporter(spans_.size() + 1);
  if (!spans_.empty()) {
    exporter.SetWallEpoch(spans_.front().start);
  }
  const std::vector<double> child = ChildSeconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double elapsed = Seconds(spans_[i].end - spans_[i].start);
    exporter.PhaseSpan(spans_[i].name, spans_[i].start, elapsed, elapsed - child[i]);
  }
  return exporter.WriteJson(path);
}

void TimedScheduler::Schedule(lyra::SchedulerContext& ctx) {
  if (detail_ && mckp_) {
    // Phase-2 instance size: one group per elastic job that is pending or
    // running; capacity = idle GPUs plus the GPUs of flexible workers.
    int groups = 0;
    int capacity = ctx.cluster->TrainingSideFreeGpus();
    for (const lyra::Job* job : ctx.pending) {
      groups += job->spec().elastic() ? 1 : 0;
    }
    for (const lyra::Job* job : ctx.running) {
      const lyra::JobSpec& spec = job->spec();
      groups += spec.elastic() ? 1 : 0;
      capacity += (job->current_workers() - spec.min_workers) * spec.gpus_per_worker;
    }
    ++stats_.mckp_instances;
    stats_.mckp_groups_sum += groups;
    stats_.mckp_capacity_sum += capacity;
  }
  // Scheduling never removes a whole job, so new placements are launches.
  const std::size_t placed_before = ctx.cluster->placements().size();
  const int span = spans_ != nullptr ? spans_->Begin("sched.schedule") : -1;
  const double placement_before = PlacementSeconds();
  const Clock::time_point start = Clock::now();
  inner_->Schedule(ctx);
  const double elapsed = Seconds(Clock::now() - start);
  stats_.placement_s += PlacementSeconds() - placement_before;
  if (span >= 0) {
    spans_->End(span);
  }
  ++stats_.calls;
  stats_.total_s += elapsed;
  stats_.call_ms.push_back(elapsed * 1e3);
  stats_.pending_offered += ctx.pending.size();
  stats_.launched += ctx.cluster->placements().size() - placed_before;
}

lyra::ReclaimResult TimedReclaim::Reclaim(lyra::ClusterState& cluster, int num_servers) {
  const int span = spans_ != nullptr ? spans_->Begin("lyra.reclaim") : -1;
  const Clock::time_point start = Clock::now();
  lyra::ReclaimResult result = inner_->Reclaim(cluster, num_servers);
  stats_.total_s += Seconds(Clock::now() - start);
  if (span >= 0) {
    spans_->End(span);
  }
  ++stats_.calls;
  stats_.servers_vacated += result.vacated.size();
  stats_.collateral_gpus += static_cast<std::uint64_t>(result.collateral_gpus);
  return result;
}

}  // namespace perfbench
