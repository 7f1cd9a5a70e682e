#include "src/svc/reads.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/svc/prom.h"
#include "src/svc/replies.h"
#include "src/svc/shard_router.h"

namespace lyra::svc {
namespace {

JsonValue Number(double value) { return JsonValue::MakeNumber(value); }

// Folds one engine's entry of a metrics-export `section` into the fleet's.
// Counters and gauges add (MergeEngineMetrics turns gauge sums into means);
// histograms merge like obs::Histogram::Merge.
void FoldMetric(const std::string& section, JsonValue& into,
                const JsonValue& from) {
  if (section != "histograms") {
    into = Number(into.AsDouble() + from.AsDouble());
    return;
  }
  if (from.GetDouble("count") == 0.0) {
    return;
  }
  if (into.GetDouble("count") == 0.0) {
    into = from;
    return;
  }
  const JsonValue* a = into.Find("buckets");
  const JsonValue* b = from.Find("buckets");
  if (a == nullptr || b == nullptr || a->AsArray().size() != b->AsArray().size()) {
    return;
  }
  JsonValue buckets = JsonValue::MakeArray();
  for (std::size_t i = 0; i < a->AsArray().size(); ++i) {
    buckets.Append(Number(a->AsArray()[i].AsDouble() + b->AsArray()[i].AsDouble()));
  }
  into.Replace("count", Number(into.GetDouble("count") + from.GetDouble("count")));
  into.Replace("sum", Number(into.GetDouble("sum") + from.GetDouble("sum")));
  into.Replace("min", Number(std::min(into.GetDouble("min"), from.GetDouble("min"))));
  into.Replace("max", Number(std::max(into.GetDouble("max"), from.GetDouble("max"))));
  into.Replace("buckets", std::move(buckets));
}

// `section` ("counters", "gauges" or "histograms") of an engine's metrics
// export; null when absent.
const JsonValue* Section(const StateSnapshot& snap, const char* section) {
  return snap.engine_metrics != nullptr ? snap.engine_metrics->Find(section)
                                        : nullptr;
}

// The engines' metrics exports merged by the registry's own rules: counters
// add; histograms merge like obs::Histogram (count, sum and buckets add, min
// and max over the non-empty ones); gauges take the mean over the engines
// reporting them. A fleet's engines have identical pools, so a fraction
// stays a fraction. One engine's export comes back unchanged.
JsonValue MergeEngineMetrics(const Snapshots& snaps) {
  JsonValue merged = snaps[0]->engine_metrics != nullptr
                         ? *snaps[0]->engine_metrics
                         : JsonValue::MakeNull();
  if (!merged.is_object()) {
    return merged;
  }
  for (std::size_t k = 1; k < snaps.size(); ++k) {
    for (const char* section : {"counters", "gauges", "histograms"}) {
      JsonValue* into = merged.FindMutable(section);
      const JsonValue* from = Section(*snaps[k], section);
      if (into == nullptr || from == nullptr) {
        continue;
      }
      for (const auto& [name, value] : from->AsObject()) {
        JsonValue* existing = into->FindMutable(name);
        if (existing == nullptr) {
          into->Set(name, value);
        } else {
          FoldMetric(section, *existing, value);
        }
      }
    }
  }
  JsonValue* gauges = merged.FindMutable("gauges");
  if (gauges != nullptr) {
    const JsonValue sums = *gauges;
    for (const auto& [name, value] : sums.AsObject()) {
      int reporting = 0;
      for (const auto& snap : snaps) {
        const JsonValue* reported = Section(*snap, "gauges");
        reporting += reported != nullptr && reported->Find(name) != nullptr;
      }
      gauges->Replace(name, Number(value.AsDouble() / reporting));
    }
  }
  return merged;
}

}  // namespace

Snapshots LoadSnapshots(EngineList engines) {
  Snapshots snaps;
  snaps.reserve(engines.size());
  for (const SchedulerService* engine : engines) {
    snaps.push_back(engine->snapshot());
  }
  return snaps;
}

SchedulerService::Stats SumStats(EngineList engines,
                                 std::vector<SchedulerService::Stats>* each) {
  SchedulerService::Stats total;
  for (const SchedulerService* engine : engines) {
    const SchedulerService::Stats stats = engine->stats();
    total.commands_applied += stats.commands_applied;
    total.jobs_submitted += stats.jobs_submitted;
    total.jobs_cancelled += stats.jobs_cancelled;
    total.rejected_overload += stats.rejected_overload;
    total.command_errors += stats.command_errors;
    total.reads_served += stats.reads_served;
    total.snapshots_published += stats.snapshots_published;
    total.queue_depth += stats.queue_depth;
    total.queue_peak = std::max(total.queue_peak, stats.queue_peak);
    if (each != nullptr) {
      each->push_back(stats);
    }
  }
  return total;
}

JsonValue ReadFleet(EngineList engines, const JsonValue& request,
                    const ShardRouter* federation) {
  const SchedulerService& front = *engines.front();
  const bool fleet = engines.size() > 1;
  const std::string name = request.GetString("cmd");
  const TelemetryCmd cmd = TelemetryCmdFromName(name);
  JsonValue reply;
  const auto fail = [&](JsonValue error) {
    front.CountProtocolError();
    reply = std::move(error);
  };
  if (SchedulerService::Classify(cmd) != SchedulerService::CmdClass::kRead) {
    fail(ErrorReply("invalid_argument", "unknown cmd: \"" + name + "\""));
    EchoSeq(request, reply);
    return reply;
  }
  const Snapshots snaps = LoadSnapshots(engines);
  for (std::size_t k = 0; k < engines.size(); ++k) {
    if (snaps[k] == nullptr || engines[k]->stopped()) {
      reply = ErrorReply("unavailable", "service is stopped");
      EchoSeq(request, reply);
      return reply;
    }
  }
  switch (cmd) {
    case TelemetryCmd::kQueryJob: {
      const std::optional<std::int64_t> id = request.GetInt("job");
      if (!id) {
        fail(ErrorReply("invalid_argument", "query_job requires a numeric \"job\""));
        break;
      }
      reply = SnapshotJobReply(*snaps[JobIdSpace::Owner(*id, engines.size())], *id);
      if (!reply.GetBool("ok", false)) {
        front.CountProtocolError();
      }
      break;
    }
    case TelemetryCmd::kClusterStats:
      reply = SnapshotClusterStatsReply(SumSnapshots(snaps));
      break;
    case TelemetryCmd::kMetrics: {
      const StateSnapshot sum = SumSnapshots(snaps);
      const SchedulerService::Stats stats = SumStats(engines);
      reply = OkReply();
      reply.Set("time", Number(sum.time));
      reply.Set("engine", MergeEngineMetrics(snaps));
      JsonValue service = JsonValue::MakeObject();
      service.Set("commands_applied", Number(static_cast<double>(stats.commands_applied)));
      service.Set("jobs_submitted", Number(static_cast<double>(stats.jobs_submitted)));
      service.Set("jobs_cancelled", Number(static_cast<double>(stats.jobs_cancelled)));
      service.Set("rejected_overload", Number(static_cast<double>(stats.rejected_overload)));
      service.Set("command_errors", Number(static_cast<double>(stats.command_errors)));
      service.Set("reads_served", Number(static_cast<double>(stats.reads_served)));
      service.Set("snapshots_published",
                  Number(static_cast<double>(stats.snapshots_published)));
      service.Set("queue_depth", Number(static_cast<double>(stats.queue_depth)));
      service.Set("queue_peak", Number(static_cast<double>(stats.queue_peak)));
      service.Set("command_log", Number(static_cast<double>(sum.command_log_size)));
      service.Set("driver", JsonValue::MakeString(front.driver_name()));
      if (fleet) {
        service.Set("shards", Number(static_cast<double>(engines.size())));
      }
      reply.Set("service", std::move(service));
      reply.Set("metrics_time", Number(sum.metrics_time));
      break;
    }
    case TelemetryCmd::kStatsProm:
      // Unix-socket counterpart of `GET /metrics`: the full exposition
      // document as a reply field, for clients without an HTTP path.
      reply = OkReply();
      reply.Set("text", JsonValue::MakeString(RenderPrometheus(engines, federation)));
      break;
    case TelemetryCmd::kTraceDump: {
      const std::string path = request.GetString("path");
      if (path.empty()) {
        fail(ErrorReply("invalid_argument", "trace_dump requires a \"path\""));
        break;
      }
      std::size_t spans = 0;
      Status dumped = Status::Ok();
      for (std::size_t k = 0; k < engines.size() && dumped.ok(); ++k) {
        const StatusOr<std::size_t> written = engines[k]->DumpFlightRecorder(
            ShardRouter::EnginePath(path, static_cast<int>(k)));
        if (written.ok()) {
          spans += written.value();
        } else {
          dumped = written.status();
        }
      }
      if (!dumped.ok()) {
        fail(StatusReply(dumped));
        break;
      }
      reply = OkReply();
      reply.Set("path", JsonValue::MakeString(path));
      reply.Set("spans", Number(static_cast<double>(spans)));
      if (fleet) {
        reply.Set("shards", Number(static_cast<double>(engines.size())));
      }
      break;
    }
    case TelemetryCmd::kFederationStats:
      // A read so that a federation can answer it; a one-cluster fleet has
      // no clusters or broker to report on.
      if (federation == nullptr) {
        fail(ErrorReply("failed_precondition", "not a federation"));
      } else {
        reply = federation->FederationStats(snaps);
      }
      break;
    default: {  // ping: liveness and identity without a metrics export
      const StateSnapshot sum = SumSnapshots(snaps);
      std::vector<SchedulerService::Stats> each;
      const SchedulerService::Stats stats = SumStats(engines, &each);
      double virtual_time = 0.0;
      JsonValue shards = JsonValue::MakeArray();
      for (std::size_t k = 0; k < engines.size(); ++k) {
        const double now = engines[k]->driver()->Now();
        virtual_time = std::max(virtual_time, now);
        if (fleet) {
          JsonValue entry = JsonValue::MakeObject();
          entry.Set("shard", Number(static_cast<double>(k)));
          entry.Set("commands_applied",
                    Number(static_cast<double>(each[k].commands_applied)));
          entry.Set("snapshot_seq", Number(static_cast<double>(snaps[k]->version)));
          entry.Set("virtual_time", Number(now));
          shards.Append(std::move(entry));
        }
      }
      reply = OkReply();
      reply.Set("time", Number(sum.time));
      reply.Set("virtual_time", Number(virtual_time));
      reply.Set("driver", JsonValue::MakeString(front.driver_name()));
      reply.Set("uptime_s", Number(front.UptimeSeconds()));
      reply.Set("commands_applied", Number(static_cast<double>(stats.commands_applied)));
      reply.Set("snapshot_seq", Number(static_cast<double>(sum.version)));
      reply.Set("scheduler", JsonValue::MakeString(front.options().engine.scheduler));
      reply.Set("reclaim", JsonValue::MakeString(front.options().engine.reclaim));
      if (fleet) {
        reply.Set("shard_count", Number(static_cast<double>(engines.size())));
        reply.Set("shards", std::move(shards));
      }
      break;
    }
  }
  front.CountRead();
  EchoSeq(request, reply);
  if (federation != nullptr && cmd == TelemetryCmd::kClusterStats) {
    reply.Set("federation", federation->ClusterArray(snaps));
  }
  return reply;
}

}  // namespace lyra::svc
