#include "perfbench/src/sim_workload.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/common/rng.h"
#include "src/obs/phase_profiler.h"
#include "src/sim/inference_cluster.h"
#include "src/svc/registry.h"
#include "src/workload/synthetic.h"

namespace perfbench {
namespace {

const lyra::obs::PhaseStat* FindPhase(const lyra::SimulationResult& result,
                                      lyra::obs::Phase phase) {
  const std::string name = lyra::obs::PhaseName(phase);
  for (const lyra::obs::PhaseStat& stat : result.phases) {
    if (stat.name == name) {
      return &stat;
    }
  }
  return nullptr;
}

double PhaseTotal(const lyra::SimulationResult& result, lyra::obs::Phase phase) {
  const lyra::obs::PhaseStat* stat = FindPhase(result, phase);
  return stat != nullptr ? stat->total_sec : 0.0;
}

double PhaseSelf(const lyra::SimulationResult& result, lyra::obs::Phase phase) {
  const lyra::obs::PhaseStat* stat = FindPhase(result, phase);
  return stat != nullptr ? stat->self_sec : 0.0;
}

double PhaseCalls(const lyra::SimulationResult& result, lyra::obs::Phase phase) {
  const lyra::obs::PhaseStat* stat = FindPhase(result, phase);
  return stat != nullptr ? static_cast<double>(stat->calls) : 0.0;
}

std::vector<double> Collect(const std::vector<SimRun>& runs, double (*field)(const SimRun&)) {
  std::vector<double> values;
  for (const SimRun& run : runs) {
    values.push_back(field(run));
  }
  return values;
}

}  // namespace

lyra::Trace MakeSimTrace(const SimConfig& config) {
  constexpr std::uint64_t kArrivalSeed = 42;
  constexpr double kElasticPopulation = 0.05;
  lyra::SyntheticTraceOptions options;
  options.duration = config.days * lyra::kDay;
  options.training_gpus = std::max(1, static_cast<int>(443 * config.scale)) * 8;
  options.seed = kArrivalSeed;
  lyra::Trace trace = lyra::SyntheticTraceGenerator(options).Generate();
  lyra::Rng rng(config.seed ^ 0x5eed);
  lyra::ApplyElasticFraction(trace, kElasticPopulation, rng);
  return trace;
}

std::string OutcomeDigest(const lyra::SimulationResult& result) {
  Digest digest;
  digest.Add(result.total_jobs);
  digest.Add(result.finished_jobs);
  digest.Add(result.events_processed);
  for (const std::vector<double>* samples : {&result.jct_samples, &result.queuing_samples}) {
    digest.Add(samples->size());
    for (double sample : *samples) {
      digest.AddDouble(sample);
    }
  }
  digest.Add(static_cast<std::uint64_t>(result.preemptions));
  digest.Add(static_cast<std::uint64_t>(result.scaling_operations));
  digest.AddDouble(result.training_usage);
  digest.AddDouble(result.overall_usage);
  digest.AddDouble(result.onloan_usage);
  digest.AddDouble(result.collateral_damage);
  digest.Add(static_cast<std::uint64_t>(result.orchestrator.servers_loaned));
  digest.Add(static_cast<std::uint64_t>(result.orchestrator.servers_returned));
  digest.Add(static_cast<std::uint64_t>(result.orchestrator.jobs_preempted));
  return digest.Hex();
}

SimRun RunSimulation(const SimConfig& config, const lyra::Trace& trace, bool decorate,
                     SpanRecorder* spans, bool detail) {
  SimRun run;
  const Clock::time_point build_start = Clock::now();
  lyra::StatusOr<std::unique_ptr<lyra::JobScheduler>> scheduler =
      lyra::svc::MakeScheduler(config.scheduler, false, false);
  lyra::StatusOr<std::unique_ptr<lyra::ReclaimPolicy>> reclaim = lyra::svc::MakeReclaim("lyra");
  if (!scheduler.ok() || !reclaim.ok()) {
    run.error = "unknown scheduler " + config.scheduler;
    return run;
  }
  TimedScheduler timed_scheduler(scheduler.value().get(), spans, detail,
                                 config.scheduler == "lyra");
  TimedReclaim timed_reclaim(reclaim.value().get(), spans);

  lyra::DiurnalTrafficOptions traffic;
  traffic.duration = trace.duration + 8 * lyra::kDay;
  traffic.seed = config.seed ^ 0x7aff1c;
  lyra::InferenceClusterOptions inference_options;
  inference_options.num_servers = std::max(1, static_cast<int>(520 * config.scale));
  auto inference = std::make_unique<lyra::InferenceCluster>(
      inference_options, lyra::DiurnalTrafficModel(traffic), lyra::svc::MakeUsagePredictor(false));

  lyra::SimulatorOptions options;
  options.training_servers = std::max(1, static_cast<int>(443 * config.scale));
  options.enable_loaning = true;
  options.seed = config.seed;
  lyra::JobScheduler* job_scheduler =
      decorate ? static_cast<lyra::JobScheduler*>(&timed_scheduler) : scheduler.value().get();
  lyra::ReclaimPolicy* reclaim_policy =
      decorate ? static_cast<lyra::ReclaimPolicy*>(&timed_reclaim) : reclaim.value().get();
  lyra::Simulator simulator(options, trace, job_scheduler, reclaim_policy, std::move(inference));
  run.build_s = Seconds(Clock::now() - build_start);

  const int span = spans != nullptr ? spans->Begin("sim.run") : -1;
  const Clock::time_point run_start = Clock::now();
  run.result = simulator.Run();
  run.run_s = Seconds(Clock::now() - run_start);
  if (span >= 0) {
    spans->End(span);
  }
  run.schedule = timed_scheduler.stats();
  run.reclaim = timed_reclaim.stats();
  run.digest = OutcomeDigest(run.result);

  if (run.result.finished_jobs != run.result.total_jobs) {
    run.error = "unfinished jobs: " +
                std::to_string(run.result.total_jobs - run.result.finished_jobs);
  } else if (!simulator.cluster().placements().empty()) {
    run.error = "placements left after every job finished";
  }
  // LYRA_CHECK-aborts on any divergence between the maintained counters and
  // a recount from the server vector.
  simulator.cluster().AuditInvariants();
  return run;
}

RunOutcome RunSimWorkload(const SimConfig& config, double seconds, bool trace,
                          const std::string& trace_path) {
  RunOutcome outcome;
  constexpr int kSetups = 5;
  std::vector<double> trace_gen_s;
  lyra::Trace sim_trace;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    sim_trace = MakeSimTrace(config);
    trace_gen_s.push_back(Seconds(Clock::now() - start));
  }

  // Untraced runs give the end-to-end numbers; with `trace` they alternate
  // with traced runs, which give the per-layer numbers and the overhead.
  std::vector<SimRun> plain;
  std::vector<SimRun> traced;
  SpanRecorder last_spans;
  const Clock::time_point window_start = Clock::now();
  double last_s = 0.0;
  double first_run_rss_mb = 0.0;
  for (int i = 0;; ++i) {
    const double elapsed = Seconds(Clock::now() - window_start);
    const bool have_minimum = plain.size() >= 2 && (!trace || traced.size() >= 1);
    if (have_minimum && elapsed + last_s > seconds) {
      break;
    }
    const bool traced_run = trace && i % 2 == 1;
    SpanRecorder spans;
    const Clock::time_point start = Clock::now();
    SimRun run = RunSimulation(config, sim_trace, true, traced_run ? &spans : nullptr, traced_run);
    last_s = Seconds(Clock::now() - start);
    std::fprintf(stderr, "perfbench: %s run %d%s: %.3f s, %llu events, digest %s\n",
                 config.scheduler.c_str(), i, traced_run ? " (traced)" : "", run.run_s,
                 static_cast<unsigned long long>(run.result.events_processed), run.digest.c_str());
    ++outcome.attempted;
    if (!run.error.empty()) {
      ++outcome.failed;
      outcome.Fail(run.error);
    }
    if (i == 0) {
      // Peak memory of one full simulation; later runs only reuse the heap.
      first_run_rss_mb = PeakRssMb();
    }
    if (traced_run) {
      last_spans = std::move(spans);
      traced.push_back(std::move(run));
    } else {
      plain.push_back(std::move(run));
    }
  }

  // Every run of one seed, traced or not, must reach the same outcome.
  const std::string& digest = plain.front().digest;
  for (const std::vector<SimRun>* runs : {&plain, &traced}) {
    for (const SimRun& run : *runs) {
      if (run.digest != digest) {
        outcome.Fail("outcome digest differs between runs: " + digest + " vs " + run.digest);
      }
    }
  }
  const lyra::SimulationResult& result = plain.front().result;
  outcome.exact["sim.outcome_digest"] = digest;
  outcome.exact["sim.events"] = std::to_string(result.events_processed);
  outcome.exact["sim.jobs"] = std::to_string(result.total_jobs);
  outcome.exact["sched.schedule_calls"] = std::to_string(plain.front().schedule.calls);
  outcome.exact["lyra.reclaim_calls"] = std::to_string(plain.front().reclaim.calls);

  // Means, not medians: machine speed on a shared host moves from one
  // simulation to the next, and the window total integrates that where the
  // median of a few runs does not.
  const double run_s = Mean(Collect(plain, [](const SimRun& r) { return r.run_s; }));
  std::vector<double> builds = Collect(plain, [](const SimRun& r) { return r.build_s; });
  builds.resize(std::min<std::size_t>(builds.size(), kSetups));

  MetricSet& e2e = outcome.end_to_end;
  e2e.Set("setup_s", Median(trace_gen_s) + Median(builds), "s");
  e2e.Set("peak_rss_mb", first_run_rss_mb, "MB");
  e2e.Set("work_per_s", static_cast<double>(result.events_processed) / run_s, "1/s");

  if (!trace) {
    return outcome;
  }
  const SimRun& t = traced.back();
  const lyra::SimulationResult& tr = t.result;
  const std::map<std::string, double> self = last_spans.SelfSeconds();
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it != self.end() ? it->second : 0.0;
  };
  using lyra::obs::Phase;
  const double schedule_s = self_of("sched.schedule");
  const double reclaim_s = self_of("lyra.reclaim");
  const double drain_self_s = PhaseSelf(tr, Phase::kEventDrain);
  const double orchestrator_s =
      PhaseTotal(tr, Phase::kOrchestratorTick) - PhaseTotal(tr, Phase::kReclaimPolicy);
  // Scheduler-tick time outside Schedule: the context build and the
  // simulator's post-scheduling sync of job rates and finish events.
  const double tick_sync_s = PhaseTotal(tr, Phase::kSchedulerTick) - t.schedule.total_s;
  const double attributed = drain_self_s + tick_sync_s + schedule_s + reclaim_s + orchestrator_s +
                            PhaseTotal(tr, Phase::kFinalize) + PhaseTotal(tr, Phase::kRmReconcile);
  const double traced_run_s = Mean(Collect(traced, [](const SimRun& r) { return r.run_s; }));

  MetricSet& layer = outcome.per_layer;
  layer.Set("workload.trace_gen_s", Median(trace_gen_s), "s");
  layer.Set("sim.run_s", run_s, "s");
  layer.Set("sim.events", static_cast<double>(tr.events_processed), "count");
  layer.Set("sim.sched_ticks", PhaseCalls(tr, Phase::kSchedulerTick), "count");
  layer.Set("sim.drain_self_s", drain_self_s, "s");
  layer.Set("sim.tick_sync_s", tick_sync_s, "s");
  layer.Set("sim.unattributed_share", 1.0 - attributed / t.run_s, "ratio");
  layer.Set("sim.jct_mean_s", tr.jct.mean, "s");
  layer.Set("sim.queuing_mean_s", tr.queuing.mean, "s");
  layer.Set("sim.preemption_ratio", tr.preemption_ratio, "ratio");
  layer.Set("sim.training_usage", tr.training_usage, "ratio");
  layer.Set("sched.schedule_s", schedule_s, "s");
  layer.Set("sched.schedule_calls", static_cast<double>(t.schedule.calls), "count");
  layer.Set("sched.schedule_p50_ms", Median(Collect(plain, [](const SimRun& r) {
              return Quantile(r.schedule.call_ms, 0.50);
            })), "ms");
  layer.Set("sched.schedule_p99_ms", Median(Collect(plain, [](const SimRun& r) {
              return Quantile(r.schedule.call_ms, 0.99);
            })), "ms");
  const double offered =
      static_cast<double>(std::max<std::uint64_t>(t.schedule.pending_offered, 1));
  layer.Set("sched.launch_ratio", static_cast<double>(t.schedule.launched) / offered, "ratio");
  layer.Set("lyra.allocate_s", schedule_s - t.schedule.placement_s, "s");
  const double instances =
      static_cast<double>(std::max<std::uint64_t>(t.schedule.mckp_instances, 1));
  layer.Set("lyra.mckp_groups_mean", t.schedule.mckp_groups_sum / instances, "count");
  layer.Set("lyra.mckp_capacity_gpus_mean", t.schedule.mckp_capacity_sum / instances, "count");
  layer.Set("lyra.reclaim_s", reclaim_s, "s");
  layer.Set("lyra.reclaim_calls", static_cast<double>(t.reclaim.calls), "count");
  layer.Set("lyra.reclaim_servers", static_cast<double>(t.reclaim.servers_vacated), "count");
  layer.Set("lyra.collateral_gpus", static_cast<double>(t.reclaim.collateral_gpus), "count");
  layer.Set("lyra.orchestrator_s", orchestrator_s, "s");
  layer.Set("placement.s", t.schedule.placement_s, "s");
  layer.Set("placement.calls", PhaseCalls(tr, Phase::kPlacement), "count");
  layer.Set("trace.overhead_pct", (traced_run_s / run_s - 1.0) * 100.0, "%");

  if (!trace_path.empty()) {
    const lyra::Status written = last_spans.WriteTrace(trace_path);
    if (!written.ok()) {
      outcome.Fail("cannot write " + trace_path + ": " + written.message());
    }
  }
  return outcome;
}

}  // namespace perfbench
