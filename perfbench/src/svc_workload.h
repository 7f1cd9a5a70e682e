// The svc_mixed workload: an in-process scheduler service (SchedulerService
// behind an EventLoop on a Unix socket, one io thread, one engine) under an
// open-loop client on one connection that interleaves submits with reads of
// acknowledged jobs and cluster_stats. Submits carry no "at" and the client
// never advances time, so the engine applies batches and publishes
// snapshots but never schedules.
//
// Each round runs a light fixed-rate phase (latency) and a saturating phase
// (throughput), each against a fresh service. Server-side stage histograms
// come from the service's stats_prom exposition, scraped before and after
// each phase and differenced.
#ifndef PERFBENCH_SRC_SVC_WORKLOAD_H_
#define PERFBENCH_SRC_SVC_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "perfbench/src/report.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/svc/prom.h"

namespace perfbench {

struct SvcConfig {
  std::uint64_t seed = 1;
  // Light phase: a fixed rate well below the peak, for latency.
  double light_rate = 20000.0;  // requests/s
  std::uint64_t light_requests = 20000;
  // Saturating phase: offered far above the peak, for throughput.
  double saturate_rate = 1.0e6;
  std::uint64_t saturate_requests = 200000;
};

using StatusOrScrape = lyra::StatusOr<lyra::svc::PromScrape>;

// One stats_prom request over the Unix socket, parsed with ParsePrometheus.
StatusOrScrape ScrapeService(const std::string& unix_path);

// Server-side view of one phase: the scraped histograms after minus before.
struct ServerWindow {
  lyra::obs::Histogram submit{{}};      // decode -> reply queued, seconds
  lyra::obs::Histogram read{{}};        // query_job and cluster_stats
  lyra::obs::Histogram dispatch_lag{{}};
  lyra::obs::Histogram batch_apply{{}};
  lyra::obs::Histogram snapshot_publish{{}};
  lyra::obs::Histogram batch_commands{{}};
  double overloaded = 0.0;
  double queue_peak = 0.0;
};

ServerWindow DiffScrapes(const lyra::svc::PromScrape& before, const lyra::svc::PromScrape& after);

// Runs rounds of (light, saturating) phases for about `seconds`. The service
// listens on `unix_path`; with `trace` the phase and request spans of the
// light phases are written to `trace_path`.
RunOutcome RunSvcWorkload(const SvcConfig& config, double seconds, bool trace,
                          const std::string& trace_path, const std::string& unix_path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SVC_WORKLOAD_H_
