// Batch-simulation workloads: the paper-scale cluster and trace replayed
// through Simulator with a benchmark-injected scheduler and reclaim policy.
#ifndef PERFBENCH_SRC_SIM_WORKLOAD_H_
#define PERFBENCH_SRC_SIM_WORKLOAD_H_

#include <cstdint>
#include <string>

#include "perfbench/src/layers.h"
#include "perfbench/src/report.h"
#include "src/sim/simulator.h"
#include "src/workload/trace.h"

namespace perfbench {

struct SimConfig {
  std::string scheduler = "lyra";  // registry name: "lyra" or "fifo"
  // 1.0 = the paper's 443 training + 520 inference servers.
  double scale = 1.0;
  double days = 15.0;
  // Picks which 5% of jobs are elastic, the inference traffic and the
  // simulator's own draws. The arrival process itself is generated from a
  // fixed seed, so every seed replays the same job population and load shape.
  std::uint64_t seed = 1;
};

// The synthetic trace lyra_sim generates for scale/days and its default seed,
// with the elastic share grown to 5% of jobs using `seed`.
lyra::Trace MakeSimTrace(const SimConfig& config);

// Digest over every deterministic outcome of a run: job and event counts,
// JCT and queueing samples, preemptions, usage and loan totals.
std::string OutcomeDigest(const lyra::SimulationResult& result);

struct SimRun {
  lyra::SimulationResult result;
  std::string digest;
  double build_s = 0.0;  // inference cluster, policies and Simulator
  double run_s = 0.0;    // Simulator::Run
  ScheduleStats schedule;
  ReclaimStats reclaim;
  // Empty unless the run passed every outcome check.
  std::string error;
};

// One simulation of `trace`. With `decorate` the scheduler and reclaim
// policy are wrapped in the timing decorators (spans recorded into `spans`
// when non-null, work counts when `detail`); without it the raw policies run
// and the stats stay empty. Checks that every job finished and that the
// final cluster state passes its invariant audit.
SimRun RunSimulation(const SimConfig& config, const lyra::Trace& trace, bool decorate,
                     SpanRecorder* spans, bool detail);

// The sim_lyra / sim_fifo workload: set-up, then repeated simulations for
// `seconds`. With `trace` untraced and traced simulations alternate; the
// traced ones yield the per-layer metrics and the span file at `trace_path`.
RunOutcome RunSimWorkload(const SimConfig& config, double seconds, bool trace,
                          const std::string& trace_path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SIM_WORKLOAD_H_
