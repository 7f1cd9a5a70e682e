// lyra_perfbench: runs one benchmark workload and prints its metrics.
//
//   lyra_perfbench --workload=sim_lyra|sim_fifo|svc_mixed --seed=N
//                  --seconds=S --trace=0|1 [--out=results.jsonl]
//                  [--work-dir=DIR] [--list-metrics]
//
// --trace=0 prints the end-to-end metrics, --trace=1 the per-layer ones
// (and writes DIR/<workload>-seed<N>.trace.json, which opens in
// ui.perfetto.dev). The last stdout line is one JSON object with keys
// correct, attempted, failed and metrics. --out appends a record with the
// workload, seed and the deterministic values, for `run.py --compare`.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include <unistd.h>

#include "perfbench/src/report.h"
#include "perfbench/src/sim_workload.h"
#include "perfbench/src/svc_workload.h"
#include "src/common/flags.h"

int main(int argc, char** argv) {
  std::string workload;
  int seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_path;
  std::string work_dir = ".";
  bool list_metrics = false;

  lyra::FlagSet flags("lyra_perfbench: one benchmark workload, metrics on stdout");
  flags.AddString("workload", &workload, "sim_lyra, sim_fifo or svc_mixed");
  flags.AddInt("seed", &seed, "input seed (non-negative)");
  flags.AddDouble("seconds", &seconds, "measurement window in seconds");
  flags.AddInt("trace", &trace, "0: end-to-end metrics, 1: per-layer metrics");
  flags.AddString("out", &out_path, "append a result record to this file");
  flags.AddString("work-dir", &work_dir, "directory for the service socket and the span file");
  flags.AddBool("list-metrics", &list_metrics, "print every metric name and unit, then exit");
  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok() || flags.help_requested()) {
    std::fprintf(stderr, "%s%s", parsed.ok() ? "" : (parsed.message() + "\n").c_str(),
                 flags.Usage().c_str());
    return parsed.ok() ? 0 : 2;
  }
  if (list_metrics) {
    for (const auto* specs : {&perfbench::EndToEndSpecs(), &perfbench::PerLayerSpecs()}) {
      for (const perfbench::MetricSpec& spec : *specs) {
        std::printf("%s %s %s\n", specs == &perfbench::EndToEndSpecs() ? "end_to_end" : "per_layer",
                    spec.name, spec.unit);
      }
    }
    return 0;
  }
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "need --seed >= 0, --seconds > 0 and --trace 0|1\n");
    return 2;
  }

  const std::string trace_path =
      trace == 1 ? work_dir + "/" + workload + "-seed" + std::to_string(seed) + ".trace.json" : "";
  perfbench::RunOutcome outcome;
  if (workload == "sim_lyra" || workload == "sim_fifo") {
    perfbench::SimConfig config;
    config.scheduler = workload == "sim_lyra" ? "lyra" : "fifo";
    config.seed = static_cast<std::uint64_t>(seed);
    outcome = perfbench::RunSimWorkload(config, seconds, trace == 1, trace_path);
  } else if (workload == "svc_mixed") {
    perfbench::SvcConfig config;
    config.seed = static_cast<std::uint64_t>(seed);
    outcome = perfbench::RunSvcWorkload(config, seconds, trace == 1, trace_path,
                                        work_dir + "/svc-" + std::to_string(::getpid()) + ".sock");
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n%s", workload.c_str(), flags.Usage().c_str());
    return 2;
  }

  outcome.end_to_end.Set("ok_ratio",
                         static_cast<double>(outcome.attempted - outcome.failed) /
                             static_cast<double>(std::max<std::uint64_t>(outcome.attempted, 1)),
                         "ratio");
  std::vector<std::string> unknown;
  const perfbench::MetricSet metrics =
      trace == 1 ? perfbench::Complete(outcome.per_layer, perfbench::PerLayerSpecs(), &unknown)
                 : perfbench::Complete(outcome.end_to_end, perfbench::EndToEndSpecs(), &unknown);
  for (const std::string& name : unknown) {
    outcome.Fail("metric not in the benchmark's list: " + name);
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  for (const auto& [name, value] : outcome.exact) {
    std::printf("exact %s %s\n", name.c_str(), value.c_str());
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::app);
    out << perfbench::RecordLine(workload, static_cast<std::uint64_t>(seed), trace == 1, outcome,
                                 metrics)
        << "\n";
  }
  std::printf("%s\n", perfbench::ResultLine(outcome, metrics).c_str());
  return 0;
}
