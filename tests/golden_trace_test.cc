// Golden-trace regression test: a fixed-seed, reduced-scale slice of the
// table-5 scenario matrix is summarized with full double precision and
// diffed against a committed fixture. Any change to simulation semantics —
// scheduler decisions, event ordering, RNG stream layout, fault wiring with
// faults disabled — shows up here as a byte-level mismatch, so "bit-identical
// to the seed" claims are enforced mechanically instead of by hand.
//
// To regenerate the fixture after an *intentional* behaviour change:
//   LYRA_UPDATE_GOLDEN=1 ./golden_trace_test
// and commit the updated tests/golden/table5_small.golden with an
// explanation of why the numbers moved.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"

namespace lyra {
namespace {

#ifndef LYRA_GOLDEN_DIR
#error "LYRA_GOLDEN_DIR must be defined by the build"
#endif

constexpr const char* kFixturePath = LYRA_GOLDEN_DIR "/table5_small.golden";

// Formats a double so that equal bit patterns produce equal strings and any
// bit-level divergence produces a visible diff (17 significant digits
// round-trip IEEE doubles exactly).
std::string Full(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string SummaryLine(const std::string& label, const SimulationResult& r) {
  std::ostringstream out;
  out << label << " jobs=" << r.total_jobs << "/" << r.finished_jobs
      << " queue=" << Full(r.queuing.mean) << "," << Full(r.queuing.p50) << ","
      << Full(r.queuing.p95) << " jct=" << Full(r.jct.mean) << ","
      << Full(r.jct.p50) << "," << Full(r.jct.p95)
      << " usage=" << Full(r.training_usage) << "," << Full(r.overall_usage)
      << "," << Full(r.onloan_usage) << " preempt=" << r.preemptions
      << " scale_ops=" << r.scaling_operations
      << " loans=" << r.orchestrator.servers_loaned << ","
      << r.orchestrator.servers_returned << ","
      << r.orchestrator.jobs_preempted << ","
      << r.orchestrator.collateral_gpus;
  return out.str();
}

// The matrix lines also pin how many finished jobs ever ran on an on-loan
// server (Table 7's attribution), which the placement-derived fields above
// do not cover.
std::string MatrixLine(const std::string& label, const SimulationResult& r) {
  return SummaryLine(label, r) +
         " on_loan=" + std::to_string(r.queuing_on_loan_samples.size()) + "," +
         std::to_string(r.jct_on_loan_samples.size());
}

// The golden slice, at a reduced but non-trivial scale (22 training + 26
// inference servers, 2 days):
//   - one representative row per table-5 group (the original five lines);
//   - every scheduler of the service registry x the lyra/random/scf reclaim
//     policies with loaning on, so both placers and every reclaim path are
//     pinned;
//   - the optimal reclaim policy on a tiny trace (its search is exponential);
//   - a heterogeneous-job scenario for Lyra and FIFO (the mixed-pool paths);
//   - one row with every fault class on.
// The learned scheduler drives an untrained policy built from a fixed seed,
// so the row needs no weights file.
std::string GoldenReport() {
  ExperimentConfig config;
  config.scale = 0.05;
  config.days = 2.0;

  std::vector<ExperimentRun> runs;
  auto add = [&](const char* label, SchedulerKind scheduler, ReclaimKind reclaim,
                 bool loaning) {
    RunSpec spec;
    spec.scheduler = scheduler;
    spec.reclaim = reclaim;
    spec.loaning = loaning;
    runs.push_back({label, config, spec});
  };
  add("baseline/FIFO", SchedulerKind::kFifo, ReclaimKind::kLyra, false);
  add("basic/Lyra", SchedulerKind::kLyra, ReclaimKind::kLyra, true);
  add("loaning/LyraNoElastic", SchedulerKind::kLyraNoElastic, ReclaimKind::kLyra,
      true);
  add("loaning/Random", SchedulerKind::kLyraNoElastic, ReclaimKind::kRandom, true);
  add("scaling/AFS", SchedulerKind::kAfs, ReclaimKind::kLyra, false);

  const std::size_t table5_rows = runs.size();

  rl::PolicyOptions policy_options;
  policy_options.seed = 7;
  const auto policy = std::make_shared<const rl::PolicyNet>(policy_options);
  const std::pair<const char*, SchedulerKind> schedulers[] = {
      {"afs", SchedulerKind::kAfs},
      {"fifo", SchedulerKind::kFifo},
      {"gandiva", SchedulerKind::kGandiva},
      {"learned", SchedulerKind::kLearned},
      {"lyra", SchedulerKind::kLyra},
      {"opportunistic", SchedulerKind::kOpportunistic},
      {"pollux", SchedulerKind::kPollux},
      {"sjf", SchedulerKind::kSjf},
  };
  const std::pair<const char*, ReclaimKind> reclaims[] = {
      {"lyra", ReclaimKind::kLyra},
      {"random", ReclaimKind::kRandom},
      {"scf", ReclaimKind::kScf},
  };
  for (const auto& [scheduler_name, scheduler] : schedulers) {
    for (const auto& [reclaim_name, reclaim] : reclaims) {
      RunSpec spec;
      spec.scheduler = scheduler;
      spec.reclaim = reclaim;
      spec.loaning = true;
      spec.policy = policy;
      runs.push_back({std::string("matrix/") + scheduler_name + "+" + reclaim_name,
                      config, spec});
    }
  }

  ExperimentConfig tiny = config;
  tiny.scale = 0.02;
  tiny.days = 1.0;
  RunSpec optimal;
  optimal.scheduler = SchedulerKind::kLyra;
  optimal.reclaim = ReclaimKind::kOptimal;
  optimal.loaning = true;
  runs.push_back({"tiny/lyra+optimal", tiny, optimal});

  ExperimentConfig hetero = config;
  hetero.heterogeneous_fraction = 0.3;
  for (const auto& [name, scheduler] :
       {std::pair<const char*, SchedulerKind>{"lyra", SchedulerKind::kLyra},
        std::pair<const char*, SchedulerKind>{"fifo", SchedulerKind::kFifo}}) {
    RunSpec spec;
    spec.scheduler = scheduler;
    spec.loaning = true;
    runs.push_back({std::string("hetero/") + name, hetero, spec});
  }

  RunSpec faulty;
  faulty.scheduler = SchedulerKind::kLyra;
  faulty.loaning = true;
  faulty.faults.enabled = true;
  faulty.faults.seed = 43;
  faulty.faults.server_mtbf = 6 * kHour;
  faulty.faults.server_mttr = kHour;
  faulty.faults.worker_mtbf = 2 * kHour;
  faulty.faults.storm_mtbf = 6 * kHour;
  faulty.faults.straggler_mtbf = 3 * kHour;
  runs.push_back({"faults/lyra", config, faulty});

  const std::vector<SimulationResult> results = RunExperiments(runs);

  std::string report;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    report += i < table5_rows ? SummaryLine(runs[i].label, results[i])
                              : MatrixLine(runs[i].label, results[i]);
    report += "\n";
  }
  return report;
}

TEST(GoldenTrace, Table5SmallSliceMatchesFixture) {
  const std::string report = GoldenReport();

  if (const char* update = std::getenv("LYRA_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream out(kFixturePath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kFixturePath;
    out << report;
    GTEST_SKIP() << "fixture regenerated at " << kFixturePath;
  }

  std::ifstream in(kFixturePath, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << kFixturePath
                         << " — run with LYRA_UPDATE_GOLDEN=1 to create it";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();

  EXPECT_EQ(report, expected)
      << "fixed-seed simulation output diverged from the committed golden "
         "fixture. If the change is intentional, regenerate with "
         "LYRA_UPDATE_GOLDEN=1 and explain the delta in the commit message.";
}

// The runner must produce the same bytes no matter how the runs are spread
// over threads: the golden fixture pins sequential == parallel too.
TEST(GoldenTrace, ReportStableAcrossRepeatRuns) {
  EXPECT_EQ(GoldenReport(), GoldenReport());
}

}  // namespace
}  // namespace lyra
