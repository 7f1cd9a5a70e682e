// The benchmark's own tests: the decorators are pure pass-throughs, every
// metric name is well formed, spans yield self times, and the service's
// stage histograms come back from a stats_prom scrape.
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>
#include <unistd.h>

#include "perfbench/src/layers.h"
#include "perfbench/src/report.h"
#include "perfbench/src/sim_workload.h"
#include "perfbench/src/svc_workload.h"
#include "src/svc/event_loop.h"
#include "src/svc/service.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"

namespace perfbench {
namespace {

SimConfig SmallSim(const std::string& scheduler) {
  SimConfig config;
  config.scheduler = scheduler;
  config.scale = 0.1;
  config.days = 1.0;
  config.seed = 7;
  return config;
}

TEST(Decorators, DigestEqualWithAndWithout) {
  for (const char* scheduler : {"lyra", "fifo"}) {
    const SimConfig config = SmallSim(scheduler);
    const lyra::Trace trace = MakeSimTrace(config);
    const SimRun raw = RunSimulation(config, trace, false, nullptr, false);
    SpanRecorder spans;
    const SimRun timed = RunSimulation(config, trace, true, &spans, true);
    EXPECT_EQ(raw.error, "") << scheduler;
    EXPECT_EQ(timed.error, "") << scheduler;
    EXPECT_EQ(raw.digest, timed.digest) << scheduler;
    EXPECT_EQ(raw.result.events_processed, timed.result.events_processed) << scheduler;
    EXPECT_EQ(raw.schedule.calls, 0u);
    EXPECT_GT(timed.schedule.calls, 0u) << scheduler;
    EXPECT_EQ(timed.schedule.call_ms.size(), timed.schedule.calls);
    // One sim.run span plus one per Schedule and Reclaim call.
    EXPECT_EQ(spans.spans().size(), 1 + timed.schedule.calls + timed.reclaim.calls);
  }
}

TEST(Decorators, ForwardNames) {
  lyra::StatusOr<std::unique_ptr<lyra::JobScheduler>> inner =
      lyra::svc::MakeScheduler("lyra", false, false);
  ASSERT_TRUE(inner.ok());
  TimedScheduler timed(inner.value().get(), nullptr, false, false);
  EXPECT_STREQ(timed.name(), inner.value()->name());
  EXPECT_EQ(timed.tunes_hyperparameters(), inner.value()->tunes_hyperparameters());
}

TEST(Metrics, NamesAndUnitsAreWellFormed) {
  std::set<std::string> seen;
  for (const auto* specs : {&EndToEndSpecs(), &PerLayerSpecs()}) {
    for (const MetricSpec& spec : *specs) {
      EXPECT_TRUE(ValidMetricName(spec.name)) << spec.name;
      EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate " << spec.name;
      const std::string unit = spec.unit;
      EXPECT_FALSE(unit.empty());
      EXPECT_LE(unit.size(), 16u);
      const char* allowed =
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_/%.-";
      EXPECT_EQ(unit.find_first_not_of(allowed), std::string::npos) << unit;
    }
  }
  EXPECT_NE(seen.count("setup_s"), 0u);
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_TRUE(ValidMetricName("svc.read_p99_ms"));
}

TEST(Metrics, CompleteFillsAndFlagsUnknown) {
  MetricSet measured;
  measured.Set("setup_s", 1.5, "s");
  measured.Set("not_listed", 2.0, "s");
  std::vector<std::string> unknown;
  const MetricSet all = Complete(measured, EndToEndSpecs(), &unknown);
  ASSERT_EQ(all.all().size(), EndToEndSpecs().size());
  EXPECT_EQ(all.Get("setup_s"), 1.5);
  EXPECT_EQ(all.Get("work_per_s"), 0.0);
  EXPECT_EQ(unknown, std::vector<std::string>{"not_listed"});
}

TEST(Spans, SelfTimeExcludesChildren) {
  SpanRecorder spans;
  const int outer = spans.Begin("outer");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const int inner = spans.Begin("inner");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  spans.End(inner);
  spans.End(outer);
  ASSERT_EQ(spans.spans()[1].parent, outer);
  const std::map<std::string, double> self = spans.SelfSeconds();
  EXPECT_GE(self.at("inner"), 0.010);
  EXPECT_GE(self.at("outer"), 0.005);
  EXPECT_LT(self.at("outer"), 0.010);
  EXPECT_TRUE(spans.WriteTrace("spans_test.trace.json").ok());
}

TEST(Report, QuantileAndDigest) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.99), 9.9);
  Digest a;
  Digest b;
  a.AddDouble(1.0);
  b.AddDouble(1.0);
  EXPECT_EQ(a.Hex(), b.Hex());
  b.AddDouble(-0.0);
  EXPECT_NE(a.Hex(), b.Hex());
}

TEST(Svc, StageHistogramsParseFromScrape) {
  const std::string path = "perfbench_test_" + std::to_string(::getpid()) + ".sock";
  lyra::svc::ServiceOptions options;
  options.engine.scale = 0.05;
  lyra::svc::SchedulerService service(options, std::make_unique<lyra::svc::VirtualTimeDriver>());
  ASSERT_TRUE(service.Start().ok());
  lyra::svc::EventLoopOptions loop_options;
  loop_options.unix_path = path;
  loop_options.io_threads = 1;
  lyra::svc::EventLoop loop(&service, loop_options);
  ASSERT_TRUE(loop.Start().ok());

  StatusOrScrape before = ScrapeService(path);
  ASSERT_TRUE(before.ok()) << before.status().message();
  lyra::StatusOr<int> fd = lyra::svc::ConnectUnix(path);
  ASSERT_TRUE(fd.ok());
  constexpr int kSubmits = 5;
  for (int i = 0; i < kSubmits; ++i) {
    ASSERT_TRUE(lyra::svc::WriteFrame(fd.value(), "{\"cmd\":\"submit\",\"total_work\":100}").ok());
    ASSERT_TRUE(lyra::svc::ReadFrame(fd.value()).ok());
  }
  ASSERT_TRUE(lyra::svc::WriteFrame(fd.value(), "{\"cmd\":\"query_job\",\"job\":0}").ok());
  ASSERT_TRUE(lyra::svc::ReadFrame(fd.value()).ok());
  ::close(fd.value());
  StatusOrScrape after = ScrapeService(path);
  ASSERT_TRUE(after.ok()) << after.status().message();

  const ServerWindow window = DiffScrapes(before.value(), after.value());
  EXPECT_EQ(window.submit.count(), static_cast<std::uint64_t>(kSubmits));
  EXPECT_EQ(window.read.count(), 1u);
  EXPECT_GT(window.batch_apply.count(), 0u);
  EXPECT_GT(window.snapshot_publish.count(), 0u);
  EXPECT_GE(window.batch_commands.sum(), static_cast<double>(kSubmits));
  EXPECT_GT(window.dispatch_lag.count(), 0u);
  EXPECT_EQ(window.overloaded, 0.0);
  loop.Stop();
  service.Stop();
}

TEST(Svc, ShortWorkloadAnswersEverythingCorrectly) {
  SvcConfig config;
  config.seed = 3;
  config.light_rate = 2000.0;
  config.light_requests = 400;
  config.saturate_rate = 50000.0;
  config.saturate_requests = 5000;
  const RunOutcome outcome = RunSvcWorkload(
      config, 1.0, true, "", "perfbench_test_svc_" + std::to_string(::getpid()) + ".sock");
  EXPECT_TRUE(outcome.correct) << (outcome.errors.empty() ? "" : outcome.errors.front());
  EXPECT_EQ(outcome.failed, 0u);
  EXPECT_GT(outcome.attempted, 500u);
  EXPECT_GT(outcome.end_to_end.Get("work_per_s"), 0.0);
  EXPECT_GT(outcome.per_layer.Get("svc.server_submit_p99_ms"), 0.0);
  EXPECT_GT(outcome.per_layer.Get("svc.engine_batch_commands_mean"), 0.0);
}

}  // namespace
}  // namespace perfbench
