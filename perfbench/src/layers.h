// Layer timing from outside the program.
//
// TimedScheduler and TimedReclaim are pass-through decorators: they forward
// every call to the wrapped JobScheduler / ReclaimPolicy unchanged and only
// observe — wall time and work counts per call, read from the call's inputs
// and outputs (the knapsack instance size only when `detail` is on).
// Placement time inside a Schedule call is read from the simulator's own
// kPlacement phase, through the thread's obs context, before and after it.
//
// SpanRecorder keeps spans in memory (name, start, end, parent) for the
// traced run, computes per-name self time (duration minus the part covered
// by direct children), and writes the spans out as a Perfetto-loadable
// Chrome trace through obs::TraceExporter.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/lyra/reclaim.h"
#include "src/sched/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start{};
    Clock::time_point end{};
    int parent = -1;  // index into spans(), -1 for a root
  };

  // Opens a span as a child of the innermost open one; returns its index.
  int Begin(const char* name);
  void End(int index);
  // Records a finished span (timed elsewhere) under `parent`.
  void Add(const char* name, Clock::time_point start, Clock::time_point end, int parent);

  const std::vector<Span>& spans() const { return spans_; }

  // Seconds of self time per span name, summed over all spans of that name.
  std::map<std::string, double> SelfSeconds() const;

  // Writes every span as a wall-clock slice, time zero at the first span.
  lyra::Status WriteTrace(const std::string& path) const;

 private:
  // Per span: seconds covered by its direct children.
  std::vector<double> ChildSeconds() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct ScheduleStats {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  double placement_s = 0.0;  // kPlacement phase time inside Schedule
  std::vector<double> call_ms;
  std::uint64_t pending_offered = 0;
  std::uint64_t launched = 0;
  // Knapsack instance sizes, recorded only with `detail` and `mckp`.
  std::uint64_t mckp_instances = 0;
  double mckp_groups_sum = 0.0;
  double mckp_capacity_sum = 0.0;
};

class TimedScheduler : public lyra::JobScheduler {
 public:
  // `inner` must outlive this decorator; `spans` may be null. `mckp` marks
  // an inner scheduler whose phase 2 solves a knapsack over elastic jobs, so
  // the instance size is recorded per call.
  TimedScheduler(lyra::JobScheduler* inner, SpanRecorder* spans, bool detail, bool mckp)
      : inner_(inner), spans_(spans), detail_(detail), mckp_(mckp) {}

  const char* name() const override { return inner_->name(); }
  bool tunes_hyperparameters() const override { return inner_->tunes_hyperparameters(); }
  void Schedule(lyra::SchedulerContext& ctx) override;

  const ScheduleStats& stats() const { return stats_; }

 private:
  lyra::JobScheduler* inner_;
  SpanRecorder* spans_;
  bool detail_;
  bool mckp_;
  ScheduleStats stats_;
};

struct ReclaimStats {
  std::uint64_t calls = 0;
  double total_s = 0.0;
  std::uint64_t servers_vacated = 0;
  std::uint64_t collateral_gpus = 0;
};

class TimedReclaim : public lyra::ReclaimPolicy {
 public:
  TimedReclaim(lyra::ReclaimPolicy* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}

  const char* name() const override { return inner_->name(); }
  lyra::ReclaimResult Reclaim(lyra::ClusterState& cluster, int num_servers) override;

  const ReclaimStats& stats() const { return stats_; }

 private:
  lyra::ReclaimPolicy* inner_;
  SpanRecorder* spans_;
  ReclaimStats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
