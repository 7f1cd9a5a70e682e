#include "perfbench/src/report.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>

#include <sys/resource.h>

#include "src/common/json.h"

namespace perfbench {

void MetricSet::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double MetricSet::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ok_ratio", "ratio"},
      {"work_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"workload.trace_gen_s", "s"},
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.sched_ticks", "count"},
      {"sim.drain_self_s", "s"},
      {"sim.tick_sync_s", "s"},
      {"sim.unattributed_share", "ratio"},
      {"sim.jct_mean_s", "s"},
      {"sim.queuing_mean_s", "s"},
      {"sim.preemption_ratio", "ratio"},
      {"sim.training_usage", "ratio"},
      {"sched.schedule_s", "s"},
      {"sched.schedule_calls", "count"},
      {"sched.schedule_p50_ms", "ms"},
      {"sched.schedule_p99_ms", "ms"},
      {"sched.launch_ratio", "ratio"},
      {"lyra.allocate_s", "s"},
      {"lyra.mckp_groups_mean", "count"},
      {"lyra.mckp_capacity_gpus_mean", "count"},
      {"lyra.reclaim_s", "s"},
      {"lyra.reclaim_calls", "count"},
      {"lyra.reclaim_servers", "count"},
      {"lyra.collateral_gpus", "count"},
      {"lyra.orchestrator_s", "s"},
      {"placement.s", "s"},
      {"placement.calls", "count"},
      {"svc.submit_p50_ms", "ms"},
      {"svc.submit_p99_ms", "ms"},
      {"svc.read_p50_ms", "ms"},
      {"svc.read_p99_ms", "ms"},
      {"svc.server_submit_p99_ms", "ms"},
      {"svc.server_read_p99_ms", "ms"},
      {"svc.client_minus_server_p50_ms", "ms"},
      {"svc.dispatch_lag_p99_ms", "ms"},
      {"svc.gen_lag_ms", "ms"},
      {"svc.backlog_max", "count"},
      {"svc.engine_apply_s", "s"},
      {"svc.engine_batch_commands_mean", "count"},
      {"svc.snapshot_publish_s", "s"},
      {"svc.queue_peak", "count"},
      {"svc.overloaded", "count"},
      {"trace.overhead_pct", "%"},
  };
  return specs;
}

MetricSet Complete(const MetricSet& measured, const std::vector<MetricSpec>& specs,
                   std::vector<std::string>* unknown) {
  MetricSet out;
  for (const MetricSpec& spec : specs) {
    const double value = measured.Get(spec.name);
    out.Set(spec.name, std::isnan(value) ? 0.0 : value, spec.unit);
  }
  for (const Metric& metric : measured.all()) {
    if (std::isnan(out.Get(metric.name))) {
      unknown->push_back(metric.name);
    }
  }
  return out;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> samples) { return Quantile(std::move(samples), 0.5); }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64 || !std::isalnum(static_cast<unsigned char>(name[0]))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.' || c == '-';
  });
}

void Digest::Add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::AddDouble(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash_));
  return buf;
}

namespace {

lyra::JsonValue MetricsJson(const MetricSet& metrics) {
  lyra::JsonValue out = lyra::JsonValue::MakeObject();
  for (const Metric& metric : metrics.all()) {
    lyra::JsonValue entry = lyra::JsonValue::MakeObject();
    // JSON has no NaN/inf; a metric that could not be measured reads 0.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    entry.Set("value", lyra::JsonValue::MakeNumber(value));
    entry.Set("unit", lyra::JsonValue::MakeString(metric.unit));
    out.Set(metric.name, std::move(entry));
  }
  return out;
}

lyra::JsonValue ResultJson(const RunOutcome& outcome, const MetricSet& metrics) {
  lyra::JsonValue out = lyra::JsonValue::MakeObject();
  out.Set("correct", lyra::JsonValue::MakeBool(outcome.correct));
  out.Set("attempted", lyra::JsonValue::MakeNumber(static_cast<double>(outcome.attempted)));
  out.Set("failed", lyra::JsonValue::MakeNumber(static_cast<double>(outcome.failed)));
  out.Set("metrics", MetricsJson(metrics));
  return out;
}

}  // namespace

std::string ResultLine(const RunOutcome& outcome, const MetricSet& metrics) {
  return ResultJson(outcome, metrics).Dump();
}

std::string RecordLine(const std::string& workload, std::uint64_t seed, bool trace,
                       const RunOutcome& outcome, const MetricSet& metrics) {
  lyra::JsonValue out = ResultJson(outcome, metrics);
  out.Set("workload", lyra::JsonValue::MakeString(workload));
  out.Set("seed", lyra::JsonValue::MakeNumber(static_cast<double>(seed)));
  out.Set("trace", lyra::JsonValue::MakeBool(trace));
  lyra::JsonValue exact = lyra::JsonValue::MakeObject();
  for (const auto& [name, value] : outcome.exact) {
    exact.Set(name, lyra::JsonValue::MakeString(value));
  }
  out.Set("exact", std::move(exact));
  return out.Dump();
}

}  // namespace perfbench
