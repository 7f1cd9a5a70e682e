#include "src/svc/prom.h"

#include <array>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>
#include <utility>

#include "src/svc/reads.h"
#include "src/svc/service.h"
#include "src/svc/shard_router.h"
#include "src/svc/state_snapshot.h"
#include "src/svc/telemetry.h"

namespace lyra::svc {
namespace {

void AppendNumber(std::string& out, double v) {
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

void AppendCount(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void AppendHeader(std::string& out, const char* family, const char* type,
                  const char* help) {
  out += "# HELP ";
  out += family;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

// `labels` is pre-rendered inner label text, e.g. "cmd=\"submit\"" (may be
// empty). All label values here are identifier-like, so no escaping needed.
void AppendSample(std::string& out, const char* family, const char* suffix,
                  const std::string& labels, double value) {
  out += family;
  out += suffix;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  AppendNumber(out, value);
  out += '\n';
}

void AppendCountSample(std::string& out, const char* family,
                       const char* suffix, const std::string& labels,
                       std::uint64_t value) {
  out += family;
  out += suffix;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  AppendCount(out, value);
  out += '\n';
}

// Emits the cumulative _bucket/_sum/_count triplet for one labeled series.
// `labels` must not contain `le` (it is appended here).
void AppendHistogramSeries(std::string& out, const char* family,
                           const std::string& labels,
                           const obs::Histogram& histogram) {
  std::uint64_t cumulative = 0;
  const auto& bounds = histogram.upper_bounds();
  const auto& counts = histogram.bucket_counts();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    std::string bucket_labels = labels;
    if (!bucket_labels.empty()) {
      bucket_labels += ',';
    }
    bucket_labels += "le=\"";
    AppendNumber(bucket_labels, bounds[i]);
    bucket_labels += '"';
    AppendCountSample(out, family, "_bucket", bucket_labels, cumulative);
  }
  cumulative += counts.back();
  std::string inf_labels = labels;
  if (!inf_labels.empty()) {
    inf_labels += ',';
  }
  inf_labels += "le=\"+Inf\"";
  AppendCountSample(out, family, "_bucket", inf_labels, cumulative);
  AppendSample(out, family, "_sum", labels, histogram.sum());
  AppendCountSample(out, family, "_count", labels, histogram.count());
}

void AppendSingleHistogram(std::string& out, const char* family,
                           const char* help, const obs::Histogram& histogram) {
  AppendHeader(out, family, "histogram", help);
  AppendHistogramSeries(out, family, "", histogram);
}

void AppendPool(std::string& out, const char* pool, const PoolCounters& c) {
  const std::string base = std::string("pool=\"") + pool + "\"";
  AppendSample(out, "lyra_engine_pool_servers", "", base,
               static_cast<double>(c.servers));
}

void AppendPoolGpus(std::string& out, const char* pool,
                    const PoolCounters& c) {
  const std::string base = std::string("pool=\"") + pool + "\",kind=\"";
  AppendSample(out, "lyra_engine_pool_gpus", "", base + "total\"",
               static_cast<double>(c.total_gpus));
  AppendSample(out, "lyra_engine_pool_gpus", "", base + "used\"",
               static_cast<double>(c.used_gpus));
  AppendSample(out, "lyra_engine_pool_gpus", "", base + "free\"",
               static_cast<double>(c.free_gpus));
}

// The lyra_fed_* families: per-cluster identity, job states, own-pool GPUs
// and loan balances, plus the broker's totals.
void AppendFederation(std::string& out, const ShardRouter& router,
                      const Snapshots& snaps) {
  const FedLedger ledger = router.LedgerCopy();
  std::vector<StateSnapshot> sums;
  for (int c = 0; c < router.cluster_count(); ++c) {
    sums.push_back(router.SumCluster(snaps, c));
  }
  const auto label = [&router](int c) {
    return "cluster=\"" + router.cluster_spec(c).name + "\"";
  };
  const auto count = [](auto v) { return static_cast<std::uint64_t>(v); };
  const auto total = [&out](const char* family, const char* type,
                            const char* help, std::uint64_t value) {
    AppendHeader(out, family, type, help);
    AppendCountSample(out, family, "", "", value);
  };
  total("lyra_fed_clusters", "gauge", "Clusters in the federation.",
        count(router.cluster_count()));
  AppendHeader(out, "lyra_fed_cluster_info", "gauge",
               "Cluster identity (value is always 1).");
  for (int c = 0; c < router.cluster_count(); ++c) {
    AppendCountSample(out, "lyra_fed_cluster_info", "",
                      label(c) + ",kind=\"" +
                          ClusterKindName(router.cluster_spec(c).kind) + "\"",
                      1);
  }
  AppendHeader(out, "lyra_fed_jobs", "gauge", "Jobs by cluster and state.");
  for (int c = 0; c < router.cluster_count(); ++c) {
    for (std::size_t s = 0; s < kJobStateNames.size(); ++s) {
      AppendCountSample(out, "lyra_fed_jobs", "",
                        label(c) + ",state=\"" + kJobStateNames[s] + "\"",
                        sums[c].state_counts[s]);
    }
  }
  AppendHeader(out, "lyra_fed_gpus", "gauge",
               "GPUs by cluster and pool counter.");
  for (int c = 0; c < router.cluster_count(); ++c) {
    const PoolCounters& pool = router.OwnPool(sums[c], c);
    AppendCountSample(out, "lyra_fed_gpus", "", label(c) + ",pool=\"total\"",
                      count(pool.total_gpus));
    AppendCountSample(out, "lyra_fed_gpus", "", label(c) + ",pool=\"free\"",
                      count(pool.free_gpus));
  }
  AppendHeader(out, "lyra_fed_gpus_loaned", "gauge",
               "GPUs currently lent out, by lender.");
  for (int c = 0; c < router.cluster_count(); ++c) {
    AppendCountSample(out, "lyra_fed_gpus_loaned", "", label(c),
                      count(LoanedBy(ledger, static_cast<std::uint32_t>(c))));
  }
  AppendHeader(out, "lyra_fed_gpus_borrowed", "gauge",
               "GPUs currently borrowed, by borrower.");
  for (int c = 0; c < router.cluster_count(); ++c) {
    AppendCountSample(out, "lyra_fed_gpus_borrowed", "", label(c),
                      count(BorrowedBy(ledger, static_cast<std::uint32_t>(c))));
  }
  total("lyra_fed_loans_active", "gauge", "Outstanding cross-cluster loans.",
        count(ledger.loans.size()));
  total("lyra_fed_loans_granted_total", "counter", "GPUs ever granted.",
        ledger.total_granted);
  total("lyra_fed_loans_reclaimed_total", "counter", "GPUs ever reclaimed.",
        ledger.total_reclaimed);
  total("lyra_fed_loans_returned_total", "counter", "GPUs ever returned.",
        ledger.total_returned);
}

}  // namespace

std::string RenderPrometheus(EngineList engines,
                             const ShardRouter* federation) {
  const std::size_t n = engines.size();
  const bool fleet = n > 1;
  std::vector<TelemetrySummary> telemetry;
  for (const SchedulerService* engine : engines) {
    telemetry.push_back(engine->telemetry().Collect());
  }
  std::vector<SchedulerService::Stats> stats;
  const SchedulerService::Stats total = SumStats(engines, &stats);
  const Snapshots snaps = LoadSnapshots(engines);
  const StateSnapshot sum = SumSnapshots(snaps);
  // The front engine's registry is where the I/O threads live; every other
  // registry holds only that engine's thread.
  const TelemetrySummary& front = telemetry.front();
  const SchedulerService& front_service = *engines.front();
  const auto shard_label = [](std::size_t k) {
    return "shard=\"" + std::to_string(k) + "\"";
  };

  std::string out;
  out.reserve(fleet ? 65536 : 32768);

  // --- request latency, per command (skip never-seen commands) ---
  AppendHeader(out, "lyra_svc_request_duration_seconds", "histogram",
               "Request latency from frame decode to reply queued, per "
               "command.");
  for (int c = 0; c < kTelemetryWireCmdCount; ++c) {
    const obs::Histogram& h = front.cmd_latency[static_cast<std::size_t>(c)];
    if (h.count() == 0) {
      continue;
    }
    const std::string labels =
        std::string("cmd=\"") +
        TelemetryCmdName(static_cast<TelemetryCmd>(c)) + "\"";
    AppendHistogramSeries(out, "lyra_svc_request_duration_seconds", labels, h);
  }

  AppendSingleHistogram(out, "lyra_svc_epoll_dispatch_lag_seconds",
                        "Delay from epoll_wait return to event dispatch.",
                        front.dispatch_lag[0]);
  AppendSingleHistogram(out, "lyra_svc_wake_batch_events",
                        "Ready epoll events handled per wakeup.",
                        front.wake_events[0]);
  AppendSingleHistogram(out, "lyra_svc_completion_batch",
                        "Engine completions delivered per mailbox drain.",
                        front.completion_batch[0]);

  // --- engine histograms: the fleet's merged series first (first-match
  // consumers see the fleet), then one series per engine ---
  const auto engine_histogram = [&](const char* family, const char* help,
                                    auto member) {
    AppendHeader(out, family, "histogram", help);
    obs::Histogram merged = (telemetry[0].*member)[0];
    for (std::size_t k = 1; k < n; ++k) {
      merged.Merge((telemetry[k].*member)[0]);
    }
    AppendHistogramSeries(out, family, "", merged);
    for (std::size_t k = 0; fleet && k < n; ++k) {
      AppendHistogramSeries(out, family, shard_label(k),
                            (telemetry[k].*member)[0]);
    }
  };
  engine_histogram("lyra_svc_engine_batch_apply_seconds",
                   "Engine time applying one command batch.",
                   &TelemetrySummary::engine_batch_apply);
  engine_histogram("lyra_svc_engine_snapshot_publish_seconds",
                   "Engine time publishing one read snapshot.",
                   &TelemetrySummary::engine_snapshot_publish);
  engine_histogram("lyra_svc_engine_batch_commands",
                   "Commands applied per engine batch.",
                   &TelemetrySummary::engine_batch_commands);

  // --- per-io-thread transport counters ---
  // The engine shard never touches a socket; exporting its always-zero
  // transport counters would only skew per-thread balance views.
  const auto is_io = [](const TelemetrySummary::ShardCounters& shard) {
    return shard.role.rfind("io", 0) == 0;
  };
  using Counters = TelemetrySummary::ShardCounters;
  const auto io_direction = [&](const char* family, const char* help,
                                auto in, auto out_member) {
    AppendHeader(out, family, "counter", help);
    for (const auto& shard : front.shards) {
      if (is_io(shard)) {
        const std::string thread = "thread=\"" + shard.role + "\",dir=";
        AppendCountSample(out, family, "", thread + "\"in\"", shard.*in);
        AppendCountSample(out, family, "", thread + "\"out\"", shard.*out_member);
      }
    }
  };
  io_direction("lyra_svc_io_bytes_total",
               "Bytes moved by each io thread, by direction.",
               &Counters::bytes_in, &Counters::bytes_out);
  io_direction("lyra_svc_io_frames_total",
               "Frames moved by each io thread, by direction.",
               &Counters::frames_in, &Counters::frames_out);
  AppendHeader(out, "lyra_svc_write_queue_bytes_peak", "gauge",
               "High-watermark of queued reply bytes per io thread.");
  for (const auto& shard : front.shards) {
    if (!is_io(shard)) {
      continue;
    }
    AppendCountSample(out, "lyra_svc_write_queue_bytes_peak", "",
                      "thread=\"" + shard.role + "\"",
                      shard.write_queue_peak);
  }
  // In a fleet every engine's own threads carry their engine's label.
  AppendHeader(out, "lyra_svc_flight_spans_total", "counter",
               "Flight-recorder spans recorded per telemetry shard.");
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& shard : telemetry[k].shards) {
      AppendCountSample(out, "lyra_svc_flight_spans_total", "",
                        "thread=\"" + shard.role + "\"" +
                            (fleet && !is_io(shard) ? "," + shard_label(k) : ""),
                        shard.spans_recorded);
    }
  }

  // --- service counters / gauges (Stats): fleet total, then per engine ---
  const auto stat_family = [&](const char* family, const char* type,
                               const char* help, auto member) {
    AppendHeader(out, family, type, help);
    AppendCountSample(out, family, "", "", total.*member);
    for (std::size_t k = 0; fleet && k < n; ++k) {
      AppendCountSample(out, family, "", shard_label(k), stats[k].*member);
    }
  };
  using Stats = SchedulerService::Stats;
  stat_family("lyra_svc_commands_applied_total", "counter",
              "Engine commands applied.", &Stats::commands_applied);
  stat_family("lyra_svc_jobs_submitted_total", "counter",
              "Jobs accepted via submit.", &Stats::jobs_submitted);
  stat_family("lyra_svc_jobs_cancelled_total", "counter",
              "Jobs cancelled via cancel.", &Stats::jobs_cancelled);
  stat_family("lyra_svc_rejected_overload_total", "counter",
              "Commands rejected or shed under backpressure.",
              &Stats::rejected_overload);
  stat_family("lyra_svc_command_errors_total", "counter",
              "Malformed or failed commands.", &Stats::command_errors);
  stat_family("lyra_svc_reads_served_total", "counter",
              "Read-only commands answered from the snapshot.",
              &Stats::reads_served);
  stat_family("lyra_svc_snapshots_published_total", "counter",
              "Read snapshots published by the engine.",
              &Stats::snapshots_published);
  stat_family("lyra_svc_queue_depth", "gauge", "Engine command queue depth.",
              &Stats::queue_depth);
  stat_family("lyra_svc_queue_peak", "gauge",
              "Engine command queue high-watermark.", &Stats::queue_peak);

  AppendHeader(out, "lyra_svc_uptime_seconds", "gauge",
               "Seconds since the service started.");
  AppendSample(out, "lyra_svc_uptime_seconds", "", "",
               front_service.UptimeSeconds());

  if (fleet) {
    AppendHeader(out, "lyra_svc_shards", "gauge",
                 "Engine shards behind this front end.");
    AppendCountSample(out, "lyra_svc_shards", "", "", n);
  }

  AppendHeader(out, "lyra_svc_info", "gauge",
               "Service identity; value is always 1.");
  {
    std::string labels = "scheduler=\"";
    labels += front_service.options().engine.scheduler;
    labels += "\",reclaim=\"";
    labels += front_service.options().engine.reclaim;
    labels += "\",driver=\"";
    labels += front_service.driver_name();
    labels += '"';
    AppendSample(out, "lyra_svc_info", "", labels, 1.0);
  }

  // --- engine gauges from the read snapshots: fleet total, then per
  // engine; the pools are totals only ---
  if (sum.version != 0) {
    const auto snapshot_family = [&](const char* family, const char* type,
                                     const char* help, auto member) {
      AppendHeader(out, family, type, help);
      const auto append = [&](const std::string& labels, auto value) {
        if constexpr (std::is_floating_point_v<decltype(value)>) {
          AppendSample(out, family, "", labels, value);
        } else {
          AppendCountSample(out, family, "", labels, value);
        }
      };
      append("", sum.*member);
      for (std::size_t k = 0; fleet && k < n; ++k) {
        if (snaps[k] != nullptr) {
          append(shard_label(k), (*snaps[k]).*member);
        }
      }
    };
    snapshot_family("lyra_engine_virtual_time_seconds", "gauge",
                    "Engine virtual-time frontier.", &StateSnapshot::time);
    snapshot_family("lyra_engine_events_processed_total", "counter",
                    "Discrete events processed by the engine.",
                    &StateSnapshot::events_processed);
    snapshot_family("lyra_engine_snapshot_version", "gauge",
                    "Monotone version of the published read snapshot.",
                    &StateSnapshot::version);
    AppendHeader(out, "lyra_engine_jobs", "gauge",
                 "Jobs known to the engine, by state.");
    const auto jobs = [&](const StateSnapshot& snap, const std::string& suffix) {
      for (std::size_t s = 0; s < kJobStateNames.size(); ++s) {
        AppendCountSample(out, "lyra_engine_jobs", "",
                          std::string("state=\"") + kJobStateNames[s] + "\"" +
                              suffix,
                          snap.state_counts[s]);
      }
    };
    jobs(sum, "");
    for (std::size_t k = 0; fleet && k < n; ++k) {
      if (snaps[k] != nullptr) {
        jobs(*snaps[k], "," + shard_label(k));
      }
    }
    AppendHeader(out, "lyra_engine_pool_servers", "gauge",
                 "Servers per cluster pool.");
    AppendPool(out, "training", sum.training);
    AppendPool(out, "on_loan", sum.on_loan);
    AppendPool(out, "inference", sum.inference);
    AppendHeader(out, "lyra_engine_pool_gpus", "gauge",
                 "GPUs per cluster pool, by kind (total/used/free).");
    AppendPoolGpus(out, "training", sum.training);
    AppendPoolGpus(out, "on_loan", sum.on_loan);
    AppendPoolGpus(out, "inference", sum.inference);
  }
  if (federation != nullptr) {
    AppendFederation(out, *federation, snaps);
  }
  return out;
}

const PromSample* PromScrape::Find(
    const std::string& name,
    const std::map<std::string, std::string>& labels) const {
  for (const PromSample& sample : samples) {
    if (sample.name != name) {
      continue;
    }
    bool match = true;
    for (const auto& [key, value] : labels) {
      const auto it = sample.labels.find(key);
      if (it == sample.labels.end() || it->second != value) {
        match = false;
        break;
      }
    }
    if (match) {
      return &sample;
    }
  }
  return nullptr;
}

double PromScrape::Value(const std::string& name,
                         const std::map<std::string, std::string>& labels,
                         double fallback) const {
  const PromSample* sample = Find(name, labels);
  return sample == nullptr ? fallback : sample->value;
}

namespace {

// Parses one `name{k="v",...} value` sample line. The renderer never emits
// escaped quotes inside label values, but accept `\"` anyway for robustness.
Status ParseSampleLine(const std::string& line, PromSample* sample) {
  std::size_t i = 0;
  while (i < line.size() && (std::isalnum(static_cast<unsigned char>(line[i])) ||
                             line[i] == '_' || line[i] == ':')) {
    ++i;
  }
  if (i == 0) {
    return Status::InvalidArgument("prom: sample line without a name: " + line);
  }
  sample->name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      std::size_t key_start = i;
      while (i < line.size() && line[i] != '=') {
        ++i;
      }
      if (i >= line.size()) {
        return Status::InvalidArgument("prom: unterminated label: " + line);
      }
      const std::string key = line.substr(key_start, i - key_start);
      ++i;  // '='
      if (i >= line.size() || line[i] != '"') {
        return Status::InvalidArgument("prom: label value not quoted: " + line);
      }
      ++i;  // opening quote
      std::string value;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
          ++i;
        }
        value.push_back(line[i]);
        ++i;
      }
      if (i >= line.size()) {
        return Status::InvalidArgument("prom: unterminated label value: " + line);
      }
      ++i;  // closing quote
      sample->labels[key] = std::move(value);
      if (i < line.size() && line[i] == ',') {
        ++i;
      }
    }
    if (i >= line.size()) {
      return Status::InvalidArgument("prom: unterminated label set: " + line);
    }
    ++i;  // '}'
  }
  while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  if (i >= line.size()) {
    return Status::InvalidArgument("prom: sample line without a value: " + line);
  }
  const std::string value_text = line.substr(i);
  if (value_text == "+Inf") {
    sample->value = std::numeric_limits<double>::infinity();
  } else if (value_text == "-Inf") {
    sample->value = -std::numeric_limits<double>::infinity();
  } else {
    char* end = nullptr;
    sample->value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str()) {
      return Status::InvalidArgument("prom: bad sample value: " + line);
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<PromScrape> ParsePrometheus(const std::string& text) {
  PromScrape scrape;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      // "# HELP <family> <text>" / "# TYPE <family> <type>"; other comments
      // are ignored.
      const bool is_help = line.rfind("# HELP ", 0) == 0;
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      if (!is_help && !is_type) {
        continue;
      }
      const std::size_t family_start = 7;
      const std::size_t family_end = line.find(' ', family_start);
      if (family_end == std::string::npos) {
        continue;
      }
      const std::string family =
          line.substr(family_start, family_end - family_start);
      const std::string rest = line.substr(family_end + 1);
      if (is_help) {
        scrape.helps[family] = rest;
      } else {
        scrape.types[family] = rest;
      }
      continue;
    }
    PromSample sample;
    const Status parsed = ParseSampleLine(line, &sample);
    if (!parsed.ok()) {
      return parsed;
    }
    scrape.samples.push_back(std::move(sample));
  }
  return scrape;
}

StatusOr<obs::Histogram> ExtractHistogram(
    const PromScrape& scrape, const std::string& family,
    const std::map<std::string, std::string>& labels) {
  // Buckets arrive in ascending-le order (+Inf last) from any conforming
  // exposition; sortedness is re-checked by the Histogram constructor.
  std::vector<double> bounds;
  std::vector<std::uint64_t> cumulative;
  bool have_inf = false;
  std::uint64_t inf_count = 0;
  const std::string bucket_name = family + "_bucket";
  for (const PromSample& sample : scrape.samples) {
    if (sample.name != bucket_name) {
      continue;
    }
    bool match = true;
    for (const auto& [key, value] : labels) {
      const auto it = sample.labels.find(key);
      if (it == sample.labels.end() || it->second != value) {
        match = false;
        break;
      }
    }
    if (!match) {
      continue;
    }
    const auto le = sample.labels.find("le");
    if (le == sample.labels.end()) {
      continue;
    }
    const auto count = static_cast<std::uint64_t>(sample.value);
    if (le->second == "+Inf") {
      have_inf = true;
      inf_count = count;
    } else {
      bounds.push_back(std::strtod(le->second.c_str(), nullptr));
      cumulative.push_back(count);
    }
  }
  if (bounds.empty() || !have_inf) {
    return Status::NotFound("prom: no histogram for family " + family);
  }
  cumulative.push_back(inf_count);
  std::vector<std::uint64_t> counts(cumulative.size());
  std::uint64_t previous = 0;
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    counts[i] = cumulative[i] >= previous ? cumulative[i] - previous : 0;
    previous = cumulative[i];
  }
  const double sum = scrape.Value(family + "_sum", labels, 0.0);
  return obs::Histogram(std::move(bounds), std::move(counts), sum);
}

}  // namespace lyra::svc
