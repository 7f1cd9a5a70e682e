// Saturation bench for the service fast path (DESIGN.md §8): offered-load vs
// accepted-throughput and latency percentiles for the epoll front end +
// batched single-writer engine.
//
// Each rate point gets a fresh in-process engine fleet + EventLoop on a
// private Unix socket, driven by the open-loop client from
// src/svc/loadclient.h. A fresh daemon per point keeps the curve a function
// of offered load alone — a long-lived engine accumulates jobs across points
// and its submit path slows with registry size, which would make later
// points measure state size instead of the front end.
//
// Writes a "svc_saturation" section (peak point + full sweep) into
// BENCH_perf.json (path from LYRA_BENCH_PERF_JSON, =0 disables), preserving
// every other section in the file.
//
//   bench_svc_saturation [--rates=20000,100000,400000] [--duration=2]
//                        [--connections=1] [--io-threads=2] [--shards=1]
//                        [--shard-sweep=1,2,4,8] [--shard-rate=400000]
//                        [--federation-sweep=1x1,2x2] [--federation-rate=400000]
//
// --shard-sweep additionally runs one saturating point per engine-shard
// count (--shard-rate offered) and records the scaling curve under
// "shard_sweep" in the same section; each entry carries its "shards" count.
// Engine sharding only buys throughput when shards run on distinct cores —
// on a single-core host the sweep documents the overhead floor instead.
// --federation-sweep does the same per federation spec (one fresh federated
// daemon per point, untargeted submits landing on the training side) and
// records the curve under "federation_sweep" with each entry's spec string.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/loadclient.h"
#include "src/svc/service.h"
#include "src/svc/shard_router.h"
#include "src/svc/time_driver.h"

namespace {

void MergeReport(const std::string& path, const lyra::JsonValue& section) {
  lyra::JsonValue report = lyra::JsonValue::MakeObject();
  std::ifstream in(path);
  if (in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    lyra::StatusOr<lyra::JsonValue> existing =
        lyra::JsonValue::Parse(buffer.str());
    if (existing.ok() && existing.value().is_object()) {
      for (const auto& [key, value] : existing.value().AsObject()) {
        if (key != "svc_saturation") {
          report.Set(key, value);
        }
      }
    }
  }
  report.Set("svc_saturation", section);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_svc_saturation: cannot write %s\n", path.c_str());
    return;
  }
  out << report.Dump() << "\n";
}

// One offered-rate point against a brand-new daemon: a fresh fleet built
// from `spec` (ParseFederationSpec) behind a fresh event loop. "0x1@N" is a
// one-cluster fleet of N engines ("0x1@1" the classic single-engine path);
// a multi-cluster spec measures the federated routing path end to end, with
// untargeted submits defaulting to the training side.
lyra::StatusOr<lyra::svc::LoadPoint> RunPoint(double rate, double duration,
                                              int connections, int io_threads,
                                              const std::string& spec,
                                              const std::string& payload) {
  lyra::StatusOr<std::vector<lyra::svc::ClusterSpec>> clusters =
      lyra::svc::ParseFederationSpec(spec);
  if (!clusters.ok()) {
    return clusters.status();
  }
  lyra::svc::ServiceOptions service_options;
  service_options.engine.scale = 0.05;
  service_options.auto_advance = false;
  service_options.queue_capacity = 8192;

  lyra::StatusOr<lyra::svc::ShardSet> built = lyra::svc::BuildShardSet(
      service_options, clusters.value(), [](int) {
        return std::make_unique<lyra::svc::VirtualTimeDriver>();
      });
  if (!built.ok()) {
    return built.status();
  }
  lyra::svc::ShardSet fleet = std::move(built.value());

  lyra::svc::EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_bench_sat_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = io_threads;
  lyra::svc::EventLoop loop(fleet.router.get(), loop_options);
  const lyra::Status started = loop.Start();
  if (!started.ok()) {
    for (auto& service : fleet.services) {
      service->Stop();
    }
    return started;
  }

  lyra::svc::LoadClientOptions client;
  client.unix_path = loop_options.unix_path;
  client.connections = connections;
  client.rate = rate;
  client.duration_s = duration;
  client.payload = payload;
  // Server-side histogram scrape per point: the client-vs-server p99
  // cross-check lands in the sweep artifact next to the client percentiles.
  client.scrape_server = true;
  lyra::StatusOr<lyra::svc::LoadPoint> point = lyra::svc::RunOpenLoop(client);

  for (auto& service : fleet.services) {
    service->Stop();
  }
  loop.Stop();
  return point;
}

std::string FleetSpec(int engines) { return "0x1@" + std::to_string(engines); }

}  // namespace

int main(int argc, char** argv) {
  std::string rates_csv = "20000,50000,100000,200000,400000";
  std::string shard_sweep_csv;
  std::string federation_sweep_csv;
  double duration = 2.0;
  double shard_rate = 400000.0;
  double federation_rate = 400000.0;
  int connections = 1;
  int io_threads = 2;
  int shards = 1;

  lyra::FlagSet flags("bench_svc_saturation: offered-load sweep against a "
                      "fresh in-process daemon per point");
  flags.AddString("rates", &rates_csv, "comma-separated offered rates");
  flags.AddDouble("duration", &duration, "send window per point (seconds)");
  flags.AddInt("connections", &connections, "client connections per point");
  flags.AddInt("io-threads", &io_threads, "event-loop I/O threads");
  flags.AddInt("shards", &shards, "engine shards for the rate sweep");
  flags.AddString("shard-sweep", &shard_sweep_csv,
                  "comma-separated shard counts for a scaling sweep "
                  "(one saturating point per count)");
  flags.AddDouble("shard-rate", &shard_rate,
                  "offered rate for every shard-sweep point");
  flags.AddString("federation-sweep", &federation_sweep_csv,
                  "comma-separated --federation specs (e.g. 1x1,2x2) for a "
                  "federated-topology sweep (one saturating point per spec)");
  flags.AddDouble("federation-rate", &federation_rate,
                  "offered rate for every federation-sweep point");
  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.message().c_str(),
                 flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }

  std::vector<double> rates;
  std::stringstream parts(rates_csv);
  std::string part;
  while (std::getline(parts, part, ',')) {
    const double value = std::atof(part.c_str());
    if (value > 0.0) {
      rates.push_back(value);
    }
  }
  if (rates.empty()) {
    std::fprintf(stderr, "bench_svc_saturation: no valid rates\n");
    return 1;
  }

  lyra::JsonValue request = lyra::JsonValue::MakeObject();
  request.Set("cmd", lyra::JsonValue::MakeString("submit"));
  request.Set("gpus_per_worker", lyra::JsonValue::MakeNumber(1));
  request.Set("min_workers", lyra::JsonValue::MakeNumber(1));
  request.Set("max_workers", lyra::JsonValue::MakeNumber(1));
  request.Set("total_work", lyra::JsonValue::MakeNumber(3600.0));
  request.Set("fungible", lyra::JsonValue::MakeBool(true));
  const std::string payload = request.Dump();

  std::printf("svc saturation sweep: %d connection(s), %d io thread(s), "
              "%d shard(s), %.1fs per point, fresh daemon per point\n",
              connections, io_threads, shards, duration);
  std::vector<lyra::svc::LoadPoint> points;
  std::uint64_t errors = 0;
  for (const double rate : rates) {
    lyra::StatusOr<lyra::svc::LoadPoint> run =
        RunPoint(rate, duration, connections, io_threads, FleetSpec(shards),
                 payload);
    if (!run.ok()) {
      std::fprintf(stderr, "bench_svc_saturation: %s\n",
                   run.status().message().c_str());
      return 1;
    }
    const lyra::svc::LoadPoint& point = run.value();
    errors += point.errors;
    std::printf("  rate %8.0f/s -> accepted %8.0f/s  p50=%.3fms p99=%.3fms "
                "p999=%.3fms (ok=%llu overloaded=%llu errors=%llu)\n",
                point.offered_rate, point.accepted_per_s, point.p50_ms,
                point.p99_ms, point.p999_ms,
                static_cast<unsigned long long>(point.ok),
                static_cast<unsigned long long>(point.overloaded),
                static_cast<unsigned long long>(point.errors));
    if (point.server_samples > 0) {
      std::printf("    server-side: p50=%.3fms p99=%.3fms p999=%.3fms "
                  "(n=%llu, decode->reply-queued)\n",
                  point.server_p50_ms, point.server_p99_ms,
                  point.server_p999_ms,
                  static_cast<unsigned long long>(point.server_samples));
    }
    points.push_back(point);
  }

  std::size_t best = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].accepted_per_s > points[best].accepted_per_s) {
      best = i;
    }
  }
  std::printf("peak: %.0f submits/s accepted at offered %.0f/s\n",
              points[best].accepted_per_s, points[best].offered_rate);

  // Shard-count scaling sweep: one saturating point per engine count, same
  // client and front end throughout, so the only variable is how many
  // single-writer engines share the applied-command work.
  std::vector<int> shard_counts;
  {
    std::stringstream shard_parts(shard_sweep_csv);
    std::string shard_part;
    while (std::getline(shard_parts, shard_part, ',')) {
      const int value = std::atoi(shard_part.c_str());
      if (value > 0) {
        shard_counts.push_back(value);
      }
    }
  }
  std::vector<std::pair<int, lyra::svc::LoadPoint>> shard_points;
  if (!shard_counts.empty()) {
    std::printf("shard scaling sweep at offered %.0f/s:\n", shard_rate);
    for (const int count : shard_counts) {
      lyra::StatusOr<lyra::svc::LoadPoint> run =
          RunPoint(shard_rate, duration, connections, io_threads,
                   FleetSpec(count), payload);
      if (!run.ok()) {
        std::fprintf(stderr, "bench_svc_saturation: %s\n",
                     run.status().message().c_str());
        return 1;
      }
      const lyra::svc::LoadPoint& point = run.value();
      errors += point.errors;
      std::printf("  shards %2d -> accepted %8.0f/s  p50=%.3fms p99=%.3fms "
                  "corrected_p99=%.3fms backlog_max=%llu\n",
                  count, point.accepted_per_s, point.p50_ms, point.p99_ms,
                  point.corrected_p99_ms,
                  static_cast<unsigned long long>(point.backlog_max));
      shard_points.emplace_back(count, point);
    }
  }

  // Federation-topology sweep: one saturating point per federation spec —
  // the cost of the cluster-routing layer as the fleet grows.
  std::vector<std::string> federation_specs;
  {
    std::stringstream fed_parts(federation_sweep_csv);
    std::string fed_part;
    while (std::getline(fed_parts, fed_part, ',')) {
      if (!fed_part.empty()) {
        federation_specs.push_back(fed_part);
      }
    }
  }
  std::vector<std::pair<std::string, lyra::svc::LoadPoint>> federation_points;
  if (!federation_specs.empty()) {
    std::printf("federation scaling sweep at offered %.0f/s:\n",
                federation_rate);
    for (const std::string& spec : federation_specs) {
      lyra::StatusOr<lyra::svc::LoadPoint> run = RunPoint(
          federation_rate, duration, connections, io_threads, spec, payload);
      if (!run.ok()) {
        std::fprintf(stderr, "bench_svc_saturation: federation %s: %s\n",
                     spec.c_str(), run.status().message().c_str());
        return 1;
      }
      const lyra::svc::LoadPoint& point = run.value();
      errors += point.errors;
      std::printf("  federation %-8s -> accepted %8.0f/s  p50=%.3fms "
                  "p99=%.3fms corrected_p99=%.3fms\n",
                  spec.c_str(), point.accepted_per_s, point.p50_ms,
                  point.p99_ms, point.corrected_p99_ms);
      federation_points.emplace_back(spec, point);
    }
  }

  const char* report_env = std::getenv("LYRA_BENCH_PERF_JSON");
  const std::string report_path =
      report_env != nullptr ? report_env : "BENCH_perf.json";
  if (report_path != "0") {
    lyra::JsonValue section = lyra::svc::LoadPointJson(points[best]);
    lyra::JsonValue curve = lyra::JsonValue::MakeArray();
    for (const lyra::svc::LoadPoint& point : points) {
      curve.Append(lyra::svc::LoadPointJson(point));
    }
    section.Set("sweep", std::move(curve));
    if (!shard_points.empty()) {
      lyra::JsonValue scaling = lyra::JsonValue::MakeArray();
      for (const auto& [count, point] : shard_points) {
        lyra::JsonValue entry = lyra::svc::LoadPointJson(point);
        entry.Set("shards", lyra::JsonValue::MakeNumber(count));
        scaling.Append(std::move(entry));
      }
      section.Set("shard_sweep", std::move(scaling));
    }
    if (!federation_points.empty()) {
      lyra::JsonValue scaling = lyra::JsonValue::MakeArray();
      for (const auto& [spec, point] : federation_points) {
        lyra::JsonValue entry = lyra::svc::LoadPointJson(point);
        entry.Set("federation", lyra::JsonValue::MakeString(spec));
        scaling.Append(std::move(entry));
      }
      section.Set("federation_sweep", std::move(scaling));
    }
    MergeReport(report_path, section);
    std::printf("merged svc_saturation section into %s\n", report_path.c_str());
  }
  return errors == 0 ? 0 : 2;
}
