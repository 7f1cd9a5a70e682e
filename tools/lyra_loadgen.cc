// lyra_loadgen: open-loop load generator for lyra_schedd.
//
// Drives the daemon over its Unix socket (or TCP with --tcp=<host:port>)
// with paced, batched, pipelined submit frames — the open-loop client in
// src/svc/loadclient.h. Reports submit throughput and latency percentiles
// (p50/p90/p99/p999) on two bases — achieved (from the actual wire instant)
// and coordinated-omission-corrected (from each frame's intended send time,
// charging sender stalls back to the server) — plus the per-connection
// in-flight high-watermark (backlog_max). Counts `overloaded` backpressure
// rejections separately from errors, and can merge the summary into the
// repo's BENCH_perf.json under a "lyra_loadgen" key. It offers one rate
// against a running daemon; the offered-load curve comes from
// bench_svc_saturation --rates, which starts a fresh daemon per point.
//
//   lyra_loadgen --socket=/tmp/lyra.sock --rate=20000 --duration=5
//       --connections=4 --report=BENCH_perf.json
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/flags.h"
#include "src/common/json.h"
#include "src/svc/loadclient.h"

namespace {

// Merges `section` into the JSON report at `path` under the "lyra_loadgen"
// key, preserving every other key (and replacing a previous loadgen section).
void MergeReport(const std::string& path, const lyra::JsonValue& section) {
  lyra::JsonValue report = lyra::JsonValue::MakeObject();
  std::ifstream in(path);
  if (in) {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    lyra::StatusOr<lyra::JsonValue> existing = lyra::JsonValue::Parse(buffer.str());
    if (existing.ok() && existing.value().is_object()) {
      for (const auto& [key, value] : existing.value().AsObject()) {
        if (key != "lyra_loadgen") {
          report.Set(key, value);
        }
      }
    }
  }
  report.Set("lyra_loadgen", section);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "lyra_loadgen: cannot write %s\n", path.c_str());
    return;
  }
  out << report.Dump() << "\n";
}

void PrintPoint(const lyra::svc::LoadPoint& point) {
  std::printf("  rate %8.0f/s -> accepted %8.0f/s  "
              "(sent=%llu ok=%llu overloaded=%llu errors=%llu)\n",
              point.offered_rate, point.accepted_per_s,
              static_cast<unsigned long long>(point.sent),
              static_cast<unsigned long long>(point.ok),
              static_cast<unsigned long long>(point.overloaded),
              static_cast<unsigned long long>(point.errors));
  std::printf("    latency ms: p50=%.3f p90=%.3f p99=%.3f p999=%.3f max=%.3f "
              "(n=%llu)\n",
              point.p50_ms, point.p90_ms, point.p99_ms, point.p999_ms,
              point.max_ms, static_cast<unsigned long long>(point.samples));
  std::printf("    corrected ms: p50=%.3f p90=%.3f p99=%.3f p999=%.3f "
              "max=%.3f (intended-send basis; backlog_max=%llu)\n",
              point.corrected_p50_ms, point.corrected_p90_ms,
              point.corrected_p99_ms, point.corrected_p999_ms,
              point.corrected_max_ms,
              static_cast<unsigned long long>(point.backlog_max));
  if (point.server_samples > 0) {
    std::printf("    server  ms: p50=%.3f p90=%.3f p99=%.3f p999=%.3f (n=%llu, "
                "decode->reply-queued)\n",
                point.server_p50_ms, point.server_p90_ms, point.server_p99_ms,
                point.server_p999_ms,
                static_cast<unsigned long long>(point.server_samples));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path = "/tmp/lyra_schedd.sock";
  std::string tcp;
  std::string report_path;
  double rate = 20000.0;
  double duration = 5.0;
  int connections = 4;
  int gpus_per_worker = 1;
  bool server_stats = true;

  lyra::FlagSet flags(
      "lyra_loadgen: open-loop submit load against lyra_schedd");
  flags.AddString("socket", &socket_path, "daemon Unix socket path");
  flags.AddString("tcp", &tcp, "daemon TCP endpoint host:port (overrides --socket)");
  flags.AddDouble("rate", &rate, "aggregate submit rate (submits/sec)");
  flags.AddDouble("duration", &duration, "send window in wall seconds");
  flags.AddInt("connections", &connections, "parallel connections");
  flags.AddInt("gpus-per-worker", &gpus_per_worker, "GPUs per submitted worker");
  flags.AddString("report", &report_path,
                  "merge a lyra_loadgen section into this BENCH_perf.json");
  flags.AddBool("server-stats", &server_stats,
                "scrape the daemon's stats_prom histograms before/after each "
                "run (server-side percentiles next to the client's)");

  const lyra::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.message().c_str(), flags.Usage().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }

  lyra::JsonValue request = lyra::JsonValue::MakeObject();
  request.Set("cmd", lyra::JsonValue::MakeString("submit"));
  request.Set("gpus_per_worker", lyra::JsonValue::MakeNumber(gpus_per_worker));
  request.Set("min_workers", lyra::JsonValue::MakeNumber(1));
  request.Set("max_workers", lyra::JsonValue::MakeNumber(1));
  request.Set("total_work", lyra::JsonValue::MakeNumber(3600.0));
  request.Set("fungible", lyra::JsonValue::MakeBool(true));

  lyra::svc::LoadClientOptions options;
  if (!tcp.empty()) {
    const std::size_t colon = tcp.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "lyra_loadgen: --tcp wants host:port, got %s\n",
                   tcp.c_str());
      return 1;
    }
    options.tcp_host = tcp.substr(0, colon);
    options.tcp_port = std::atoi(tcp.c_str() + colon + 1);
  } else {
    options.unix_path = socket_path;
  }
  options.connections = connections;
  options.duration_s = duration;
  options.payload = request.Dump();
  options.scrape_server = server_stats;
  options.rate = rate;

  const lyra::StatusOr<lyra::svc::LoadPoint> run = lyra::svc::RunOpenLoop(options);
  if (!run.ok()) {
    std::fprintf(stderr, "lyra_loadgen: %s\n", run.status().message().c_str());
    return 1;
  }
  const lyra::svc::LoadPoint& point = run.value();
  PrintPoint(point);
  if (!report_path.empty()) {
    MergeReport(report_path, lyra::svc::LoadPointJson(point));
    std::printf("  merged lyra_loadgen section into %s\n", report_path.c_str());
  }

  // Errors are failures; overloaded replies are the backpressure working.
  return point.errors == 0 ? 0 : 2;
}
