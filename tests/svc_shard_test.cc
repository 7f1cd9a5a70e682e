// Engine-sharding tests (DESIGN.md §10): deterministic routing (same key /
// same job id always lands on the same shard, every id an engine hands out
// names that engine, hostile ids answer before any cast), merged reads (cluster_stats across shards equals the sum of
// the per-shard snapshots), the LYRASHRD multi-snapshot container (round
// trip, one-shard degradation to plain LYRASNAP, corruption defenses), a
// randomized kill-and-warm-restart at --shards=4 that must reproduce every
// shard's decision log byte-for-byte, and pipelined reply ordering over the
// sharded event loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/svc/event_loop.h"
#include "src/svc/service.h"
#include "src/svc/shard_router.h"
#include "src/svc/snapshot.h"
#include "src/svc/state_snapshot.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"

namespace lyra::svc {
namespace {

constexpr int kShards = 4;

std::string TempPath(const char* tag) {
  return "/tmp/lyra_shard_test_" + std::to_string(::getpid()) + "_" + tag;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

JsonValue Cmd(const char* cmd) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("cmd", JsonValue::MakeString(cmd));
  return request;
}

JsonValue Submit(double at, double work, int max_workers = 1,
                 const char* key = nullptr) {
  JsonValue cmd = Cmd("submit");
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("gpus_per_worker", JsonValue::MakeNumber(1));
  cmd.Set("min_workers", JsonValue::MakeNumber(1));
  cmd.Set("max_workers", JsonValue::MakeNumber(max_workers));
  cmd.Set("total_work", JsonValue::MakeNumber(work));
  cmd.Set("fungible", JsonValue::MakeBool(true));
  if (key != nullptr) {
    cmd.Set("key", JsonValue::MakeString(key));
  }
  return cmd;
}

JsonValue Cancel(double at, std::int64_t job) {
  JsonValue cmd = Cmd("cancel");
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  return cmd;
}

JsonValue Advance(double to) {
  JsonValue cmd = Cmd("advance");
  cmd.Set("to", JsonValue::MakeNumber(to));
  return cmd;
}

ServiceOptions FleetOptions() {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.engine.faults = true;  // crashes/storms must replay exactly too
  options.engine.seed = 1234;
  options.auto_advance = false;
  return options;
}

std::unique_ptr<TimeDriver> MakeVirtualDriver(int /*shard*/) {
  return std::make_unique<VirtualTimeDriver>();
}

// A shard fleet is one training cluster of `shards` engines.
std::vector<ClusterSpec> OneCluster(int shards) {
  return ParseFederationSpec("0x1@" + std::to_string(shards)).value();
}

ShardSet BuildFleet(int shards) {
  StatusOr<ShardSet> built = BuildShardSet(FleetOptions(), OneCluster(shards),
                                           MakeVirtualDriver);
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built.value());
}

void StopFleet(ShardSet& fleet) {
  for (auto& service : fleet.services) {
    service->Stop();
  }
}

// Mirror of the router's keyless routing: FNV-1a over the submit sequence
// number's 8 little-endian bytes. Recomputed here so the tests predict the
// shard (and therefore the global job id) of every scripted submit without
// asking the router — an independent check that routing is a pure function
// of (key | sequence), not of timing.
std::uint32_t PredictKeylessShard(std::uint64_t seq, int shards) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((seq >> (8 * i)) & 0xff);
  }
  return static_cast<std::uint32_t>(
      ShardRouter::Hash(bytes, sizeof(bytes)) %
      static_cast<std::uint64_t>(shards));
}

std::uint32_t PredictKeyShard(const std::string& key, int shards) {
  return static_cast<std::uint32_t>(
      ShardRouter::Hash(key.data(), key.size()) %
      static_cast<std::uint64_t>(shards));
}

// A deterministic fleet script plus, for every submit, the global job id the
// router must hand back (computed from the mirrored routing above and the
// per-shard local counters). Cancels target ids issued earlier in the
// script, so they exercise the id-to-shard route on real jobs.
struct FleetScript {
  std::vector<JsonValue> commands;
  std::vector<std::int64_t> expected_job;  // -1 for non-submit commands
};

FleetScript MakeFleetScript(int shards) {
  FleetScript script;
  std::uint64_t seq = 0;
  std::vector<std::int64_t> local(static_cast<std::size_t>(shards), 0);
  std::vector<std::int64_t> issued;

  const auto submit = [&](double at, double work, int max_workers,
                          const char* key) {
    const std::uint32_t shard =
        key != nullptr ? PredictKeyShard(key, shards)
                       : PredictKeylessShard(seq++, shards);
    const std::int64_t id = local[shard]++ * shards + shard;
    issued.push_back(id);
    script.commands.push_back(Submit(at, work, max_workers, key));
    script.expected_job.push_back(id);
  };
  const auto other = [&](JsonValue cmd) {
    script.commands.push_back(std::move(cmd));
    script.expected_job.push_back(-1);
  };

  submit(0.0, 50000.0, 4, nullptr);
  submit(0.0, 200000.0, 1, "tenant-a");
  submit(600.0, 7200.0, 1, nullptr);
  submit(600.0, 120000.0, 2, "tenant-b");
  other(Advance(3000.0));
  other(Cancel(3600.0, issued[1]));
  submit(5000.0, 100000.0, 2, nullptr);
  submit(5000.0, 90000.0, 1, nullptr);
  other(Advance(20000.0));
  submit(30000.0, 40000.0, 8, "tenant-a");
  other(Cancel(40000.0, issued[3]));
  submit(41000.0, 60000.0, 2, nullptr);
  other(Cmd("drain"));
  return script;
}

// Per-shard terminal state of a fleet run; the unit of byte-for-byte
// comparison between an uninterrupted run and a kill-and-restore run.
struct FleetOutcome {
  std::vector<std::vector<DecisionRecord>> decisions;
  std::vector<std::uint64_t> fault_hashes;
  std::vector<double> final_times;
};

FleetOutcome CollectOutcome(const ShardSet& fleet) {
  FleetOutcome outcome;
  for (const auto& service : fleet.services) {
    outcome.decisions.push_back(service->simulator().decision_log().records());
    const FaultInjector* faults = service->simulator().fault_injector();
    outcome.fault_hashes.push_back(faults != nullptr ? faults->log_hash() : 0);
    outcome.final_times.push_back(service->simulator().now());
  }
  return outcome;
}

// Applies script[0..n) through the router on a fresh kShards fleet,
// snapshotting after `cut` commands into `snapshot_path` (when cut >= 0) and
// stopping there — the "kill". Submit replies are checked against the
// predicted global ids along the way.
FleetOutcome RunFleetScript(const FleetScript& script, int cut,
                            const std::string& snapshot_path) {
  ShardSet fleet = BuildFleet(kShards);
  ShardRouter& router = *fleet.router;
  for (std::size_t i = 0; i < script.commands.size(); ++i) {
    if (cut >= 0 && static_cast<std::size_t>(cut) == i) {
      JsonValue snap = Cmd("snapshot");
      snap.Set("path", JsonValue::MakeString(snapshot_path));
      const JsonValue reply = router.Execute(snap);
      EXPECT_TRUE(reply.GetBool("ok")) << reply.Dump();
      EXPECT_EQ(reply.GetDouble("shards", 0.0), kShards);
      StopFleet(fleet);
      return CollectOutcome(fleet);
    }
    const JsonValue reply = router.Execute(script.commands[i]);
    if (script.expected_job[i] >= 0) {
      EXPECT_TRUE(reply.GetBool("ok")) << "cmd " << i << ": " << reply.Dump();
      EXPECT_EQ(reply.GetDouble("job", -1.0),
                static_cast<double>(script.expected_job[i]))
          << "cmd " << i << " routed off-script: " << reply.Dump();
    }
  }
  StopFleet(fleet);
  return CollectOutcome(fleet);
}

// Restores a fleet from `snapshot_path` and applies script[cut..n). The base
// options are deliberately wrong — each shard's persisted EngineConfig must
// win, and the restored submit counter must route the remaining keyless
// submits to the same shards (checked via the predicted ids).
FleetOutcome ResumeFleetScript(const FleetScript& script, int cut,
                               const std::string& snapshot_path) {
  ServiceOptions options = FleetOptions();
  options.engine.scheduler = "fifo";
  options.engine.seed = 1;
  options.engine.faults = false;
  StatusOr<ShardSet> restored =
      RestoreShardSet(options, snapshot_path, MakeVirtualDriver);
  EXPECT_TRUE(restored.ok()) << restored.status().message();
  ShardSet fleet = std::move(restored.value());
  ShardRouter& router = *fleet.router;
  EXPECT_EQ(router.shard_count(), kShards);
  for (int k = 0; k < kShards; ++k) {
    EXPECT_EQ(router.shard(k)->options().engine.scheduler, "lyra");
    EXPECT_EQ(router.shard(k)->options().engine.seed,
              1234u + static_cast<std::uint64_t>(k));
  }
  for (std::size_t i = static_cast<std::size_t>(cut);
       i < script.commands.size(); ++i) {
    const JsonValue reply = router.Execute(script.commands[i]);
    if (script.expected_job[i] >= 0) {
      EXPECT_TRUE(reply.GetBool("ok")) << "cmd " << i << ": " << reply.Dump();
      EXPECT_EQ(reply.GetDouble("job", -1.0),
                static_cast<double>(script.expected_job[i]))
          << "restored routing diverged at cmd " << i << ": " << reply.Dump();
    }
  }
  StopFleet(fleet);
  return CollectOutcome(fleet);
}

// Each engine owns its job ids: every id engine k of N hands out satisfies
// id mod N == k, and query_job and cancel through the router on that id
// reach that very job (told apart by its submit time).
TEST(Shard, JobIdArithmeticRoundTripsAndEncodesTheShard) {
  ShardSet fleet = BuildFleet(kShards);
  ShardRouter& router = *fleet.router;
  for (int k = 0; k < kShards; ++k) {
    for (int i = 0; i < 5; ++i) {
      const double at = 100.0 * k + i;
      const JsonValue submitted = fleet.services[k]->Execute(Submit(at, 90000.0));
      ASSERT_TRUE(submitted.GetBool("ok")) << submitted.Dump();
      const std::int64_t id =
          static_cast<std::int64_t>(submitted.GetDouble("job", -1.0));
      EXPECT_EQ(id % kShards, k) << "engine " << k << " handed out " << id;
      EXPECT_EQ(id / kShards, i) << "engine " << k << " handed out " << id;
      JsonValue query = Cmd("query_job");
      query.Set("job", JsonValue::MakeNumber(static_cast<double>(id)));
      JsonValue queried = router.Execute(query);
      ASSERT_TRUE(queried.GetBool("ok")) << queried.Dump();
      EXPECT_EQ(queried.GetDouble("job", -1.0), static_cast<double>(id));
      EXPECT_EQ(queried.GetDouble("submit_time", -1.0), at) << queried.Dump();
      if (i % 2 == 1) {
        const JsonValue cancelled = router.Execute(Cancel(at, id));
        ASSERT_TRUE(cancelled.GetBool("ok")) << cancelled.Dump();
        EXPECT_EQ(cancelled.GetDouble("job", -1.0), static_cast<double>(id));
        queried = router.Execute(query);
        EXPECT_EQ(queried.GetString("state"), "cancelled") << queried.Dump();
        EXPECT_EQ(queried.GetDouble("submit_time", -1.0), at) << queried.Dump();
      }
    }
  }
  // The hash is a pure function: the same bytes always route the same way.
  const std::string key = "tenant-a";
  const std::uint64_t h = ShardRouter::Hash(key.data(), key.size());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ShardRouter::Hash(key.data(), key.size()), h);
  }
  StopFleet(fleet);
}

TEST(Shard, SameKeyAlwaysLandsOnTheSameShard) {
  ShardSet fleet = BuildFleet(kShards);
  ShardRouter& router = *fleet.router;
  const std::uint32_t expected = PredictKeyShard("tenant-a", kShards);
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const JsonValue reply =
        router.Execute(Submit(0.0, 36000.0, 1, "tenant-a"));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    ids.push_back(reply.AsObject().empty()
                      ? -1
                      : static_cast<std::int64_t>(reply.GetDouble("job", -1)));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_GE(ids[i], 0);
    // Same key -> same shard: every global id carries the same residue.
    EXPECT_EQ(JobIdSpace::Owner(ids[i], kShards), expected) << "id " << ids[i];
    // And on that shard, local ids are the engine's plain sequence.
    EXPECT_EQ(ids[i] / kShards, static_cast<std::int64_t>(i));
  }
  // A query or cancel for any of those ids routes by the id alone and finds
  // the job — the id is the route.
  for (const std::int64_t id : ids) {
    JsonValue query = Cmd("query_job");
    query.Set("job", JsonValue::MakeNumber(static_cast<double>(id)));
    const JsonValue reply = router.Execute(query);
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    EXPECT_EQ(reply.GetDouble("job", -1.0), static_cast<double>(id));
  }
  const JsonValue cancelled = router.Execute(Cancel(10.0, ids[2]));
  EXPECT_TRUE(cancelled.GetBool("ok")) << cancelled.Dump();
  // A job that was never issued reports its *global* id in the error.
  const std::int64_t missing = 9999 * kShards + expected;
  const JsonValue not_found = router.Execute(Cancel(10.0, missing));
  EXPECT_FALSE(not_found.GetBool("ok"));
  const std::string message = not_found.GetString("error");
  EXPECT_NE(message.find(std::to_string(missing)), std::string::npos)
      << message;
  StopFleet(fleet);
}

TEST(Shard, KeylessSubmitsFollowTheRoutingCounter) {
  ShardSet fleet = BuildFleet(kShards);
  ShardRouter& router = *fleet.router;
  std::vector<std::int64_t> local(kShards, 0);
  std::set<std::int64_t> seen;
  for (std::uint64_t seq = 0; seq < 24; ++seq) {
    const std::uint32_t shard = PredictKeylessShard(seq, kShards);
    const std::int64_t expected = local[shard]++ * kShards + shard;
    const JsonValue reply = router.Execute(Submit(0.0, 36000.0));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    EXPECT_EQ(reply.GetDouble("job", -1.0), static_cast<double>(expected))
        << "seq " << seq;
    EXPECT_TRUE(seen.insert(expected).second) << "global id collided";
  }
  EXPECT_EQ(router.submit_seq(), 24u);
  StopFleet(fleet);
}

TEST(Shard, ClusterStatsMergeEqualsSumOfPerShardSnapshots) {
  ShardSet fleet = BuildFleet(kShards);
  ShardRouter& router = *fleet.router;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(router.Execute(Submit(0.0, 90000.0, 2)).GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(7200.0)).GetBool("ok"));

  const JsonValue merged = router.Execute(Cmd("cluster_stats"));
  ASSERT_TRUE(merged.GetBool("ok")) << merged.Dump();

  // Rebuild the per-shard replies from the published snapshots and check
  // that every numeric the merge claims is the exact sum (job counters and
  // capacity pools alike — a shard fleet reports fleet-wide capacity).
  std::vector<JsonValue> parts;
  double max_time = 0.0;
  for (int k = 0; k < kShards; ++k) {
    const std::shared_ptr<const StateSnapshot> snap =
        router.shard(k)->snapshot();
    ASSERT_NE(snap, nullptr);
    parts.push_back(SnapshotClusterStatsReply(*snap));
    max_time = std::max(max_time, snap->time);
  }
  const auto sum_of = [&parts](const char* section, const std::string& key) {
    double total = 0.0;
    for (const JsonValue& part : parts) {
      const JsonValue* obj = part.Find(section);
      total += obj != nullptr ? obj->GetDouble(key) : 0.0;
    }
    return total;
  };
  const JsonValue* jobs = merged.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  for (const auto& [key, value] : jobs->AsObject()) {
    ASSERT_TRUE(value.is_number());
    EXPECT_EQ(value.AsDouble(), sum_of("jobs", key)) << "jobs." << key;
  }
  EXPECT_EQ(jobs->GetDouble("total"), 20.0);
  const JsonValue* cluster = merged.Find("cluster");
  ASSERT_NE(cluster, nullptr);
  for (const auto& [pool_name, pool] : cluster->AsObject()) {
    ASSERT_TRUE(pool.is_object());
    for (const auto& [key, value] : pool.AsObject()) {
      if (!value.is_number()) {
        continue;
      }
      double total = 0.0;
      for (const JsonValue& part : parts) {
        const JsonValue* other = part.Find("cluster");
        ASSERT_NE(other, nullptr);
        const JsonValue* other_pool = other->Find(pool_name);
        ASSERT_NE(other_pool, nullptr);
        total += other_pool->GetDouble(key);
      }
      EXPECT_EQ(value.AsDouble(), total) << pool_name << "." << key;
    }
  }
  // Time merges as the max across shards, not a sum.
  EXPECT_DOUBLE_EQ(merged.GetDouble("time"), max_time);
  double events = 0.0;
  for (const JsonValue& part : parts) {
    events += part.GetDouble("events_processed");
  }
  EXPECT_DOUBLE_EQ(merged.GetDouble("events_processed"), events);
  StopFleet(fleet);
}

TEST(Shard, WarmRestartReplaysEveryShardByteForByte) {
  const FleetScript script = MakeFleetScript(kShards);
  const FleetOutcome baseline = RunFleetScript(script, /*cut=*/-1, "");
  ASSERT_EQ(baseline.decisions.size(), static_cast<std::size_t>(kShards));
  // Sharded routing spread real work everywhere: every shard decided things.
  for (int k = 0; k < kShards; ++k) {
    EXPECT_FALSE(baseline.decisions[k].empty()) << "shard " << k;
  }

  Rng rng(99);
  const int n = static_cast<int>(script.commands.size());
  std::vector<int> cuts = {0, n - 1};
  for (int i = 0; i < 3; ++i) {
    cuts.push_back(static_cast<int>(rng.UniformInt(1, n - 2)));
  }
  for (const int cut : cuts) {
    const std::string path = TempPath(("cut" + std::to_string(cut)).c_str());
    RunFleetScript(script, cut, path);
    const FleetOutcome resumed = ResumeFleetScript(script, cut, path);
    ASSERT_EQ(resumed.decisions.size(), static_cast<std::size_t>(kShards));
    for (int k = 0; k < kShards; ++k) {
      EXPECT_EQ(resumed.decisions[k].size(), baseline.decisions[k].size())
          << "cut=" << cut << " shard=" << k;
      EXPECT_TRUE(resumed.decisions[k] == baseline.decisions[k])
          << "decision log diverged after restore at cut=" << cut
          << " shard=" << k;
      EXPECT_EQ(resumed.fault_hashes[k], baseline.fault_hashes[k])
          << "cut=" << cut << " shard=" << k;
      EXPECT_DOUBLE_EQ(resumed.final_times[k], baseline.final_times[k])
          << "cut=" << cut << " shard=" << k;
    }
    std::remove(path.c_str());
  }
}

TEST(Shard, MultiSnapshotRoundTripsAndDetectsCorruption) {
  // A real one-engine LYRASNAP image to wrap: the container stores images
  // byte-for-byte, so equality below is byte equality.
  ServiceSnapshot inner;
  LoggedCommand advance;
  advance.kind = CommandKind::kAdvance;
  advance.stamp = 100.0;
  inner.commands.push_back(advance);
  inner.horizon = 100.0;
  const std::string inner_path = TempPath("inner");
  ASSERT_TRUE(SaveSnapshot(inner, inner_path).ok());
  const std::string image = ReadFileBytes(inner_path);
  std::remove(inner_path.c_str());
  ASSERT_GT(image.size(), 24u);
  ASSERT_EQ(image.substr(0, 8), "LYRASNAP");

  // Multi-shard: LYRASHRD envelope carrying each image plus the counter.
  MultiSnapshot multi;
  multi.submit_seq = 777;
  multi.shard_images = {image, image, image};
  const std::string path = TempPath("multi");
  ASSERT_TRUE(SaveMultiSnapshot(multi, path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.substr(0, 8), "LYRASHRD");
  StatusOr<MultiSnapshot> loaded = LoadMultiSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().submit_seq, 777u);
  ASSERT_EQ(loaded.value().shard_images.size(), 3u);
  for (const std::string& shard_image : loaded.value().shard_images) {
    EXPECT_EQ(shard_image, image);
  }

  const auto write_bytes = [&path](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  };
  // Flipped payload byte: checksum mismatch.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x5a);
  write_bytes(flipped);
  EXPECT_FALSE(LoadMultiSnapshot(path).ok());
  // Truncation mid-payload.
  write_bytes(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(LoadMultiSnapshot(path).ok());
  // Wrong magic: neither LYRASHRD nor LYRASNAP.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  write_bytes(bad_magic);
  EXPECT_FALSE(LoadMultiSnapshot(path).ok());
  // Future container version.
  std::string bad_version = bytes;
  bad_version[8] = 0x7f;
  write_bytes(bad_version);
  EXPECT_FALSE(LoadMultiSnapshot(path).ok());
  // Trailing garbage after the checksum: rejected, not ignored.
  write_bytes(bytes + "junk");
  EXPECT_FALSE(LoadMultiSnapshot(path).ok());
  // Intact bytes still load.
  write_bytes(bytes);
  EXPECT_TRUE(LoadMultiSnapshot(path).ok());
  std::remove(path.c_str());

  // One shard degrades to a plain LYRASNAP file, bit-identical with the
  // unsharded service's output; loading a plain file yields a one-shard
  // MultiSnapshot (with no routing counter to restore).
  MultiSnapshot single;
  single.submit_seq = 5;  // deliberately dropped by the plain format
  single.shard_images = {image};
  const std::string single_path = TempPath("single");
  ASSERT_TRUE(SaveMultiSnapshot(single, single_path).ok());
  EXPECT_EQ(ReadFileBytes(single_path), image);
  StatusOr<MultiSnapshot> plain = LoadMultiSnapshot(single_path);
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  EXPECT_EQ(plain.value().submit_seq, 0u);
  ASSERT_EQ(plain.value().shard_images.size(), 1u);
  EXPECT_EQ(plain.value().shard_images[0], image);
  std::remove(single_path.c_str());
}

// The engine cap (kMaxEngines) holds on restore too: a LYRASHRD file holding
// one image more than BuildShardSet would ever write is rejected at decode,
// before any engine is constructed.
TEST(Shard, RestoreRejectsMoreShardsThanTheEngineCap) {
  ServiceSnapshot inner;
  inner.horizon = 10.0;
  MultiSnapshot multi;
  multi.shard_images.assign(static_cast<std::size_t>(kMaxEngines) + 1,
                            EncodeSnapshot(inner));
  const std::string path = TempPath("too_many");
  ASSERT_TRUE(SaveMultiSnapshot(multi, path).ok());
  StatusOr<ShardSet> restored =
      RestoreShardSet(FleetOptions(), path, MakeVirtualDriver);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(restored.status().message().find("shard count"), std::string::npos)
      << restored.status().message();

  // At the cap itself the container still decodes.
  multi.shard_images.pop_back();
  StatusOr<MultiSnapshot> at_cap =
      DecodeMultiSnapshot(EncodeMultiSnapshot(multi), "at cap");
  ASSERT_TRUE(at_cap.ok()) << at_cap.status().message();
  EXPECT_EQ(at_cap.value().shard_images.size(),
            static_cast<std::size_t>(kMaxEngines));
  std::remove(path.c_str());
}

// RestoreShardSet picks the layout from the envelope magic: LYRASNAP and
// LYRASHRD restore a one-cluster fleet, LYRAFED a federation, each with its
// routing counter; an unknown magic is InvalidArgument and a missing file
// NotFound.
TEST(Shard, RestoreSniffsTheContainerMagic) {
  struct Case {
    const char* spec;
    const char* magic;
    int engines;
    int clusters;
    std::uint64_t submit_seq;  // one engine never consumes the counter
  };
  const std::string path = TempPath("sniff");
  for (const Case& c : {Case{"0x1@1", "LYRASNAP", 1, 1, 0},
                        Case{"0x1@3", "LYRASHRD", 3, 1, 4},
                        Case{"1x1", "LYRAFED_", 2, 2, 4}}) {
    StatusOr<ShardSet> built = BuildShardSet(
        FleetOptions(), ParseFederationSpec(c.spec).value(), MakeVirtualDriver);
    ASSERT_TRUE(built.ok()) << built.status().message();
    ShardSet fleet = std::move(built.value());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(fleet.router->Execute(Submit(0.0, 36000.0)).GetBool("ok"));
    }
    JsonValue snap = Cmd("snapshot");
    snap.Set("path", JsonValue::MakeString(path));
    ASSERT_TRUE(fleet.router->Execute(snap).GetBool("ok")) << c.spec;
    StopFleet(fleet);
    EXPECT_EQ(ReadFileBytes(path).substr(0, 8), c.magic) << c.spec;

    StatusOr<ShardSet> restored =
        RestoreShardSet(FleetOptions(), path, MakeVirtualDriver);
    ASSERT_TRUE(restored.ok()) << c.spec << ": " << restored.status().message();
    EXPECT_EQ(restored.value().router->shard_count(), c.engines) << c.spec;
    EXPECT_EQ(restored.value().router->cluster_count(), c.clusters) << c.spec;
    EXPECT_EQ(restored.value().router->submit_seq(), c.submit_seq) << c.spec;
    StopFleet(restored.value());
  }

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "LYRAXXXX" << std::string(64, '\0');
  }
  StatusOr<ShardSet> unknown =
      RestoreShardSet(FleetOptions(), path, MakeVirtualDriver);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  StatusOr<ShardSet> missing =
      RestoreShardSet(FleetOptions(), path, MakeVirtualDriver);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// Pipelined submits and reads over the sharded event loop: replies come back
// in per-connection order even though consecutive frames fan out to
// different engine shards, global ids never collide, and a read pipelined
// behind its submit observes the write (read-your-writes across the router).
TEST(Shard, PipelinedRepliesStayInOrderAcrossShards) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_shard_loop_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = 2;

  ServiceOptions options = FleetOptions();
  options.engine.faults = false;
  StatusOr<ShardSet> built =
      BuildShardSet(options, OneCluster(kShards), MakeVirtualDriver);
  ASSERT_TRUE(built.ok()) << built.status().message();
  ShardSet fleet = std::move(built.value());
  EventLoop server(fleet.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();

  constexpr int kSubmits = 32;
  std::string burst;
  for (int i = 0; i < kSubmits; ++i) {
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("seq", JsonValue::MakeNumber(i));
    AppendFrame(submit.Dump(), burst);
  }
  ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());

  std::vector<std::int64_t> ids;
  std::set<std::int64_t> distinct;
  for (int expect = 0; expect < kSubmits; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    const std::int64_t id =
        static_cast<std::int64_t>(reply.value().GetDouble("job", -1.0));
    ASSERT_GE(id, 0);
    ids.push_back(id);
    EXPECT_TRUE(distinct.insert(id).second) << "global id collided: " << id;
  }

  // Queries pipelined behind the submits: routed by id to whichever shard
  // owns each job, answered with the global id, ordering preserved.
  burst.clear();
  for (int i = 0; i < kSubmits; ++i) {
    JsonValue query = Cmd("query_job");
    query.Set("job", JsonValue::MakeNumber(static_cast<double>(ids[i])));
    query.Set("seq", JsonValue::MakeNumber(kSubmits + i));
    AppendFrame(query.Dump(), burst);
  }
  JsonValue stats = Cmd("cluster_stats");
  stats.Set("seq", JsonValue::MakeNumber(2 * kSubmits));
  AppendFrame(stats.Dump(), burst);
  ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());

  for (int expect = kSubmits; expect <= 2 * kSubmits; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    if (expect < 2 * kSubmits) {
      EXPECT_EQ(reply.value().GetDouble("job", -1.0),
                static_cast<double>(ids[expect - kSubmits]));
    } else {
      const JsonValue* jobs = reply.value().Find("jobs");
      ASSERT_NE(jobs, nullptr);
      EXPECT_EQ(jobs->GetDouble("total"), static_cast<double>(kSubmits));
    }
  }
  ::close(fd.value());

  StopFleet(fleet);
  server.Stop();
}

// A cancel pipelined in the same burst as its own submit: the client never
// saw the submit reply, so it predicts the global id from the routing
// mirror. The router must have consumed the submit's sequence number before
// the cancel is routed (BeginEngine order), so the cancel lands on the same
// shard as the submit and finds the job — the regression this guards is the
// router routing the cancel before assigning the submit's id.
TEST(Shard, PipelinedCancelImmediatelyAfterSubmitSameFrameBurst) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_shard_cancel_" + std::to_string(::getpid()) + ".sock";
  ServiceOptions options = FleetOptions();
  options.engine.faults = false;
  StatusOr<ShardSet> built =
      BuildShardSet(options, OneCluster(kShards), MakeVirtualDriver);
  ASSERT_TRUE(built.ok()) << built.status().message();
  ShardSet fleet = std::move(built.value());
  EventLoop server(fleet.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();

  // Predict every submit's global id, then pipeline submit + cancel pairs in
  // one write() so the cancel is queued before the submit's reply exists.
  constexpr int kPairs = 8;
  std::vector<std::int64_t> local(kShards, 0);
  std::string burst;
  std::vector<std::int64_t> predicted;
  int seq = 0;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint32_t shard =
        PredictKeylessShard(static_cast<std::uint64_t>(i), kShards);
    const std::int64_t id = local[shard]++ * kShards + shard;
    predicted.push_back(id);
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("seq", JsonValue::MakeNumber(seq++));
    AppendFrame(submit.Dump(), burst);
    JsonValue cancel = Cancel(0.0, id);
    cancel.Set("seq", JsonValue::MakeNumber(seq++));
    AppendFrame(cancel.Dump(), burst);
  }
  ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());

  for (int expect = 0; expect < seq; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    // Both halves of pair i answer with the same global id.
    EXPECT_EQ(reply.value().GetDouble("job", -1.0),
              static_cast<double>(predicted[expect / 2]))
        << reply_text.value();
  }

  // Every job ended cancelled — nothing leaked into pending/running.
  const JsonValue stats = fleet.router->Execute(Cmd("cluster_stats"));
  ASSERT_TRUE(stats.GetBool("ok")) << stats.Dump();
  const JsonValue* jobs = stats.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->GetDouble("cancelled"), static_cast<double>(kPairs));
  EXPECT_EQ(jobs->GetDouble("pending") + jobs->GetDouble("running"), 0.0);
  ::close(fd.value());
  StopFleet(fleet);
  server.Stop();
}

// A snapshot pipelined directly behind a drain, with a second connection
// racing submits against both barriers: the two fanouts must serialize
// (countdown merges), the snapshot must capture a consistent fleet (every
// image loads, the routing counter covers every submit that was answered
// before the snapshot), and nothing deadlocks.
TEST(Shard, SnapshotPipelinedBehindDrainWhileSubmitsRace) {
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_shard_drainrace_" + std::to_string(::getpid()) + ".sock";
  loop_options.io_threads = 2;
  ServiceOptions options = FleetOptions();
  options.engine.faults = false;
  StatusOr<ShardSet> built =
      BuildShardSet(options, OneCluster(kShards), MakeVirtualDriver);
  ASSERT_TRUE(built.ok()) << built.status().message();
  ShardSet fleet = std::move(built.value());
  EventLoop server(fleet.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<int> barrier_fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(barrier_fd.ok());
  StatusOr<int> racer_fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(racer_fd.ok());

  const std::string path = TempPath("drainrace");
  // Connection A: submits, then drain + snapshot back-to-back in one write.
  std::string burst;
  constexpr int kBefore = 6;
  for (int i = 0; i < kBefore; ++i) {
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("seq", JsonValue::MakeNumber(i));
    AppendFrame(submit.Dump(), burst);
  }
  JsonValue drain = Cmd("drain");
  drain.Set("seq", JsonValue::MakeNumber(kBefore));
  AppendFrame(drain.Dump(), burst);
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  snap.Set("seq", JsonValue::MakeNumber(kBefore + 1));
  AppendFrame(snap.Dump(), burst);

  // Connection B: a concurrent burst of submits racing the barriers.
  std::string race;
  constexpr int kRacers = 16;
  for (int i = 0; i < kRacers; ++i) {
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("seq", JsonValue::MakeNumber(1000 + i));
    AppendFrame(submit.Dump(), race);
  }
  ASSERT_TRUE(
      WriteAllBytes(barrier_fd.value(), burst.data(), burst.size()).ok());
  ASSERT_TRUE(WriteAllBytes(racer_fd.value(), race.data(), race.size()).ok());

  // Connection A's replies arrive in order; drain and snapshot both succeed.
  for (int expect = 0; expect <= kBefore + 1; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(barrier_fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    if (expect == kBefore + 1) {
      EXPECT_EQ(reply.value().GetDouble("shards", 0.0), kShards);
    }
  }
  // Connection B's submits all complete (in order, unique global ids).
  std::set<std::int64_t> distinct;
  for (int expect = 0; expect < kRacers; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(racer_fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), 1000 + expect);
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    EXPECT_TRUE(distinct
                    .insert(static_cast<std::int64_t>(
                        reply.value().GetDouble("job", -1.0)))
                    .second);
  }
  ::close(barrier_fd.value());
  ::close(racer_fd.value());

  // The snapshot is a loadable kShards container whose routing counter has
  // advanced at least past connection A's submits (B's may land either side
  // of the barrier — that's the race — but the container must be coherent).
  StatusOr<MultiSnapshot> loaded = LoadMultiSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().shard_images.size(),
            static_cast<std::size_t>(kShards));
  EXPECT_GE(loaded.value().submit_seq, static_cast<std::uint64_t>(kBefore));
  EXPECT_LE(loaded.value().submit_seq,
            static_cast<std::uint64_t>(kBefore + kRacers));
  for (const std::string& image : loaded.value().shard_images) {
    EXPECT_EQ(image.substr(0, 8), "LYRASNAP");
  }
  std::remove(path.c_str());

  StopFleet(fleet);
  server.Stop();
}


// --- The read surface, pinned ---------------------------------------------

// The exposition with every value cut. Ordered mode keeps the "# HELP" and
// "# TYPE" lines and one "name{labels}" line per sample in document order,
// folding a series' run of _bucket lines into one "name_bucket{...,le} xN"
// line. Set mode keeps, per family in document order, the "# TYPE" line and
// the family's sorted sample set, with shard="k" labels folded to shard=*
// and repeats counted: the family order and each family's samples.
std::string PromSkeleton(const std::string& text, bool as_sets) {
  std::string out;
  std::map<std::string, int> family;  // set mode: the open family's samples
  std::string last;                   // ordered mode: the open run
  int run = 0;
  const auto flush = [&] {
    if (run > 0) {
      out += last + (run > 1 ? " x" + std::to_string(run) : "") + "\n";
    }
    run = 0;
    for (const auto& [key, count] : family) {
      out += "  " + key + (count > 1 ? " x" + std::to_string(count) : "") +
             "\n";
    }
    family.clear();
  };
  const auto cut = [](std::string key, const char* label, const char* to) {
    const std::size_t at = key.find(label);
    if (at != std::string::npos) {
      const std::size_t end = key.find('"', at + std::strlen(label));
      key.replace(at, end + 1 - at, to);
    }
    return key;
  };
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# ", 0) == 0) {
      flush();
      if (!as_sets || line.rfind("# TYPE ", 0) == 0) {
        out += line + "\n";
      }
      continue;
    }
    std::string key = cut(line.substr(0, line.rfind(' ')), "le=\"", "le");
    if (as_sets) {
      ++family[cut(key, "shard=\"", "shard=*")];
    } else if (run > 0 && key == last) {
      ++run;
    } else {
      flush();
      last = key;
      run = 1;
    }
  }
  flush();
  return out;
}

// Text-format lint: every sample follows its own family's HELP/TYPE lines
// (a histogram's _bucket/_sum/_count samples belong to the histogram), and
// no family's header appears twice. Returns one line per violation.
std::string PromLint(const std::string& text) {
  std::string errors;
  std::set<std::string> seen;  // families whose header has been opened
  std::string family;          // the open family
  std::string type;            // its TYPE
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      std::istringstream words(line.substr(7));
      std::string name;
      words >> name;
      if (name != family) {
        if (!seen.insert(name).second) {
          errors += "family " + name + " appears twice\n";
        }
        family = name;
        type.clear();
      }
      if (line[2] == 'T') {
        words >> type;
      }
      continue;
    }
    const std::string name = line.substr(0, line.find_first_of("{ "));
    bool own = name == family;
    if (type == "histogram" || type == "summary") {
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        own = own || name == family + suffix;
      }
    }
    if (!own) {
      errors += "sample " + name + " under family " + family + "\n";
    }
  }
  return errors;
}

// Every key path of a JSON document ("histograms.x.count", ...).
void KeyPaths(const JsonValue& value, const std::string& prefix,
              std::set<std::string>* paths) {
  if (!value.is_object()) {
    return;
  }
  for (const auto& [key, child] : value.AsObject()) {
    paths->insert(prefix + key);
    KeyPaths(child, prefix + key + ".", paths);
  }
}

// A fixed virtual-time script, then one of every read (each with a "seq",
// so the echo placement is pinned too).
std::vector<JsonValue> ReadPinScript() {
  std::vector<JsonValue> script = {
      Submit(0.0, 50000.0, 4),  Submit(0.0, 200000.0),
      Submit(600.0, 7200.0),    Advance(3000.0),
      Cancel(3600.0, 1),        Submit(5000.0, 90000.0, 2),
      Advance(20000.0)};
  return script;
}

// A negative id is pinned at one engine only; on fleets it has its own test.
std::vector<JsonValue> ReadPinReads(const std::string& dump_path,
                                    bool fleet) {
  std::vector<JsonValue> reads;
  for (const double job : {0.0, 1.0, 2.0, 999.0, -1.0}) {
    if (job < 0.0 && fleet) {
      continue;
    }
    JsonValue query = Cmd("query_job");
    query.Set("job", JsonValue::MakeNumber(job));
    reads.push_back(std::move(query));
  }
  reads.push_back(Cmd("query_job"));
  reads.push_back(Cmd("cluster_stats"));
  reads.push_back(Cmd("metrics"));
  reads.push_back(Cmd("ping"));
  JsonValue dump = Cmd("trace_dump");
  dump.Set("path", JsonValue::MakeString(dump_path));
  reads.push_back(std::move(dump));
  reads.push_back(Cmd("trace_dump"));
  reads.push_back(Cmd("federation_stats"));
  reads.push_back(Cmd("no_such_cmd"));
  reads.push_back(Cmd("stats_prom"));
  for (std::size_t i = 0; i < reads.size(); ++i) {
    reads[i].Set("seq", JsonValue::MakeNumber(static_cast<double>(100 + i)));
  }
  return reads;
}

// Runs the pin script through `execute`, then every read, and returns one
// line per read reply with the wall-clock parts cut: ping's uptime_s is
// zeroed, trace_dump's path blanked, metrics' engine export replaced by a
// marker once its key paths match the engines' own exports (their union),
// and stats_prom's text by its skeleton (ordered at one engine, sets at
// more). The prom skeleton comes back in `prom`.
std::vector<std::string> RunReadPin(
    const std::function<JsonValue(const JsonValue&)>& execute,
    const std::vector<const SchedulerService*>& engines, std::string* prom) {
  for (const JsonValue& command : ReadPinScript()) {
    execute(command);  // on the 2x2 the cancel finds no job 1
  }
  const std::string dump_path = TempPath("pin_dump");
  std::vector<std::string> lines;
  for (const JsonValue& read : ReadPinReads(dump_path, engines.size() > 1)) {
    JsonValue reply = execute(read);
    if (reply.Find("uptime_s") != nullptr) {
      reply.Replace("uptime_s", JsonValue::MakeNumber(0.0));
    }
    if (reply.GetString("path") == dump_path) {
      reply.Replace("path", JsonValue::MakeString("<path>"));
    }
    const JsonValue* engine = reply.Find("engine");
    if (engine != nullptr) {
      std::set<std::string> expected, actual;
      for (const SchedulerService* service : engines) {
        KeyPaths(*service->snapshot()->engine_metrics, "", &expected);
      }
      KeyPaths(*engine, "", &actual);
      EXPECT_FALSE(actual.empty());
      EXPECT_EQ(actual, expected) << "metrics.engine keys";
      reply.Replace("engine", JsonValue::MakeString("<engine>"));
    }
    if (reply.Find("text") != nullptr) {
      EXPECT_EQ(PromLint(reply.GetString("text")), "")
          << engines.size() << " engines";
      *prom = PromSkeleton(reply.GetString("text"), engines.size() > 1);
      reply.Replace("text", JsonValue::MakeString("<text>"));
    }
    lines.push_back(reply.Dump());
  }
  for (std::size_t k = 0; k < engines.size(); ++k) {
    std::remove(ShardRouter::EnginePath(dump_path, static_cast<int>(k)).c_str());
  }
  return lines;
}

std::string JoinLines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line + "\n";
  }
  return out;
}

ServiceOptions PinOptions() {
  ServiceOptions options = FleetOptions();
  options.metrics_refresh_ms = 0.0;  // metrics_time follows the engine
  return options;
}

std::vector<const SchedulerService*> EnginesOf(const ShardSet& fleet) {
  std::vector<const SchedulerService*> engines;
  for (const auto& service : fleet.services) {
    engines.push_back(service.get());
  }
  return engines;
}

// Pins every read reply and the exposition's shape: byte-for-byte at one
// engine (the plain service and a one-engine fleet alike), and the family
// order plus each family's sample set at 3 engines and on a 2x2 federation.
TEST(Shard, ReadSurfaceIsPinned) {
  const std::string kOneEngineReplies = R"({"ok":true,"job":0,"state":"finished","submit_time":0,"gpus_per_worker":1,"min_workers":1,"max_workers":4,"workers":0,"work_remaining":0,"preemptions":0,"scaling_operations":0,"first_start_time":60,"finish_time":12560,"seq":100}
{"ok":true,"job":1,"state":"cancelled","submit_time":0,"gpus_per_worker":1,"min_workers":1,"max_workers":1,"workers":0,"work_remaining":196460,"preemptions":0,"scaling_operations":0,"first_start_time":60,"finish_time":3600,"seq":101}
{"ok":true,"job":2,"state":"finished","submit_time":600,"gpus_per_worker":1,"min_workers":1,"max_workers":1,"workers":0,"work_remaining":0,"preemptions":0,"scaling_operations":0,"first_start_time":660,"finish_time":7860,"seq":102}
{"ok":false,"code":"not_found","error":"no such job: 999","seq":103}
{"ok":false,"code":"not_found","error":"no such job: -1","seq":104}
{"ok":false,"code":"invalid_argument","error":"query_job requires a numeric \"job\"","seq":105}
{"ok":true,"time":19980,"events_processed":407,"jobs":{"total":4,"pending":0,"running":1,"finished":2,"cancelled":1},"cluster":{"training":{"servers":22,"total_gpus":176,"used_gpus":2,"free_gpus":174},"on_loan":{"servers":0,"total_gpus":0,"used_gpus":0,"free_gpus":0},"inference":{"servers":26,"total_gpus":208,"used_gpus":0,"free_gpus":208}},"seq":106}
{"ok":true,"time":19980,"engine":"<engine>","service":{"commands_applied":7,"jobs_submitted":4,"jobs_cancelled":1,"rejected_overload":0,"command_errors":3,"reads_served":7,"snapshots_published":8,"queue_depth":0,"queue_peak":1,"command_log":7,"driver":"virtual"},"metrics_time":19980,"seq":107}
{"ok":true,"time":19980,"virtual_time":20000,"driver":"virtual","uptime_s":0,"commands_applied":7,"snapshot_seq":8,"scheduler":"lyra","reclaim":"lyra","seq":108}
{"ok":true,"path":"<path>","spans":7,"seq":109}
{"ok":false,"code":"invalid_argument","error":"trace_dump requires a \"path\"","seq":110}
{"ok":false,"code":"failed_precondition","error":"not a federation","seq":111}
{"ok":false,"code":"invalid_argument","error":"unknown cmd: \"no_such_cmd\"","seq":112}
{"ok":true,"text":"<text>","seq":113}
)";
  const std::string kOneEngineProm = R"(# HELP lyra_svc_request_duration_seconds Request latency from frame decode to reply queued, per command.
# TYPE lyra_svc_request_duration_seconds histogram
# HELP lyra_svc_epoll_dispatch_lag_seconds Delay from epoll_wait return to event dispatch.
# TYPE lyra_svc_epoll_dispatch_lag_seconds histogram
lyra_svc_epoll_dispatch_lag_seconds_bucket{le} x37
lyra_svc_epoll_dispatch_lag_seconds_sum
lyra_svc_epoll_dispatch_lag_seconds_count
# HELP lyra_svc_wake_batch_events Ready epoll events handled per wakeup.
# TYPE lyra_svc_wake_batch_events histogram
lyra_svc_wake_batch_events_bucket{le} x37
lyra_svc_wake_batch_events_sum
lyra_svc_wake_batch_events_count
# HELP lyra_svc_completion_batch Engine completions delivered per mailbox drain.
# TYPE lyra_svc_completion_batch histogram
lyra_svc_completion_batch_bucket{le} x37
lyra_svc_completion_batch_sum
lyra_svc_completion_batch_count
# HELP lyra_svc_engine_batch_apply_seconds Engine time applying one command batch.
# TYPE lyra_svc_engine_batch_apply_seconds histogram
lyra_svc_engine_batch_apply_seconds_bucket{le} x37
lyra_svc_engine_batch_apply_seconds_sum
lyra_svc_engine_batch_apply_seconds_count
# HELP lyra_svc_engine_snapshot_publish_seconds Engine time publishing one read snapshot.
# TYPE lyra_svc_engine_snapshot_publish_seconds histogram
lyra_svc_engine_snapshot_publish_seconds_bucket{le} x37
lyra_svc_engine_snapshot_publish_seconds_sum
lyra_svc_engine_snapshot_publish_seconds_count
# HELP lyra_svc_engine_batch_commands Commands applied per engine batch.
# TYPE lyra_svc_engine_batch_commands histogram
lyra_svc_engine_batch_commands_bucket{le} x37
lyra_svc_engine_batch_commands_sum
lyra_svc_engine_batch_commands_count
# HELP lyra_svc_io_bytes_total Bytes moved by each io thread, by direction.
# TYPE lyra_svc_io_bytes_total counter
# HELP lyra_svc_io_frames_total Frames moved by each io thread, by direction.
# TYPE lyra_svc_io_frames_total counter
# HELP lyra_svc_write_queue_bytes_peak High-watermark of queued reply bytes per io thread.
# TYPE lyra_svc_write_queue_bytes_peak gauge
# HELP lyra_svc_flight_spans_total Flight-recorder spans recorded per telemetry shard.
# TYPE lyra_svc_flight_spans_total counter
lyra_svc_flight_spans_total{thread="engine"}
# HELP lyra_svc_commands_applied_total Engine commands applied.
# TYPE lyra_svc_commands_applied_total counter
lyra_svc_commands_applied_total
# HELP lyra_svc_jobs_submitted_total Jobs accepted via submit.
# TYPE lyra_svc_jobs_submitted_total counter
lyra_svc_jobs_submitted_total
# HELP lyra_svc_jobs_cancelled_total Jobs cancelled via cancel.
# TYPE lyra_svc_jobs_cancelled_total counter
lyra_svc_jobs_cancelled_total
# HELP lyra_svc_rejected_overload_total Commands rejected or shed under backpressure.
# TYPE lyra_svc_rejected_overload_total counter
lyra_svc_rejected_overload_total
# HELP lyra_svc_command_errors_total Malformed or failed commands.
# TYPE lyra_svc_command_errors_total counter
lyra_svc_command_errors_total
# HELP lyra_svc_reads_served_total Read-only commands answered from the snapshot.
# TYPE lyra_svc_reads_served_total counter
lyra_svc_reads_served_total
# HELP lyra_svc_snapshots_published_total Read snapshots published by the engine.
# TYPE lyra_svc_snapshots_published_total counter
lyra_svc_snapshots_published_total
# HELP lyra_svc_queue_depth Engine command queue depth.
# TYPE lyra_svc_queue_depth gauge
lyra_svc_queue_depth
# HELP lyra_svc_queue_peak Engine command queue high-watermark.
# TYPE lyra_svc_queue_peak gauge
lyra_svc_queue_peak
# HELP lyra_svc_uptime_seconds Seconds since the service started.
# TYPE lyra_svc_uptime_seconds gauge
lyra_svc_uptime_seconds
# HELP lyra_svc_info Service identity; value is always 1.
# TYPE lyra_svc_info gauge
lyra_svc_info{scheduler="lyra",reclaim="lyra",driver="virtual"}
# HELP lyra_engine_virtual_time_seconds Engine virtual-time frontier.
# TYPE lyra_engine_virtual_time_seconds gauge
lyra_engine_virtual_time_seconds
# HELP lyra_engine_events_processed_total Discrete events processed by the engine.
# TYPE lyra_engine_events_processed_total counter
lyra_engine_events_processed_total
# HELP lyra_engine_snapshot_version Monotone version of the published read snapshot.
# TYPE lyra_engine_snapshot_version gauge
lyra_engine_snapshot_version
# HELP lyra_engine_jobs Jobs known to the engine, by state.
# TYPE lyra_engine_jobs gauge
lyra_engine_jobs{state="pending"}
lyra_engine_jobs{state="running"}
lyra_engine_jobs{state="finished"}
lyra_engine_jobs{state="cancelled"}
# HELP lyra_engine_pool_servers Servers per cluster pool.
# TYPE lyra_engine_pool_servers gauge
lyra_engine_pool_servers{pool="training"}
lyra_engine_pool_servers{pool="on_loan"}
lyra_engine_pool_servers{pool="inference"}
# HELP lyra_engine_pool_gpus GPUs per cluster pool, by kind (total/used/free).
# TYPE lyra_engine_pool_gpus gauge
lyra_engine_pool_gpus{pool="training",kind="total"}
lyra_engine_pool_gpus{pool="training",kind="used"}
lyra_engine_pool_gpus{pool="training",kind="free"}
lyra_engine_pool_gpus{pool="on_loan",kind="total"}
lyra_engine_pool_gpus{pool="on_loan",kind="used"}
lyra_engine_pool_gpus{pool="on_loan",kind="free"}
lyra_engine_pool_gpus{pool="inference",kind="total"}
lyra_engine_pool_gpus{pool="inference",kind="used"}
lyra_engine_pool_gpus{pool="inference",kind="free"}
)";
  const std::string kThreeEngineReplies = R"({"ok":true,"job":0,"state":"running","submit_time":0,"gpus_per_worker":1,"min_workers":1,"max_workers":1,"workers":1,"work_remaining":200000,"preemptions":0,"scaling_operations":0,"first_start_time":60,"seq":100}
{"ok":true,"job":1,"state":"cancelled","submit_time":0,"gpus_per_worker":1,"min_workers":1,"max_workers":4,"workers":0,"work_remaining":35840,"preemptions":0,"scaling_operations":0,"first_start_time":60,"finish_time":3600,"seq":101}
{"ok":true,"job":2,"state":"running","submit_time":5000,"gpus_per_worker":1,"min_workers":1,"max_workers":2,"workers":2,"work_remaining":79237.252409719498,"preemptions":0,"scaling_operations":2,"first_start_time":5040,"seq":102}
{"ok":false,"code":"not_found","error":"no such job: 999","seq":103}
{"ok":false,"code":"invalid_argument","error":"query_job requires a numeric \"job\"","seq":104}
{"ok":true,"time":19980,"events_processed":884,"jobs":{"total":4,"pending":0,"running":2,"finished":1,"cancelled":1},"cluster":{"training":{"servers":65,"total_gpus":520,"used_gpus":3,"free_gpus":517},"on_loan":{"servers":0,"total_gpus":0,"used_gpus":0,"free_gpus":0},"inference":{"servers":78,"total_gpus":624,"used_gpus":0,"free_gpus":624}},"seq":105}
{"ok":true,"time":19980,"engine":"<engine>","service":{"commands_applied":11,"jobs_submitted":4,"jobs_cancelled":1,"rejected_overload":0,"command_errors":2,"reads_served":6,"snapshots_published":14,"queue_depth":0,"queue_peak":1,"command_log":11,"driver":"virtual","shards":3},"metrics_time":19980,"seq":106}
{"ok":true,"time":19980,"virtual_time":20000,"driver":"virtual","uptime_s":0,"commands_applied":11,"snapshot_seq":5,"scheduler":"lyra","reclaim":"lyra","shard_count":3,"shards":[{"shard":0,"commands_applied":4,"snapshot_seq":5,"virtual_time":20000},{"shard":1,"commands_applied":4,"snapshot_seq":5,"virtual_time":20000},{"shard":2,"commands_applied":3,"snapshot_seq":4,"virtual_time":20000}],"seq":107}
{"ok":true,"path":"<path>","spans":11,"shards":3,"seq":108}
{"ok":false,"code":"invalid_argument","error":"trace_dump requires a \"path\"","seq":109}
{"ok":false,"code":"failed_precondition","error":"not a federation","seq":110}
{"ok":false,"code":"invalid_argument","error":"unknown cmd: \"no_such_cmd\"","seq":111}
{"ok":true,"text":"<text>","seq":112}
)";
  const std::string kThreeEngineProm = R"(# TYPE lyra_svc_request_duration_seconds histogram
# TYPE lyra_svc_epoll_dispatch_lag_seconds histogram
  lyra_svc_epoll_dispatch_lag_seconds_bucket{le} x37
  lyra_svc_epoll_dispatch_lag_seconds_count
  lyra_svc_epoll_dispatch_lag_seconds_sum
# TYPE lyra_svc_wake_batch_events histogram
  lyra_svc_wake_batch_events_bucket{le} x37
  lyra_svc_wake_batch_events_count
  lyra_svc_wake_batch_events_sum
# TYPE lyra_svc_completion_batch histogram
  lyra_svc_completion_batch_bucket{le} x37
  lyra_svc_completion_batch_count
  lyra_svc_completion_batch_sum
# TYPE lyra_svc_engine_batch_apply_seconds histogram
  lyra_svc_engine_batch_apply_seconds_bucket{le} x37
  lyra_svc_engine_batch_apply_seconds_bucket{shard=*,le} x111
  lyra_svc_engine_batch_apply_seconds_count
  lyra_svc_engine_batch_apply_seconds_count{shard=*} x3
  lyra_svc_engine_batch_apply_seconds_sum
  lyra_svc_engine_batch_apply_seconds_sum{shard=*} x3
# TYPE lyra_svc_engine_snapshot_publish_seconds histogram
  lyra_svc_engine_snapshot_publish_seconds_bucket{le} x37
  lyra_svc_engine_snapshot_publish_seconds_bucket{shard=*,le} x111
  lyra_svc_engine_snapshot_publish_seconds_count
  lyra_svc_engine_snapshot_publish_seconds_count{shard=*} x3
  lyra_svc_engine_snapshot_publish_seconds_sum
  lyra_svc_engine_snapshot_publish_seconds_sum{shard=*} x3
# TYPE lyra_svc_engine_batch_commands histogram
  lyra_svc_engine_batch_commands_bucket{le} x37
  lyra_svc_engine_batch_commands_bucket{shard=*,le} x111
  lyra_svc_engine_batch_commands_count
  lyra_svc_engine_batch_commands_count{shard=*} x3
  lyra_svc_engine_batch_commands_sum
  lyra_svc_engine_batch_commands_sum{shard=*} x3
# TYPE lyra_svc_io_bytes_total counter
# TYPE lyra_svc_io_frames_total counter
# TYPE lyra_svc_write_queue_bytes_peak gauge
# TYPE lyra_svc_flight_spans_total counter
  lyra_svc_flight_spans_total{thread="engine",shard=*} x3
# TYPE lyra_svc_commands_applied_total counter
  lyra_svc_commands_applied_total
  lyra_svc_commands_applied_total{shard=*} x3
# TYPE lyra_svc_jobs_submitted_total counter
  lyra_svc_jobs_submitted_total
  lyra_svc_jobs_submitted_total{shard=*} x3
# TYPE lyra_svc_jobs_cancelled_total counter
  lyra_svc_jobs_cancelled_total
  lyra_svc_jobs_cancelled_total{shard=*} x3
# TYPE lyra_svc_rejected_overload_total counter
  lyra_svc_rejected_overload_total
  lyra_svc_rejected_overload_total{shard=*} x3
# TYPE lyra_svc_command_errors_total counter
  lyra_svc_command_errors_total
  lyra_svc_command_errors_total{shard=*} x3
# TYPE lyra_svc_reads_served_total counter
  lyra_svc_reads_served_total
  lyra_svc_reads_served_total{shard=*} x3
# TYPE lyra_svc_snapshots_published_total counter
  lyra_svc_snapshots_published_total
  lyra_svc_snapshots_published_total{shard=*} x3
# TYPE lyra_svc_queue_depth gauge
  lyra_svc_queue_depth
  lyra_svc_queue_depth{shard=*} x3
# TYPE lyra_svc_queue_peak gauge
  lyra_svc_queue_peak
  lyra_svc_queue_peak{shard=*} x3
# TYPE lyra_svc_uptime_seconds gauge
  lyra_svc_uptime_seconds
# TYPE lyra_svc_shards gauge
  lyra_svc_shards
# TYPE lyra_svc_info gauge
  lyra_svc_info{scheduler="lyra",reclaim="lyra",driver="virtual"}
# TYPE lyra_engine_virtual_time_seconds gauge
  lyra_engine_virtual_time_seconds
  lyra_engine_virtual_time_seconds{shard=*} x3
# TYPE lyra_engine_events_processed_total counter
  lyra_engine_events_processed_total
  lyra_engine_events_processed_total{shard=*} x3
# TYPE lyra_engine_snapshot_version gauge
  lyra_engine_snapshot_version
  lyra_engine_snapshot_version{shard=*} x3
# TYPE lyra_engine_jobs gauge
  lyra_engine_jobs{state="cancelled",shard=*} x3
  lyra_engine_jobs{state="cancelled"}
  lyra_engine_jobs{state="finished",shard=*} x3
  lyra_engine_jobs{state="finished"}
  lyra_engine_jobs{state="pending",shard=*} x3
  lyra_engine_jobs{state="pending"}
  lyra_engine_jobs{state="running",shard=*} x3
  lyra_engine_jobs{state="running"}
# TYPE lyra_engine_pool_servers gauge
  lyra_engine_pool_servers{pool="inference"}
  lyra_engine_pool_servers{pool="on_loan"}
  lyra_engine_pool_servers{pool="training"}
# TYPE lyra_engine_pool_gpus gauge
  lyra_engine_pool_gpus{pool="inference",kind="free"}
  lyra_engine_pool_gpus{pool="inference",kind="total"}
  lyra_engine_pool_gpus{pool="inference",kind="used"}
  lyra_engine_pool_gpus{pool="on_loan",kind="free"}
  lyra_engine_pool_gpus{pool="on_loan",kind="total"}
  lyra_engine_pool_gpus{pool="on_loan",kind="used"}
  lyra_engine_pool_gpus{pool="training",kind="free"}
  lyra_engine_pool_gpus{pool="training",kind="total"}
  lyra_engine_pool_gpus{pool="training",kind="used"}
)";
  const std::string kFederationReplies = R"({"ok":false,"code":"not_found","error":"no such job: 0","seq":100}
{"ok":false,"code":"not_found","error":"no such job: 1","seq":101}
{"ok":true,"job":2,"state":"running","submit_time":0,"gpus_per_worker":1,"min_workers":1,"max_workers":1,"workers":1,"work_remaining":200000,"preemptions":0,"scaling_operations":0,"first_start_time":60,"seq":102}
{"ok":false,"code":"not_found","error":"no such job: 999","seq":103}
{"ok":false,"code":"invalid_argument","error":"query_job requires a numeric \"job\"","seq":104}
{"ok":true,"time":19980,"events_processed":678,"jobs":{"total":4,"pending":0,"running":2,"finished":2,"cancelled":0},"cluster":{"training":{"servers":87,"total_gpus":696,"used_gpus":3,"free_gpus":693},"on_loan":{"servers":0,"total_gpus":0,"used_gpus":0,"free_gpus":0},"inference":{"servers":104,"total_gpus":832,"used_gpus":0,"free_gpus":832}},"seq":105,"federation":[{"cluster":0,"name":"inf0","kind":"inference","loan_priority":0,"shards":1,"first_engine":0,"jobs":{"pending":0,"running":0,"finished":0,"cancelled":0},"gpus":{"total":208,"used":0,"free":208},"loaned":0,"borrowed":0},{"cluster":1,"name":"inf1","kind":"inference","loan_priority":0,"shards":1,"first_engine":1,"jobs":{"pending":0,"running":0,"finished":0,"cancelled":0},"gpus":{"total":208,"used":0,"free":208},"loaned":0,"borrowed":0},{"cluster":2,"name":"train0","kind":"training","loan_priority":0,"shards":1,"first_engine":2,"jobs":{"pending":0,"running":2,"finished":0,"cancelled":0},"gpus":{"total":168,"used":3,"free":165},"loaned":0,"borrowed":0},{"cluster":3,"name":"train1","kind":"training","loan_priority":0,"shards":1,"first_engine":3,"jobs":{"pending":0,"running":0,"finished":2,"cancelled":0},"gpus":{"total":176,"used":0,"free":176},"loaned":0,"borrowed":0}]}
{"ok":true,"time":19980,"engine":"<engine>","service":{"commands_applied":13,"jobs_submitted":4,"jobs_cancelled":0,"rejected_overload":0,"command_errors":5,"reads_served":6,"snapshots_published":17,"queue_depth":0,"queue_peak":1,"command_log":12,"driver":"virtual","shards":4},"metrics_time":19980,"seq":106}
{"ok":true,"time":19980,"virtual_time":20000,"driver":"virtual","uptime_s":0,"commands_applied":13,"snapshot_seq":5,"scheduler":"lyra","reclaim":"lyra","shard_count":4,"shards":[{"shard":0,"commands_applied":2,"snapshot_seq":3,"virtual_time":20000},{"shard":1,"commands_applied":3,"snapshot_seq":4,"virtual_time":20000},{"shard":2,"commands_applied":4,"snapshot_seq":5,"virtual_time":20000},{"shard":3,"commands_applied":4,"snapshot_seq":5,"virtual_time":20000}],"seq":107}
{"ok":true,"path":"<path>","spans":13,"shards":4,"seq":108}
{"ok":false,"code":"invalid_argument","error":"trace_dump requires a \"path\"","seq":109}
{"ok":true,"time":19980,"submit_seq":4,"shards":4,"clusters":[{"cluster":0,"name":"inf0","kind":"inference","loan_priority":0,"shards":1,"first_engine":0,"jobs":{"pending":0,"running":0,"finished":0,"cancelled":0},"gpus":{"total":208,"used":0,"free":208},"loaned":0,"borrowed":0},{"cluster":1,"name":"inf1","kind":"inference","loan_priority":0,"shards":1,"first_engine":1,"jobs":{"pending":0,"running":0,"finished":0,"cancelled":0},"gpus":{"total":208,"used":0,"free":208},"loaned":0,"borrowed":0},{"cluster":2,"name":"train0","kind":"training","loan_priority":0,"shards":1,"first_engine":2,"jobs":{"pending":0,"running":2,"finished":0,"cancelled":0},"gpus":{"total":168,"used":3,"free":165},"loaned":0,"borrowed":0},{"cluster":3,"name":"train1","kind":"training","loan_priority":0,"shards":1,"first_engine":3,"jobs":{"pending":0,"running":0,"finished":2,"cancelled":0},"gpus":{"total":176,"used":0,"free":176},"loaned":0,"borrowed":0}],"broker":{"active":0,"next_loan_id":0,"granted":0,"reclaimed":0,"returned":0,"ledger_hash":"0000000000000000","loans":[],"events":[]},"seq":110}
{"ok":false,"code":"invalid_argument","error":"unknown cmd: \"no_such_cmd\"","seq":111}
{"ok":true,"text":"<text>","seq":112}
)";
  const std::string kFederationProm = R"(# TYPE lyra_svc_request_duration_seconds histogram
# TYPE lyra_svc_epoll_dispatch_lag_seconds histogram
  lyra_svc_epoll_dispatch_lag_seconds_bucket{le} x37
  lyra_svc_epoll_dispatch_lag_seconds_count
  lyra_svc_epoll_dispatch_lag_seconds_sum
# TYPE lyra_svc_wake_batch_events histogram
  lyra_svc_wake_batch_events_bucket{le} x37
  lyra_svc_wake_batch_events_count
  lyra_svc_wake_batch_events_sum
# TYPE lyra_svc_completion_batch histogram
  lyra_svc_completion_batch_bucket{le} x37
  lyra_svc_completion_batch_count
  lyra_svc_completion_batch_sum
# TYPE lyra_svc_engine_batch_apply_seconds histogram
  lyra_svc_engine_batch_apply_seconds_bucket{le} x37
  lyra_svc_engine_batch_apply_seconds_bucket{shard=*,le} x148
  lyra_svc_engine_batch_apply_seconds_count
  lyra_svc_engine_batch_apply_seconds_count{shard=*} x4
  lyra_svc_engine_batch_apply_seconds_sum
  lyra_svc_engine_batch_apply_seconds_sum{shard=*} x4
# TYPE lyra_svc_engine_snapshot_publish_seconds histogram
  lyra_svc_engine_snapshot_publish_seconds_bucket{le} x37
  lyra_svc_engine_snapshot_publish_seconds_bucket{shard=*,le} x148
  lyra_svc_engine_snapshot_publish_seconds_count
  lyra_svc_engine_snapshot_publish_seconds_count{shard=*} x4
  lyra_svc_engine_snapshot_publish_seconds_sum
  lyra_svc_engine_snapshot_publish_seconds_sum{shard=*} x4
# TYPE lyra_svc_engine_batch_commands histogram
  lyra_svc_engine_batch_commands_bucket{le} x37
  lyra_svc_engine_batch_commands_bucket{shard=*,le} x148
  lyra_svc_engine_batch_commands_count
  lyra_svc_engine_batch_commands_count{shard=*} x4
  lyra_svc_engine_batch_commands_sum
  lyra_svc_engine_batch_commands_sum{shard=*} x4
# TYPE lyra_svc_io_bytes_total counter
# TYPE lyra_svc_io_frames_total counter
# TYPE lyra_svc_write_queue_bytes_peak gauge
# TYPE lyra_svc_flight_spans_total counter
  lyra_svc_flight_spans_total{thread="engine",shard=*} x4
# TYPE lyra_svc_commands_applied_total counter
  lyra_svc_commands_applied_total
  lyra_svc_commands_applied_total{shard=*} x4
# TYPE lyra_svc_jobs_submitted_total counter
  lyra_svc_jobs_submitted_total
  lyra_svc_jobs_submitted_total{shard=*} x4
# TYPE lyra_svc_jobs_cancelled_total counter
  lyra_svc_jobs_cancelled_total
  lyra_svc_jobs_cancelled_total{shard=*} x4
# TYPE lyra_svc_rejected_overload_total counter
  lyra_svc_rejected_overload_total
  lyra_svc_rejected_overload_total{shard=*} x4
# TYPE lyra_svc_command_errors_total counter
  lyra_svc_command_errors_total
  lyra_svc_command_errors_total{shard=*} x4
# TYPE lyra_svc_reads_served_total counter
  lyra_svc_reads_served_total
  lyra_svc_reads_served_total{shard=*} x4
# TYPE lyra_svc_snapshots_published_total counter
  lyra_svc_snapshots_published_total
  lyra_svc_snapshots_published_total{shard=*} x4
# TYPE lyra_svc_queue_depth gauge
  lyra_svc_queue_depth
  lyra_svc_queue_depth{shard=*} x4
# TYPE lyra_svc_queue_peak gauge
  lyra_svc_queue_peak
  lyra_svc_queue_peak{shard=*} x4
# TYPE lyra_svc_uptime_seconds gauge
  lyra_svc_uptime_seconds
# TYPE lyra_svc_shards gauge
  lyra_svc_shards
# TYPE lyra_svc_info gauge
  lyra_svc_info{scheduler="lyra",reclaim="lyra",driver="virtual"}
# TYPE lyra_engine_virtual_time_seconds gauge
  lyra_engine_virtual_time_seconds
  lyra_engine_virtual_time_seconds{shard=*} x4
# TYPE lyra_engine_events_processed_total counter
  lyra_engine_events_processed_total
  lyra_engine_events_processed_total{shard=*} x4
# TYPE lyra_engine_snapshot_version gauge
  lyra_engine_snapshot_version
  lyra_engine_snapshot_version{shard=*} x4
# TYPE lyra_engine_jobs gauge
  lyra_engine_jobs{state="cancelled",shard=*} x4
  lyra_engine_jobs{state="cancelled"}
  lyra_engine_jobs{state="finished",shard=*} x4
  lyra_engine_jobs{state="finished"}
  lyra_engine_jobs{state="pending",shard=*} x4
  lyra_engine_jobs{state="pending"}
  lyra_engine_jobs{state="running",shard=*} x4
  lyra_engine_jobs{state="running"}
# TYPE lyra_engine_pool_servers gauge
  lyra_engine_pool_servers{pool="inference"}
  lyra_engine_pool_servers{pool="on_loan"}
  lyra_engine_pool_servers{pool="training"}
# TYPE lyra_engine_pool_gpus gauge
  lyra_engine_pool_gpus{pool="inference",kind="free"}
  lyra_engine_pool_gpus{pool="inference",kind="total"}
  lyra_engine_pool_gpus{pool="inference",kind="used"}
  lyra_engine_pool_gpus{pool="on_loan",kind="free"}
  lyra_engine_pool_gpus{pool="on_loan",kind="total"}
  lyra_engine_pool_gpus{pool="on_loan",kind="used"}
  lyra_engine_pool_gpus{pool="training",kind="free"}
  lyra_engine_pool_gpus{pool="training",kind="total"}
  lyra_engine_pool_gpus{pool="training",kind="used"}
# TYPE lyra_fed_clusters gauge
  lyra_fed_clusters
# TYPE lyra_fed_cluster_info gauge
  lyra_fed_cluster_info{cluster="inf0",kind="inference"}
  lyra_fed_cluster_info{cluster="inf1",kind="inference"}
  lyra_fed_cluster_info{cluster="train0",kind="training"}
  lyra_fed_cluster_info{cluster="train1",kind="training"}
# TYPE lyra_fed_jobs gauge
  lyra_fed_jobs{cluster="inf0",state="cancelled"}
  lyra_fed_jobs{cluster="inf0",state="finished"}
  lyra_fed_jobs{cluster="inf0",state="pending"}
  lyra_fed_jobs{cluster="inf0",state="running"}
  lyra_fed_jobs{cluster="inf1",state="cancelled"}
  lyra_fed_jobs{cluster="inf1",state="finished"}
  lyra_fed_jobs{cluster="inf1",state="pending"}
  lyra_fed_jobs{cluster="inf1",state="running"}
  lyra_fed_jobs{cluster="train0",state="cancelled"}
  lyra_fed_jobs{cluster="train0",state="finished"}
  lyra_fed_jobs{cluster="train0",state="pending"}
  lyra_fed_jobs{cluster="train0",state="running"}
  lyra_fed_jobs{cluster="train1",state="cancelled"}
  lyra_fed_jobs{cluster="train1",state="finished"}
  lyra_fed_jobs{cluster="train1",state="pending"}
  lyra_fed_jobs{cluster="train1",state="running"}
# TYPE lyra_fed_gpus gauge
  lyra_fed_gpus{cluster="inf0",pool="free"}
  lyra_fed_gpus{cluster="inf0",pool="total"}
  lyra_fed_gpus{cluster="inf1",pool="free"}
  lyra_fed_gpus{cluster="inf1",pool="total"}
  lyra_fed_gpus{cluster="train0",pool="free"}
  lyra_fed_gpus{cluster="train0",pool="total"}
  lyra_fed_gpus{cluster="train1",pool="free"}
  lyra_fed_gpus{cluster="train1",pool="total"}
# TYPE lyra_fed_gpus_loaned gauge
  lyra_fed_gpus_loaned{cluster="inf0"}
  lyra_fed_gpus_loaned{cluster="inf1"}
  lyra_fed_gpus_loaned{cluster="train0"}
  lyra_fed_gpus_loaned{cluster="train1"}
# TYPE lyra_fed_gpus_borrowed gauge
  lyra_fed_gpus_borrowed{cluster="inf0"}
  lyra_fed_gpus_borrowed{cluster="inf1"}
  lyra_fed_gpus_borrowed{cluster="train0"}
  lyra_fed_gpus_borrowed{cluster="train1"}
# TYPE lyra_fed_loans_active gauge
  lyra_fed_loans_active
# TYPE lyra_fed_loans_granted_total counter
  lyra_fed_loans_granted_total
# TYPE lyra_fed_loans_reclaimed_total counter
  lyra_fed_loans_reclaimed_total
# TYPE lyra_fed_loans_returned_total counter
  lyra_fed_loans_returned_total
)";

  std::string prom;
  SchedulerService plain(PinOptions(), MakeVirtualDriver(0));
  ASSERT_TRUE(plain.Start().ok());
  EXPECT_EQ(JoinLines(RunReadPin(
                [&](const JsonValue& r) { return plain.Execute(r); },
                {&plain}, &prom)),
            kOneEngineReplies);
  EXPECT_EQ(prom, kOneEngineProm);
  plain.Stop();

  const auto run_fleet = [&](const std::vector<ClusterSpec>& clusters) {
    StatusOr<ShardSet> built =
        BuildShardSet(PinOptions(), clusters, MakeVirtualDriver);
    EXPECT_TRUE(built.ok()) << built.status().message();
    ShardSet fleet = std::move(built.value());
    const std::string replies = JoinLines(RunReadPin(
        [&](const JsonValue& r) { return fleet.router->Execute(r); },
        EnginesOf(fleet), &prom));
    StopFleet(fleet);
    return replies;
  };
  EXPECT_EQ(run_fleet(OneCluster(1)), kOneEngineReplies);
  EXPECT_EQ(prom, kOneEngineProm);
  EXPECT_EQ(run_fleet(OneCluster(3)), kThreeEngineReplies);
  EXPECT_EQ(prom, kThreeEngineProm);
  EXPECT_EQ(run_fleet(ParseFederationSpec("2x2").value()), kFederationReplies);
  EXPECT_EQ(prom, kFederationProm);
}

// The lint itself: it names a sample written under another family's header
// (the interleaving the federation families once had) and a repeated family.
TEST(Shard, PromLintFlagsMisplacedSamples) {
  EXPECT_EQ(PromLint("# HELP a_seconds A.\n# TYPE a_seconds histogram\n"
                     "a_seconds_bucket{le=\"1\"} 0\na_seconds_sum 0\n"
                     "a_seconds_count 0\n# TYPE b gauge\nb{x=\"1\"} 2\n"),
            "");
  EXPECT_EQ(PromLint("# TYPE loaned gauge\n# TYPE borrowed gauge\n"
                     "loaned{c=\"0\"} 1\nborrowed{c=\"0\"} 2\n"),
            "sample loaned under family borrowed\n");
  EXPECT_EQ(PromLint("# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\n# TYPE a gauge\na 2\n"),
            "family a appears twice\n");
}

// Each topology the id tables below run on: one engine, a 3-engine fleet,
// and a 2x2 federation (inf0, inf1, train0, train1).
ShardSet BuildTopology(const std::string& spec) {
  StatusOr<ShardSet> built = BuildShardSet(
      FleetOptions(), ParseFederationSpec(spec).value(), MakeVirtualDriver);
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built.value());
}

// An id field no job can be named by, or a negative one that names none:
// cancel, query_job and (in a federation) migrate and a submit's "cluster"
// answer without a cast of the raw double, no job changes state, and a
// negative integer's not_found names the id the client sent. A fraction
// must not reach job 1 through a truncating cast, nor 1e300 anything
// through an out-of-range one.
TEST(Shard, NegativeJobIdsAreNotFoundOnFleets) {
  struct HostileId {
    const char* name;
    std::optional<JsonValue> value;  // nullopt: the field is missing
    const char* code;                // of cancel, query_job and migrate
  };
  const std::vector<HostileId> table = {
      {"-7", JsonValue::MakeNumber(-7), "not_found"},
      {"-1", JsonValue::MakeNumber(-1), "not_found"},
      {"1.5", JsonValue::MakeNumber(1.5), "invalid_argument"},
      {"1e300", JsonValue::MakeNumber(1e300), "invalid_argument"},
      {"-1e300", JsonValue::MakeNumber(-1e300), "invalid_argument"},
      {"2^53+1", JsonValue::MakeNumber(9007199254740993.0), "invalid_argument"},
      {"string", JsonValue::MakeString("1"), "invalid_argument"},
      {"missing", std::nullopt, "invalid_argument"},
  };
  for (const std::string spec : {"0x1@1", "0x1@3", "2x2"}) {
    ShardSet fleet = BuildTopology(spec);
    ShardRouter& router = *fleet.router;
    const bool federation = spec == "2x2";
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(router.Execute(Submit(0.0, 90000.0)).GetBool("ok"));
    }
    ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));
    const auto jobs = [&router] {
      return router.Execute(Cmd("cluster_stats")).Find("jobs")->Dump();
    };
    const std::string before = jobs();
    for (const HostileId& id : table) {
      const auto with = [&id](JsonValue request, const char* field) {
        if (id.value) {
          request.Set(field, *id.value);
        }
        return request;
      };
      JsonValue cancel = Cmd("cancel");
      cancel.Set("at", JsonValue::MakeNumber(700.0));
      JsonValue migrate = with(Cmd("migrate"), "job");
      migrate.Set("to", JsonValue::MakeString("train1"));
      std::vector<JsonValue> requests = {with(cancel, "job"),
                                         with(Cmd("query_job"), "job")};
      if (federation) {
        requests.push_back(migrate);
      }
      for (const JsonValue& request : requests) {
        const JsonValue reply = router.Execute(request);
        EXPECT_EQ(reply.GetString("code"), id.code)
            << spec << " " << id.name << ": " << reply.Dump();
        if (std::string(id.code) == "not_found") {
          EXPECT_EQ(reply.GetString("error"),
                    std::string("no such job: ") + id.name)
              << reply.Dump();
        }
      }
      if (federation && id.value) {
        // The "cluster" index reads through the same checked reader.
        const JsonValue reply = router.Execute(with(Submit(700.0, 60.0), "cluster"));
        EXPECT_EQ(reply.GetString("code"), "invalid_argument")
            << spec << " cluster " << id.name << ": " << reply.Dump();
      }
    }
    EXPECT_EQ(jobs(), before) << spec << ": a hostile id changed a job";
    StopFleet(fleet);
  }
}

// The worker fields of a submit are ints: a fraction, a value past int
// range or 1e300 is invalid_argument naming the field, never a truncating
// or out-of-range cast, and no job is created; a non-number keeps the
// field's default.
TEST(Shard, SubmitWorkerFieldsMustBeInts) {
  struct HostileSubmit {
    const char* frame;
    const char* field;  // the field the error must name
  };
  const std::vector<HostileSubmit> table = {
      {R"({"cmd":"submit","total_work":60,"max_workers":4294967297})", "max_workers"},
      {R"({"cmd":"submit","total_work":60,"gpus_per_worker":1.9})", "gpus_per_worker"},
      {R"({"cmd":"submit","total_work":60,"min_workers":1e300})", "min_workers"},
      {R"({"cmd":"submit","total_work":60,"min_workers":-1e300})", "min_workers"},
      {R"({"cmd":"submit","total_work":60,"requested_workers":2147483648})",
       "requested_workers"},
      {R"({"cmd":"submit","total_work":60,"max_workers":-2147483649})", "max_workers"},
      {R"({"cmd":"submit","total_work":60,"gpus_per_worker":2,"max_workers":0.5})",
       "max_workers"},
  };
  for (const std::string spec : {"0x1@1", "0x1@3"}) {
    ShardSet fleet = BuildTopology(spec);
    ShardRouter& router = *fleet.router;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(router.Execute(Submit(0.0, 90000.0)).GetBool("ok"));
    }
    ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));
    const auto jobs = [&router] {
      return router.Execute(Cmd("cluster_stats")).Find("jobs")->Dump();
    };
    const std::string before = jobs();
    for (const HostileSubmit& submit : table) {
      const JsonValue reply = router.Execute(JsonValue::Parse(submit.frame).value());
      EXPECT_EQ(reply.GetString("code"), "invalid_argument")
          << spec << " " << submit.frame << ": " << reply.Dump();
      EXPECT_NE(reply.GetString("error").find(std::string("\"") + submit.field + "\""),
                std::string::npos)
          << spec << " " << submit.frame << ": " << reply.Dump();
    }
    EXPECT_EQ(jobs(), before) << spec << ": a rejected submit created a job";

    const JsonValue accepted = router.Execute(JsonValue::Parse(
        R"({"cmd":"submit","total_work":60,"gpus_per_worker":"8","min_workers":null})")
                                                  .value());
    ASSERT_TRUE(accepted.GetBool("ok")) << spec << ": " << accepted.Dump();
    JsonValue query = Cmd("query_job");
    query.Set("job", *accepted.Find("job"));
    const JsonValue job = router.Execute(query);
    EXPECT_EQ(job.GetDouble("gpus_per_worker"), 1.0) << spec << ": " << job.Dump();
    StopFleet(fleet);
  }
}

// Every error about a job names the id the client sent: cancelling a
// finished job, or a job twice, answers "job <id> already terminated" with
// the fleet's id, never the simulator's own (global job 4 is job 1 of
// engine 1 on three engines).
TEST(Shard, CancelErrorsNameTheClientsJobId) {
  for (const std::string spec : {"0x1@3", "2x2"}) {
    ShardSet fleet = BuildTopology(spec);
    ShardRouter& router = *fleet.router;
    const int engines = router.shard_count();
    std::vector<std::int64_t> done;
    std::vector<std::int64_t> live;
    for (int i = 0; i < 8; ++i) {
      const JsonValue short_job = router.Execute(Submit(0.0, 60.0));
      const JsonValue long_job = router.Execute(Submit(0.0, 9.0e6));
      ASSERT_TRUE(short_job.GetBool("ok")) << short_job.Dump();
      ASSERT_TRUE(long_job.GetBool("ok")) << long_job.Dump();
      done.push_back(static_cast<std::int64_t>(short_job.GetDouble("job")));
      live.push_back(static_cast<std::int64_t>(long_job.GetDouble("job")));
    }
    // Some ids must differ from their engine's own, or the test shows
    // nothing.
    ASSERT_GE(*std::max_element(done.begin(), done.end()), engines) << spec;
    ASSERT_GE(*std::max_element(live.begin(), live.end()), engines) << spec;
    ASSERT_TRUE(router.Execute(Advance(36000.0)).GetBool("ok"));

    const auto expect_terminated = [&spec](const JsonValue& reply,
                                           std::int64_t id) {
      EXPECT_EQ(reply.GetString("code"), "failed_precondition")
          << spec << ": " << reply.Dump();
      EXPECT_EQ(reply.GetString("error"),
                "job " + std::to_string(id) + " already terminated")
          << spec << ": " << reply.Dump();
    };
    for (const std::int64_t id : done) {
      JsonValue query = Cmd("query_job");
      query.Set("job", JsonValue::MakeNumber(static_cast<double>(id)));
      ASSERT_EQ(router.Execute(query).GetString("state"), "finished")
          << spec << " job " << id;
      expect_terminated(router.Execute(Cancel(36000.0, id)), id);
    }
    for (const std::int64_t id : live) {
      const JsonValue first = router.Execute(Cancel(36000.0, id));
      ASSERT_TRUE(first.GetBool("ok")) << spec << ": " << first.Dump();
      EXPECT_EQ(first.GetDouble("job", -1.0), static_cast<double>(id));
      expect_terminated(router.Execute(Cancel(36000.0, id)), id);
    }
    StopFleet(fleet);
  }
}

// The merged metrics.engine of a fleet follows the registry's own rules:
// counters add; histograms merge like obs::Histogram (count, sum and
// buckets add, min takes the min and max the max over non-empty engines);
// gauges take the mean, so a fraction stays a fraction.
TEST(Shard, MergedEngineMetricsFollowTheRegistryRules) {
  ServiceOptions options = FleetOptions();
  options.metrics_refresh_ms = 0.0;  // every publish re-exports
  StatusOr<ShardSet> built =
      BuildShardSet(options, OneCluster(3), MakeVirtualDriver);
  ASSERT_TRUE(built.ok()) << built.status().message();
  ShardSet fleet = std::move(built.value());
  ShardRouter& router = *fleet.router;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(router.Execute(Submit(60.0 * i, 40000.0, 1 + i % 3))
                    .GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(30000.0)).GetBool("ok"));
  const JsonValue reply = router.Execute(Cmd("metrics"));
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  const JsonValue* merged = reply.Find("engine");
  ASSERT_NE(merged, nullptr);
  std::vector<std::shared_ptr<const JsonValue>> parts;
  for (int k = 0; k < router.shard_count(); ++k) {
    parts.push_back(router.shard(k)->snapshot()->engine_metrics);
    ASSERT_NE(parts.back(), nullptr);
  }
  const auto each = [&](const char* section, const std::string& name,
                        const auto& fn) {
    for (const auto& part : parts) {
      const JsonValue* values = part->Find(section);
      const JsonValue* value =
          values != nullptr ? values->Find(name) : nullptr;
      if (value != nullptr) {
        fn(*value);
      }
    }
  };

  const JsonValue* counters = merged->Find("counters");
  ASSERT_NE(counters, nullptr);
  for (const auto& [name, value] : counters->AsObject()) {
    double total = 0.0;
    each("counters", name, [&](const JsonValue& v) { total += v.AsDouble(); });
    EXPECT_EQ(value.AsDouble(), total) << name;
  }

  const JsonValue* gauges = merged->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  ASSERT_FALSE(gauges->AsObject().empty());
  for (const auto& [name, value] : gauges->AsObject()) {
    double total = 0.0;
    int n = 0;
    each("gauges", name, [&](const JsonValue& v) {
      total += v.AsDouble();
      ++n;
    });
    EXPECT_DOUBLE_EQ(value.AsDouble(), total / n) << name;
    if (name.find("fraction") != std::string::npos) {
      EXPECT_LE(value.AsDouble(), 1.0) << name;
    }
  }

  const JsonValue* histograms = merged->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  ASSERT_FALSE(histograms->AsObject().empty());
  for (const auto& [name, h] : histograms->AsObject()) {
    double buckets = 0.0;
    for (const JsonValue& b : h.Find("buckets")->AsArray()) {
      buckets += b.AsDouble();
    }
    EXPECT_EQ(buckets, h.GetDouble("count")) << name << ": " << h.Dump();
    double count = 0.0, sum = 0.0;
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    each("histograms", name, [&](const JsonValue& part) {
      count += part.GetDouble("count");
      sum += part.GetDouble("sum");
      if (part.GetDouble("count") > 0) {
        lo = std::min(lo, part.GetDouble("min"));
        hi = std::max(hi, part.GetDouble("max"));
      }
    });
    EXPECT_EQ(h.GetDouble("count"), count) << name;
    EXPECT_DOUBLE_EQ(h.GetDouble("sum"), sum) << name;
    if (count > 0) {
      EXPECT_EQ(h.GetDouble("min"), lo) << name;
      EXPECT_EQ(h.GetDouble("max"), hi) << name;
    }
  }
  StopFleet(fleet);

  // One engine's export passes through unchanged.
  ShardSet one = BuildFleet(1);
  ASSERT_TRUE(one.router->Execute(Submit(0.0, 40000.0)).GetBool("ok"));
  ASSERT_TRUE(one.router->Execute(Advance(600.0)).GetBool("ok"));
  const JsonValue single = one.router->Execute(Cmd("metrics"));
  ASSERT_NE(single.Find("engine"), nullptr) << single.Dump();
  EXPECT_EQ(single.Find("engine")->Dump(),
            one.router->shard(0)->snapshot()->engine_metrics->Dump());
  StopFleet(one);
}

}  // namespace
}  // namespace lyra::svc
