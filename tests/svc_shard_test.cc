// Engine-sharding tests (DESIGN.md §10): deterministic routing (same key /
// same job id always lands on the same shard, global↔local id arithmetic
// round-trips), merged reads (cluster_stats across shards equals the sum of
// the per-shard snapshots), the LYRASHRD multi-snapshot container (round
// trip, one-shard degradation to plain LYRASNAP, corruption defenses), a
// randomized kill-and-warm-restart at --shards=4 that must reproduce every
// shard's decision log byte-for-byte, and pipelined reply ordering over the
// sharded event loop.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
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

TEST(Shard, JobIdArithmeticRoundTripsAndEncodesTheShard) {
  ShardSet fleet = BuildFleet(kShards);
  const ShardRouter& router = *fleet.router;
  for (std::int64_t local = 0; local < 100; ++local) {
    for (std::uint32_t shard = 0; shard < kShards; ++shard) {
      const std::int64_t global = router.ToGlobal(local, shard);
      EXPECT_EQ(router.ShardOfJob(global), shard);
      EXPECT_EQ(router.ToLocal(global), local);
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
    EXPECT_EQ(router.ShardOfJob(ids[i]), expected) << "id " << ids[i];
    // And on that shard, local ids are the engine's plain sequence.
    EXPECT_EQ(router.ToLocal(ids[i]), static_cast<std::int64_t>(i));
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
  const std::int64_t missing = router.ToGlobal(9999, expected);
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

}  // namespace
}  // namespace lyra::svc
