// Snapshot/warm-restart determinism: a service killed at any command
// boundary and restored from its snapshot must replay to the exact engine
// state — decision log and fault-log hash byte-for-byte equal to an
// uninterrupted run of the same command sequence. Also covers the snapshot
// container's corruption defenses (magic, version, checksum, truncation).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/envelope.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/svc/service.h"
#include "src/svc/snapshot.h"
#include "src/svc/time_driver.h"

namespace lyra::svc {
namespace {

std::string TempPath(const char* tag) {
  return "/tmp/lyra_snap_test_" + std::to_string(::getpid()) + "_" + tag;
}

JsonValue Submit(double at, double work, int max_workers = 1,
                 bool checkpointing = false) {
  JsonValue cmd = JsonValue::MakeObject();
  cmd.Set("cmd", JsonValue::MakeString("submit"));
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("gpus_per_worker", JsonValue::MakeNumber(1));
  cmd.Set("min_workers", JsonValue::MakeNumber(1));
  cmd.Set("max_workers", JsonValue::MakeNumber(max_workers));
  cmd.Set("total_work", JsonValue::MakeNumber(work));
  cmd.Set("fungible", JsonValue::MakeBool(true));
  cmd.Set("checkpointing", JsonValue::MakeBool(checkpointing));
  return cmd;
}

JsonValue Cancel(double at, int job) {
  JsonValue cmd = JsonValue::MakeObject();
  cmd.Set("cmd", JsonValue::MakeString("cancel"));
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("job", JsonValue::MakeNumber(job));
  return cmd;
}

JsonValue Advance(double to) {
  JsonValue cmd = JsonValue::MakeObject();
  cmd.Set("cmd", JsonValue::MakeString("advance"));
  cmd.Set("to", JsonValue::MakeNumber(to));
  return cmd;
}

JsonValue Drain() {
  JsonValue cmd = JsonValue::MakeObject();
  cmd.Set("cmd", JsonValue::MakeString("drain"));
  return cmd;
}

// A deterministic command script with enough variety to exercise arrivals,
// elastic scaling, cancels of pending and running jobs, and (with faults on)
// crash-driven preemptions.
std::vector<JsonValue> Script() {
  std::vector<JsonValue> script;
  script.push_back(Submit(0.0, 50000.0, /*max_workers=*/4));
  script.push_back(Submit(600.0, 200000.0));
  script.push_back(Submit(1200.0, 7200.0));
  script.push_back(Advance(3000.0));
  script.push_back(Cancel(3600.0, 1));
  script.push_back(Submit(5000.0, 100000.0, /*max_workers=*/2,
                          /*checkpointing=*/true));
  script.push_back(Advance(20000.0));
  script.push_back(Submit(30000.0, 40000.0, /*max_workers=*/8));
  script.push_back(Cancel(40000.0, 3));
  script.push_back(Drain());
  return script;
}

ServiceOptions SnapshotServiceOptions() {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.engine.faults = true;  // crashes/storms must replay exactly too
  options.engine.seed = 1234;
  options.auto_advance = false;
  return options;
}

struct RunOutcome {
  std::vector<DecisionRecord> decisions;
  std::uint64_t fault_hash = 0;
  TimeSec final_time = 0.0;
};

// Applies script[0..n) to a fresh service, snapshotting after `cut` commands
// into `snapshot_path` (when cut >= 0), and returns the final engine state.
RunOutcome RunScript(const std::vector<JsonValue>& script, int cut,
                     const std::string& snapshot_path) {
  SchedulerService service(SnapshotServiceOptions(),
                           std::make_unique<VirtualTimeDriver>());
  EXPECT_TRUE(service.Start().ok());
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (cut >= 0 && static_cast<std::size_t>(cut) == i) {
      JsonValue snap = JsonValue::MakeObject();
      snap.Set("cmd", JsonValue::MakeString("snapshot"));
      snap.Set("path", JsonValue::MakeString(snapshot_path));
      EXPECT_TRUE(service.Execute(snap).GetBool("ok"));
      service.Stop();  // the "kill": nothing after the cut reaches this run

      RunOutcome outcome;
      outcome.final_time = service.simulator().now();
      return outcome;
    }
    const JsonValue reply = service.Execute(script[i]);
    EXPECT_TRUE(reply.GetBool("ok")) << "cmd " << i << ": " << reply.Dump();
  }
  service.Stop();
  RunOutcome outcome;
  outcome.decisions = service.simulator().decision_log().records();
  const FaultInjector* faults = service.simulator().fault_injector();
  outcome.fault_hash = faults != nullptr ? faults->log_hash() : 0;
  outcome.final_time = service.simulator().now();
  return outcome;
}

// Restores from `snapshot_path` and applies script[cut..n).
RunOutcome ResumeScript(const std::vector<JsonValue>& script, int cut,
                        const std::string& snapshot_path) {
  ServiceOptions options = SnapshotServiceOptions();
  // Deliberately wrong engine settings: the snapshot's config must win, or
  // the replayed engine would diverge.
  options.engine.scheduler = "fifo";
  options.engine.seed = 1;
  options.engine.faults = false;
  SchedulerService service(options, std::make_unique<VirtualTimeDriver>());
  EXPECT_TRUE(service.Restore(snapshot_path).ok());
  EXPECT_EQ(service.options().engine.scheduler, "lyra");
  EXPECT_EQ(service.options().engine.seed, 1234u);
  for (std::size_t i = static_cast<std::size_t>(cut); i < script.size(); ++i) {
    const JsonValue reply = service.Execute(script[i]);
    EXPECT_TRUE(reply.GetBool("ok")) << "cmd " << i << ": " << reply.Dump();
  }
  service.Stop();
  RunOutcome outcome;
  outcome.decisions = service.simulator().decision_log().records();
  const FaultInjector* faults = service.simulator().fault_injector();
  outcome.fault_hash = faults != nullptr ? faults->log_hash() : 0;
  outcome.final_time = service.simulator().now();
  return outcome;
}

TEST(Snapshot, WarmRestartReplaysToIdenticalDecisionLog) {
  const std::vector<JsonValue> script = Script();
  const RunOutcome baseline = RunScript(script, /*cut=*/-1, "");
  ASSERT_FALSE(baseline.decisions.empty());

  // Cut at the ends plus random interior command boundaries.
  Rng rng(99);
  std::vector<int> cuts = {0, static_cast<int>(script.size()) - 1};
  for (int i = 0; i < 4; ++i) {
    cuts.push_back(
        static_cast<int>(rng.UniformInt(1, static_cast<int>(script.size()) - 2)));
  }
  for (const int cut : cuts) {
    const std::string path = TempPath(("cut" + std::to_string(cut)).c_str());
    RunScript(script, cut, path);
    const RunOutcome resumed = ResumeScript(script, cut, path);
    EXPECT_EQ(resumed.decisions.size(), baseline.decisions.size())
        << "cut=" << cut;
    EXPECT_TRUE(resumed.decisions == baseline.decisions)
        << "decision log diverged after restore at cut=" << cut;
    EXPECT_EQ(resumed.fault_hash, baseline.fault_hash)
        << "fault log diverged after restore at cut=" << cut;
    EXPECT_DOUBLE_EQ(resumed.final_time, baseline.final_time) << "cut=" << cut;
    std::remove(path.c_str());
  }
}

TEST(Snapshot, ContainerRoundTripPreservesEverything) {
  ServiceSnapshot snapshot;
  snapshot.config.scheduler = "pollux";
  snapshot.config.reclaim = "scf";
  snapshot.config.loaning = false;
  snapshot.config.faults = true;
  snapshot.config.scale = 0.125;
  snapshot.config.horizon_days = 12.5;
  snapshot.config.seed = 0xdeadbeefcafe;

  LoggedCommand submit;
  submit.kind = CommandKind::kSubmit;
  submit.stamp = 123.5;
  submit.spec.gpus_per_worker = 2;
  submit.spec.min_workers = 1;
  submit.spec.max_workers = 8;
  submit.spec.requested_workers = 4;
  submit.spec.fungible = true;
  submit.spec.checkpointing = true;
  submit.spec.model = ModelFamily::kBert;
  submit.spec.total_work = 98765.25;
  submit.spec.submit_time = 123.5;
  snapshot.commands.push_back(submit);

  LoggedCommand cancel;
  cancel.kind = CommandKind::kCancel;
  cancel.stamp = 500.0;
  cancel.job = 0;
  snapshot.commands.push_back(cancel);

  LoggedCommand advance;
  advance.kind = CommandKind::kAdvance;
  advance.stamp = 1e6;
  snapshot.commands.push_back(advance);

  LoggedCommand drain;
  drain.kind = CommandKind::kDrain;
  drain.stamp = 2e6;
  snapshot.commands.push_back(drain);
  snapshot.horizon = 2e6;

  const std::string path = TempPath("roundtrip");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  StatusOr<ServiceSnapshot> loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded.value().config == snapshot.config);
  EXPECT_TRUE(loaded.value().commands == snapshot.commands);
  EXPECT_DOUBLE_EQ(loaded.value().horizon, snapshot.horizon);
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptionIsDetected) {
  ServiceSnapshot snapshot;
  LoggedCommand advance;
  advance.kind = CommandKind::kAdvance;
  advance.stamp = 100.0;
  snapshot.commands.push_back(advance);
  snapshot.horizon = 100.0;

  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(SaveSnapshot(snapshot, path).ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 24u);

  auto write_bytes = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  };

  // Flipped payload byte: checksum mismatch.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] = static_cast<char>(flipped[bytes.size() / 2] ^ 0x5a);
  write_bytes(flipped);
  EXPECT_FALSE(LoadSnapshot(path).ok());

  // Truncation mid-payload.
  write_bytes(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(LoadSnapshot(path).ok());

  // Wrong magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  write_bytes(bad_magic);
  EXPECT_FALSE(LoadSnapshot(path).ok());

  // Future version: refused by the version gate, not misparsed.
  std::string bad_version = bytes;
  bad_version[8] = 0x7f;
  write_bytes(bad_version);
  EXPECT_FALSE(LoadSnapshot(path).ok());

  // Trailing garbage after the checksum: rejected, not ignored.
  write_bytes(bytes + "junk");
  EXPECT_FALSE(LoadSnapshot(path).ok());

  // Intact bytes still load (the helpers above did not wreck the fixture).
  write_bytes(bytes);
  EXPECT_TRUE(LoadSnapshot(path).ok());

  std::remove(path.c_str());

  // Missing file.
  EXPECT_FALSE(LoadSnapshot(TempPath("missing")).ok());
}

// A checksum-valid payload can still lie: a command count near 2^62 must
// fail as DataLoss when the commands run out, not abort in an up-front
// allocation sized by the count.
TEST(Snapshot, HostileCommandCountIsDataLoss) {
  ServiceSnapshot snapshot;
  snapshot.horizon = 5.0;
  StatusOr<std::string> payload =
      OpenEnvelope(EncodeSnapshot(snapshot), "LYRASNAP", kSnapshotVersion, "t");
  ASSERT_TRUE(payload.ok()) << payload.status().message();
  // With no commands the payload ends in the u64 count and the f64 horizon.
  std::string lying = payload.value();
  lying[lying.size() - 9] = 0x40;  // count = 2^62
  const StatusOr<ServiceSnapshot> decoded = DecodeSnapshot(
      SealEnvelope("LYRASNAP", kSnapshotVersion, lying), "hostile count");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace lyra::svc
