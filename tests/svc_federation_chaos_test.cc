// Federation chaos: a seeded random op stream (submits across clusters and
// kinds, cancels, cross-cluster migrations, time advances) over a 2x2
// federation with fault injection on, run once uninterrupted and then
// repeatedly killed at random points and warm-restarted from the LYRAFED
// snapshot. Every restart must reproduce the uninterrupted run byte-for-byte:
// per-engine decision logs, fault-injector log hashes, final engine times,
// and the broker's loan ledger (rolling hash included). One cut is pinned
// mid-loan so crash/restore reconciliation of an active loan is always
// exercised. Every op is followed by a read, so the merged reads see every
// intermediate state; the sanitized build variant
// (svc_federation_chaos_sanitized_test) runs the same stream with the
// router, broker and read-path translation units under ASan+UBSan.
//
// LYRA_CHAOS_OPS=<n> scales the random op count (default 80).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/svc/federation.h"
#include "src/svc/service.h"
#include "src/svc/shard_router.h"
#include "src/svc/snapshot.h"
#include "src/svc/time_driver.h"

namespace lyra::svc {
namespace {

// 2x2: engines inf0=0, inf1=1, train0=2, train1=3.
constexpr int kEngines = 4;
constexpr std::uint32_t kTrain0 = 2;
constexpr std::uint32_t kTrain1 = 3;

std::string TempPath(const char* tag) {
  return "/tmp/lyra_fedchaos_" + std::to_string(::getpid()) + "_" + tag;
}

JsonValue Cmd(const char* cmd) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("cmd", JsonValue::MakeString(cmd));
  return request;
}

ServiceOptions ChaosOptions() {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.engine.faults = true;  // crash storms must replay exactly too
  options.engine.seed = 777;
  options.auto_advance = false;
  return options;
}

std::unique_ptr<TimeDriver> MakeVirtualDriver(int /*shard*/) {
  return std::make_unique<VirtualTimeDriver>();
}

ShardSet BuildChaosFed() {
  StatusOr<std::vector<ClusterSpec>> clusters = ParseFederationSpec("2x2");
  EXPECT_TRUE(clusters.ok());
  StatusOr<ShardSet> built =
      BuildShardSet(ChaosOptions(), clusters.value(), MakeVirtualDriver);
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built.value());
}

void StopFed(ShardSet& fed) {
  for (auto& service : fed.services) {
    service->Stop();
  }
}

std::uint64_t HashSeqMirror(std::uint64_t seq) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((seq >> (8 * i)) & 0xff);
  }
  return ShardRouter::Hash(bytes, sizeof(bytes));
}

// The pre-generated op stream plus, for submits and migrates, the global job
// id the router must hand back — mirrored from the routing discipline so the
// baseline run, every killed run, and every resumed run are all checked
// against the same independent prediction.
struct ChaosScript {
  std::vector<JsonValue> commands;
  std::vector<std::int64_t> expected_job;  // -1 for non-submit/migrate ops
  int first_barrier = -1;                  // index of the loan-forcing advance
};

ChaosScript MakeChaosScript(int ops) {
  ChaosScript script;
  Rng rng(20260808);
  std::uint64_t seq = 0;                      // federated keyless counter
  std::vector<std::int64_t> local(kEngines, 0);
  // Live (uncancelled, unmigrated) jobs and the engine each lives on.
  std::vector<std::int64_t> live;
  double now = 0.0;

  const auto push = [&](JsonValue command, std::int64_t expect) {
    script.commands.push_back(std::move(command));
    script.expected_job.push_back(expect);
  };
  const std::vector<std::uint32_t> kKind[2] = {{0, 1}, {2, 3}};
  const char* kClusterName[kEngines] = {"inf0", "inf1", "train0", "train1"};

  const auto submit = [&](const std::vector<std::uint32_t>& targets,
                          JsonValue command, const char* key) {
    std::uint32_t engine;
    if (key != nullptr) {
      command.Set("key", JsonValue::MakeString(key));
      engine = targets[ShardRouter::Hash(key, std::string(key).size()) %
                       targets.size()];
    } else {
      engine = targets[HashSeqMirror(seq++) % targets.size()];
    }
    const std::int64_t id = local[engine]++ * kEngines + engine;
    if (engine >= kTrain0) {
      live.push_back(id);
    }
    push(std::move(command), id);
  };

  const auto make_submit = [&](double work, int gpw, int min_w, int max_w,
                               bool fungible) {
    JsonValue command = Cmd("submit");
    command.Set("at", JsonValue::MakeNumber(now));
    command.Set("gpus_per_worker", JsonValue::MakeNumber(gpw));
    command.Set("min_workers", JsonValue::MakeNumber(min_w));
    command.Set("max_workers", JsonValue::MakeNumber(max_w));
    command.Set("total_work", JsonValue::MakeNumber(work));
    if (fungible) {
      command.Set("fungible", JsonValue::MakeBool(true));
    }
    return command;
  };

  // Preamble: unplaceable training demand so the first advance grants loans
  // (and stays granted across the pinned mid-loan cut).
  for (int i = 0; i < 25; ++i) {
    JsonValue command = make_submit(999999.0, 64, 100, 100, false);
    command.Set("cluster", JsonValue::MakeString("train0"));
    submit({kTrain0}, std::move(command), nullptr);
  }
  now = 50.0;
  script.first_barrier = static_cast<int>(script.commands.size());
  {
    JsonValue advance = Cmd("advance");
    advance.Set("to", JsonValue::MakeNumber(now));
    push(std::move(advance), -1);
  }

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = rng.NextU64() % 10;
    if (kind < 4) {  // submit, mixed targeting
      JsonValue command = make_submit(
          rng.Uniform(300000.0, 900000.0),
          static_cast<int>(rng.UniformInt(1, 8)), 1,
          static_cast<int>(rng.UniformInt(1, 4)), rng.NextBernoulli(0.5));
      const std::uint64_t mode = rng.NextU64() % 4;
      const char* key = rng.NextBernoulli(0.2) ? "chaos-key" : nullptr;
      if (mode == 0) {  // explicit cluster name
        const int c = static_cast<int>(rng.UniformInt(0, kEngines - 1));
        command.Set("cluster", JsonValue::MakeString(kClusterName[c]));
        submit({static_cast<std::uint32_t>(c)}, std::move(command), key);
      } else if (mode == 1) {  // explicit numeric cluster index
        const int c = static_cast<int>(rng.UniformInt(0, kEngines - 1));
        command.Set("cluster", JsonValue::MakeNumber(c));
        submit({static_cast<std::uint32_t>(c)}, std::move(command), key);
      } else if (mode == 2) {  // by kind
        const int k = rng.NextBernoulli(0.5) ? 0 : 1;
        command.Set("kind", JsonValue::MakeString(k == 0 ? "inference"
                                                         : "training"));
        submit(kKind[k], std::move(command), key);
      } else {  // untargeted -> training default
        submit(kKind[1], std::move(command), key);
      }
    } else if (kind < 6 && !live.empty()) {  // cancel a live training job
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      JsonValue command = Cmd("cancel");
      command.Set("at", JsonValue::MakeNumber(now));
      command.Set("job",
                  JsonValue::MakeNumber(static_cast<double>(live[pick])));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      push(std::move(command), -1);
    } else if (kind < 7 && !live.empty()) {  // migrate train0 <-> train1
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      const std::int64_t from = live[pick];
      const std::uint32_t dest_engine =
          static_cast<std::uint32_t>(from % kEngines) == kTrain0 ? kTrain1
                                                                 : kTrain0;
      JsonValue command = Cmd("migrate");
      command.Set("job", JsonValue::MakeNumber(static_cast<double>(from)));
      command.Set("to",
                  JsonValue::MakeString(kClusterName[dest_engine]));
      // The resubmit consumes the destination engine's local counter, never
      // the federated submit counter.
      const std::int64_t moved = local[dest_engine]++ * kEngines + dest_engine;
      live[pick] = moved;
      push(std::move(command), moved);
    } else {  // advance the barrier (broker round)
      now += rng.Uniform(200.0, 4000.0);
      JsonValue advance = Cmd("advance");
      advance.Set("to", JsonValue::MakeNumber(now));
      push(std::move(advance), -1);
    }
  }
  push(Cmd("drain"), -1);
  return script;
}

struct ChaosOutcome {
  std::vector<std::vector<DecisionRecord>> decisions;
  std::vector<std::uint64_t> fault_hashes;
  std::vector<double> final_times;
  FedLedger ledger;
  std::size_t loans_at_cut = 0;
};

void Collect(const ShardSet& fed, ChaosOutcome& outcome) {
  for (const auto& service : fed.services) {
    outcome.decisions.push_back(service->simulator().decision_log().records());
    const FaultInjector* faults = service->simulator().fault_injector();
    outcome.fault_hashes.push_back(faults != nullptr ? faults->log_hash() : 0);
    outcome.final_times.push_back(service->simulator().now());
  }
  outcome.ledger = fed.router->LedgerCopy();
}

// Every op is followed by one read, rotating over the read commands, so the
// merged reads run against every intermediate fleet state. Reads never touch
// engine state, so the replay comparison is unaffected.
void ApplySlice(ShardRouter& router, const ChaosScript& script,
                std::size_t begin, std::size_t end, const char* label) {
  static constexpr const char* kReads[] = {"cluster_stats", "metrics", "ping",
                                           "federation_stats", "stats_prom",
                                           "query_job"};
  for (std::size_t i = begin; i < end; ++i) {
    const JsonValue reply = router.Execute(script.commands[i]);
    ASSERT_TRUE(reply.GetBool("ok"))
        << label << " op " << i << ": " << reply.Dump();
    if (script.expected_job[i] >= 0) {
      ASSERT_EQ(reply.GetDouble("job", -1.0),
                static_cast<double>(script.expected_job[i]))
          << label << " op " << i << " routed off the mirror: "
          << reply.Dump();
    }
    JsonValue read = Cmd(kReads[i % std::size(kReads)]);
    read.Set("job", JsonValue::MakeNumber(reply.GetDouble("job", 0.0)));
    const JsonValue answer = router.Execute(read);
    ASSERT_TRUE(answer.GetBool("ok"))
        << label << " read after op " << i << ": " << answer.Dump();
  }
}

// Runs script[0..cut), snapshots into `path`, and stops the fleet cold —
// the "kill". Returns the broker state observed at the cut.
ChaosOutcome RunUntilKill(const ChaosScript& script, int cut,
                          const std::string& path) {
  ShardSet fed = BuildChaosFed();
  ChaosOutcome outcome;
  ApplySlice(*fed.router, script, 0, static_cast<std::size_t>(cut), "prefix");
  outcome.loans_at_cut = fed.router->LedgerCopy().loans.size();
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  const JsonValue reply = fed.router->Execute(snap);
  EXPECT_TRUE(reply.GetBool("ok")) << reply.Dump();
  EXPECT_EQ(reply.GetDouble("clusters", 0.0), 4.0);
  StopFed(fed);
  Collect(fed, outcome);
  return outcome;
}

// Restores from `path` (under deliberately wrong base knobs — the persisted
// engine configs and cluster layout must win) and replays script[cut..n).
ChaosOutcome ResumeAfterKill(const ChaosScript& script, int cut,
                             const std::string& path) {
  ServiceOptions base = ChaosOptions();
  base.engine.seed = 1;
  base.engine.faults = false;
  StatusOr<ShardSet> restored =
      RestoreShardSet(base, path, MakeVirtualDriver);
  ChaosOutcome outcome;
  EXPECT_TRUE(restored.ok()) << restored.status().message();
  if (!restored.ok()) {
    return outcome;
  }
  ShardSet fed = std::move(restored.value());
  EXPECT_EQ(fed.router->cluster_count(), 4);
  EXPECT_EQ(fed.router->shard_count(), kEngines);
  ApplySlice(*fed.router, script, static_cast<std::size_t>(cut),
             script.commands.size(), "resume");
  StopFed(fed);
  Collect(fed, outcome);
  return outcome;
}

TEST(FederationChaos, RandomKillAndWarmRestartReplaysByteForByte) {
  int ops = 80;
  if (const char* env = std::getenv("LYRA_CHAOS_OPS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) {
      ops = parsed;
    }
  }
  const ChaosScript script = MakeChaosScript(ops);
  const int n = static_cast<int>(script.commands.size());

  ShardSet fed = BuildChaosFed();
  ChaosOutcome baseline;
  ApplySlice(*fed.router, script, 0, static_cast<std::size_t>(n), "baseline");
  StopFed(fed);
  Collect(fed, baseline);
  ASSERT_EQ(baseline.decisions.size(), static_cast<std::size_t>(kEngines));
  for (int k = 0; k < kEngines; ++k) {
    EXPECT_FALSE(baseline.decisions[k].empty())
        << "engine " << k << " saw no work — the stream is too thin";
  }
  EXPECT_GT(baseline.ledger.total_granted, 0u)
      << "the stream never exercised the loan broker";

  // Cut positions: pinned right after the loan-forcing barrier (mid-loan
  // crash), the very start, just before the drain, and random interior ones.
  Rng rng(4242);
  std::vector<int> cuts = {script.first_barrier + 1, 0, n - 1};
  for (int i = 0; i < 3; ++i) {
    cuts.push_back(static_cast<int>(rng.UniformInt(1, n - 2)));
  }
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    const int cut = cuts[c];
    const std::string path =
        TempPath(("cut" + std::to_string(cut)).c_str());
    const ChaosOutcome killed = RunUntilKill(script, cut, path);
    if (cut == script.first_barrier + 1) {
      EXPECT_GT(killed.loans_at_cut, 0u)
          << "the pinned cut must land while loans are active";
    }
    const ChaosOutcome resumed = ResumeAfterKill(script, cut, path);
    ASSERT_EQ(resumed.decisions.size(), static_cast<std::size_t>(kEngines))
        << "cut=" << cut;
    for (int k = 0; k < kEngines; ++k) {
      EXPECT_EQ(resumed.decisions[k].size(), baseline.decisions[k].size())
          << "cut=" << cut << " engine=" << k;
      EXPECT_TRUE(resumed.decisions[k] == baseline.decisions[k])
          << "decision log diverged after restore at cut=" << cut
          << " engine=" << k;
      EXPECT_EQ(resumed.fault_hashes[k], baseline.fault_hashes[k])
          << "cut=" << cut << " engine=" << k;
      EXPECT_DOUBLE_EQ(resumed.final_times[k], baseline.final_times[k])
          << "cut=" << cut << " engine=" << k;
    }
    EXPECT_TRUE(resumed.ledger == baseline.ledger)
        << "loan ledger diverged after restore at cut=" << cut
        << " (baseline hash " << baseline.ledger.ledger_hash
        << ", resumed " << resumed.ledger.ledger_hash << ")";
    std::remove(path.c_str());
  }
}

// A crash can persist a loan whose endpoints no longer exist after the
// snapshot is restored into a reshaped federation; restore-time
// reconciliation must drop exactly those loans and keep the rest.
TEST(FederationChaos, RestoreReconciliationDropsOrphanedLoans) {
  ShardSet fed = BuildChaosFed();
  FedLedger forged = fed.router->LedgerCopy();
  FedLoan good;
  good.id = 1;
  good.lender = 0;
  good.borrower = 2;
  good.gpus = 8;
  good.granted_at = 10.0;
  FedLoan orphan = good;
  orphan.id = 2;
  orphan.borrower = 9;  // no such cluster
  forged.next_loan_id = 3;
  forged.total_granted = 16;
  forged.loans = {good, orphan};
  fed.router->RestoreLedger(forged);
  fed.router->ReconcileBroker();
  const FedLedger after = fed.router->LedgerCopy();
  ASSERT_EQ(after.loans.size(), 1u);
  EXPECT_TRUE(after.loans[0] == good);
  bool saw_drop = false;
  for (const std::string& event : fed.router->RecentEvents()) {
    saw_drop = saw_drop || event.find(" drop ") != std::string::npos;
  }
  EXPECT_TRUE(saw_drop) << "orphaned loan must be dropped with a ledger event";
  StopFed(fed);
}

}  // namespace
}  // namespace lyra::svc
