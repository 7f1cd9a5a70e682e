// Byte-level format pins. Round-trip tests pass even when an encoder drifts
// (encode and decode drift together), so this test encodes one fixed input
// in each persisted format — LYRASNAP, LYRASHRD, LYRAFED, LYRAPOL — and
// asserts the exact FNV-1a of every image, plus the three rolling/routing
// hashes that are persisted or replayed (router key hash, fault-log hash,
// loan-ledger hash). A refactor of the codecs or the hash must leave every
// constant here unchanged; a deliberate format change bumps the version and
// re-pins.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/rl/policy.h"
#include "src/sim/faults.h"
#include "src/svc/federation.h"
#include "src/svc/shard_router.h"
#include "src/svc/snapshot.h"

namespace lyra::svc {
namespace {

// Reference FNV-1a, written out here on purpose: the pins must not depend on
// the implementation under test.
std::uint64_t ReferenceFnv1a(const std::string& data) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

ServiceSnapshot FixedSnapshot(std::uint64_t seed) {
  ServiceSnapshot snapshot;
  snapshot.config.scheduler = "lyra";
  snapshot.config.reclaim = "lyra";
  snapshot.config.policy_weights = "weights.lyrapol";
  snapshot.config.info_agnostic = true;
  snapshot.config.tuned = false;
  snapshot.config.loaning = true;
  snapshot.config.lstm = false;
  snapshot.config.faults = true;
  snapshot.config.scale = 0.05;
  snapshot.config.horizon_days = 1.5;
  snapshot.config.seed = seed;

  LoggedCommand submit;
  submit.kind = CommandKind::kSubmit;
  submit.stamp = 12.5;
  submit.spec.submit_time = 12.5;
  submit.spec.gpus_per_worker = 8;
  submit.spec.min_workers = 1;
  submit.spec.max_workers = 4;
  submit.spec.requested_workers = 2;
  submit.spec.fungible = true;
  submit.spec.heterogeneous = false;
  submit.spec.checkpointing = true;
  submit.spec.model = ModelFamily::kBert;
  submit.spec.total_work = 3600.25;
  snapshot.commands.push_back(submit);

  LoggedCommand cancel;
  cancel.kind = CommandKind::kCancel;
  cancel.stamp = 40.0;
  cancel.job = 3;
  snapshot.commands.push_back(cancel);

  LoggedCommand advance;
  advance.kind = CommandKind::kAdvance;
  advance.stamp = 100.0;
  snapshot.commands.push_back(advance);

  LoggedCommand drain;
  drain.kind = CommandKind::kDrain;
  drain.stamp = 250.75;
  snapshot.commands.push_back(drain);

  snapshot.horizon = 1234.5;
  return snapshot;
}

MultiSnapshot FixedMultiSnapshot() {
  MultiSnapshot snapshot;
  snapshot.submit_seq = 17;
  snapshot.shard_images = {EncodeSnapshot(FixedSnapshot(7)),
                           EncodeSnapshot(FixedSnapshot(8))};
  return snapshot;
}

TEST(FormatPin, LyraSnapImage) {
  const std::string image = EncodeSnapshot(FixedSnapshot(7));
  EXPECT_EQ(image.size(), 188u);
  EXPECT_EQ(ReferenceFnv1a(image), 2425482924187587278ull);
}

TEST(FormatPin, LyraShrdImage) {
  const std::string image = EncodeMultiSnapshot(FixedMultiSnapshot());
  ASSERT_EQ(image.compare(0, 8, "LYRASHRD"), 0);
  EXPECT_EQ(image.size(), 432u);
  EXPECT_EQ(ReferenceFnv1a(image), 1131589826273802364ull);
}

TEST(FormatPin, LyraFedImage) {
  FedSnapshot snapshot;
  snapshot.submit_seq = 9;
  snapshot.ledger.next_loan_id = 2;
  snapshot.ledger.total_granted = 24;
  snapshot.ledger.total_reclaimed = 4;
  snapshot.ledger.total_returned = 0;
  snapshot.ledger.ledger_hash = 0x0123456789abcdefull;
  FedLoan first;
  first.id = 0;
  first.lender = 0;
  first.borrower = 1;
  first.gpus = 16;
  first.granted_at = 60.0;
  FedLoan second;
  second.id = 1;
  second.lender = 0;
  second.borrower = 1;
  second.gpus = 8;
  second.granted_at = 120.5;
  snapshot.ledger.loans = {first, second};

  FedClusterImage inference;
  inference.name = "inf0";
  inference.kind = 0;
  inference.loan_priority = 2;
  inference.shards = 1;
  inference.image = EncodeSnapshot(FixedSnapshot(7));
  FedClusterImage training;
  training.name = "train0";
  training.kind = 1;
  training.loan_priority = -1;
  training.shards = 2;
  training.image = EncodeMultiSnapshot(FixedMultiSnapshot());
  snapshot.clusters = {inference, training};

  const std::string image = EncodeFedSnapshot(snapshot);
  EXPECT_EQ(image.size(), 828u);
  EXPECT_EQ(ReferenceFnv1a(image), 1967446887585590211ull);
}

TEST(FormatPin, LyraPolImage) {
  const rl::PolicyNet policy;
  const std::string image = policy.Encode();
  EXPECT_EQ(image.size(), 5328u);
  EXPECT_EQ(ReferenceFnv1a(image), 8582709888110425901ull);
  EXPECT_EQ(policy.WeightsHash(), ReferenceFnv1a(image));
}

TEST(FormatPin, RouterKeyHash) {
  const std::string key = "tenant-a";
  EXPECT_EQ(ShardRouter::Hash(key.data(), key.size()),
            14046587775414411003ull);
  EXPECT_EQ(ShardRouter::Hash(key.data(), key.size()), ReferenceFnv1a(key));
}

TEST(FormatPin, FaultLogHash) {
  FaultOptions options;
  options.enabled = true;
  FaultInjector injector(options);
  injector.Record({10.0, FaultKind::kServerCrash, 3, 2});
  injector.Record({250.5, FaultKind::kServerRecovery, 3, 0});
  injector.Record({300.0, FaultKind::kStragglerStart, 41, 1});
  EXPECT_EQ(injector.log_hash(), 3136362638852665563ull);
}

TEST(FormatPin, LoanLedgerHash) {
  std::vector<LoanBroker::ClusterSignal> signals(2);
  signals[0].kind = ClusterKind::kInference;
  signals[0].total_gpus = 256;
  signals[0].free_gpus = 200;
  signals[1].kind = ClusterKind::kTraining;
  signals[1].pending_jobs = 40;
  LoanBroker broker;
  broker.Evaluate(100.0, signals);
  ASSERT_FALSE(broker.ledger().loans.empty());
  EXPECT_EQ(broker.ledger_hash(), 11428592205371920356ull);
}

}  // namespace
}  // namespace lyra::svc
