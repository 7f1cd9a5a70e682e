// Multi-cluster federation conformance tests (DESIGN.md §11): spec parsing,
// deterministic cluster routing (explicit cluster / kind targets, keyed and
// keyless, pipelined over the event loop), global-id arithmetic across
// federation × shards, loan-broker ledger invariants (grants never dip into
// the lender's reserve, GPU accounting balances, every event folds into the
// rolling hash), checkpoint-cost-charged migration between training
// clusters, the plain-service compatibility contract (a one-cluster
// federation answers byte-for-byte like an unsharded SchedulerService and
// writes the identical LYRASNAP file), and a golden-trace regression pinning
// Lyra's single inference + single training loan semantics.
//
// To regenerate the golden fixture after an *intentional* behaviour change:
//   LYRA_UPDATE_GOLDEN=1 ./svc_federation_test
// and commit tests/golden/federation_pair.golden with an explanation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/svc/event_loop.h"
#include "src/svc/federation.h"
#include "src/svc/prom.h"
#include "src/svc/service.h"
#include "src/svc/shard_router.h"
#include "src/svc/snapshot.h"
#include "src/svc/time_driver.h"
#include "src/svc/wire.h"

namespace lyra::svc {
namespace {

#ifndef LYRA_GOLDEN_DIR
#error "LYRA_GOLDEN_DIR must be defined by the build"
#endif

constexpr const char* kPairFixture = LYRA_GOLDEN_DIR "/federation_pair.golden";

std::string TempPath(const char* tag) {
  return "/tmp/lyra_fed_test_" + std::to_string(::getpid()) + "_" + tag;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// True when the file at `path` starts with the LYRAFED container magic.
bool IsFedSnapshotFile(const std::string& path) {
  return ReadFileBytes(path).substr(0, 8) == "LYRAFED_";
}

JsonValue Cmd(const char* cmd) {
  JsonValue request = JsonValue::MakeObject();
  request.Set("cmd", JsonValue::MakeString(cmd));
  return request;
}

JsonValue Submit(double at, double work, int gpus_per_worker = 1,
                 int min_workers = 1, int max_workers = 1) {
  JsonValue cmd = Cmd("submit");
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("gpus_per_worker", JsonValue::MakeNumber(gpus_per_worker));
  cmd.Set("min_workers", JsonValue::MakeNumber(min_workers));
  cmd.Set("max_workers", JsonValue::MakeNumber(max_workers));
  cmd.Set("total_work", JsonValue::MakeNumber(work));
  return cmd;
}

JsonValue SubmitTo(const char* cluster, double at, double work,
                   int gpus_per_worker = 1, int min_workers = 1,
                   int max_workers = 1) {
  JsonValue cmd = Submit(at, work, gpus_per_worker, min_workers, max_workers);
  cmd.Set("cluster", JsonValue::MakeString(cluster));
  return cmd;
}

JsonValue Advance(double to) {
  JsonValue cmd = Cmd("advance");
  cmd.Set("to", JsonValue::MakeNumber(to));
  return cmd;
}

JsonValue Cancel(double at, std::int64_t job) {
  JsonValue cmd = Cmd("cancel");
  cmd.Set("at", JsonValue::MakeNumber(at));
  cmd.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  return cmd;
}

JsonValue Migrate(std::int64_t job, const char* to) {
  JsonValue cmd = Cmd("migrate");
  cmd.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  cmd.Set("to", JsonValue::MakeString(to));
  return cmd;
}

ServiceOptions BaseOptions() {
  ServiceOptions options;
  options.engine.scale = 0.05;
  options.engine.seed = 4321;
  options.auto_advance = false;
  return options;
}

std::unique_ptr<TimeDriver> MakeVirtualDriver(int /*shard*/) {
  return std::make_unique<VirtualTimeDriver>();
}

ShardSet BuildFed(const std::string& spec) {
  StatusOr<std::vector<ClusterSpec>> clusters = ParseFederationSpec(spec);
  EXPECT_TRUE(clusters.ok()) << clusters.status().message();
  StatusOr<ShardSet> built =
      BuildShardSet(BaseOptions(), clusters.value(), MakeVirtualDriver);
  EXPECT_TRUE(built.ok()) << built.status().message();
  return std::move(built.value());
}

void StopFed(ShardSet& fed) {
  for (auto& service : fed.services) {
    service->Stop();
  }
}

// Mirror of the router's keyless in-cluster pick: FNV-1a over the sequence
// number's 8 little-endian bytes, reduced modulo the target set size.
// Recomputed here so the tests predict every submit's engine (and global id)
// independently of the router.
std::uint64_t HashSeqMirror(std::uint64_t seq) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((seq >> (8 * i)) & 0xff);
  }
  return ShardRouter::Hash(bytes, sizeof(bytes));
}

TEST(Federation, SpecParsingCompactAndExplicitForms) {
  StatusOr<std::vector<ClusterSpec>> compact = ParseFederationSpec("2x3");
  ASSERT_TRUE(compact.ok()) << compact.status().message();
  ASSERT_EQ(compact.value().size(), 5u);
  EXPECT_EQ(compact.value()[0].name, "inf0");
  EXPECT_EQ(compact.value()[1].name, "inf1");
  EXPECT_EQ(compact.value()[2].name, "train0");
  EXPECT_EQ(compact.value()[4].name, "train2");
  EXPECT_EQ(compact.value()[0].kind, ClusterKind::kInference);
  EXPECT_EQ(compact.value()[2].kind, ClusterKind::kTraining);
  for (const ClusterSpec& spec : compact.value()) {
    EXPECT_EQ(spec.shards, 1);
    EXPECT_EQ(spec.loan_priority, 0);
  }

  StatusOr<std::vector<ClusterSpec>> sharded = ParseFederationSpec("1x1@4");
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded.value().size(), 2u);
  EXPECT_EQ(sharded.value()[0].shards, 4);
  EXPECT_EQ(sharded.value()[1].shards, 4);

  StatusOr<std::vector<ClusterSpec>> verbose =
      ParseFederationSpec("edge:inf:2:7,bulk:train:3,spill:training");
  ASSERT_TRUE(verbose.ok()) << verbose.status().message();
  ASSERT_EQ(verbose.value().size(), 3u);
  EXPECT_EQ(verbose.value()[0].name, "edge");
  EXPECT_EQ(verbose.value()[0].kind, ClusterKind::kInference);
  EXPECT_EQ(verbose.value()[0].shards, 2);
  EXPECT_EQ(verbose.value()[0].loan_priority, 7);
  EXPECT_EQ(verbose.value()[1].shards, 3);
  EXPECT_EQ(verbose.value()[2].kind, ClusterKind::kTraining);
  EXPECT_EQ(verbose.value()[2].shards, 1);

  EXPECT_FALSE(ParseFederationSpec("").ok());
  EXPECT_FALSE(ParseFederationSpec("0x0").ok());
  EXPECT_FALSE(ParseFederationSpec("1x1@0").ok());
  EXPECT_FALSE(ParseFederationSpec("1x1@65").ok());
  EXPECT_FALSE(ParseFederationSpec("a:bogus").ok());
  EXPECT_FALSE(ParseFederationSpec("a:inf,a:train").ok());
  EXPECT_FALSE(ParseFederationSpec("bad name:inf").ok());
}

TEST(Federation, GlobalIdRoundTripAcrossFederationTimesShards) {
  for (const char* spec : {"1x1", "2x1@2", "1x2@3", "2x2@2"}) {
    ShardSet fed = BuildFed(spec);
    ShardRouter& router = *fed.router;
    const int engines = router.shard_count();
    // Every engine belongs to exactly one cluster, clusters own contiguous
    // ranges in spec order, and the id arithmetic round-trips through the
    // flat pool — so an id names (cluster, engine, local) unambiguously.
    int expected_cluster = 0;
    for (int e = 0; e < engines; ++e) {
      while (e >= router.cluster_first_engine(expected_cluster) +
                      router.cluster_spec(expected_cluster).shards) {
        ++expected_cluster;
      }
      EXPECT_EQ(router.ClusterOfEngine(static_cast<std::uint32_t>(e)),
                static_cast<std::uint32_t>(expected_cluster))
          << spec << " engine " << e;
    }
    for (int e = 0; e < engines; ++e) {
      const JobIdSpace ids = fed.services[e]->snapshot()->ids;
      EXPECT_EQ(ids.stride, engines) << spec;
      EXPECT_EQ(ids.offset, e) << spec;
      for (std::int64_t local = 0; local < 50; ++local) {
        const std::int64_t global = ids.Global(local);
        EXPECT_EQ(JobIdSpace::Owner(global, engines),
                  static_cast<std::uint32_t>(e))
            << spec;
        EXPECT_EQ(ids.Local(global), local) << spec;
      }
    }
    StopFed(fed);
  }
}

// Pipelined submits targeting explicit clusters and kinds over the event
// loop: replies come back in order, and every global id matches the routing
// mirror — cluster routing is a pure function of (cluster, key | sequence),
// never of timing.
TEST(Federation, RoutingIsDeterministicUnderPipelining) {
  ShardSet fed = BuildFed("1x1@2");  // inf0={0,1}, train0={2,3}
  EventLoopOptions loop_options;
  loop_options.unix_path =
      "/tmp/lyra_fed_route_" + std::to_string(::getpid()) + ".sock";
  EventLoop server(fed.router.get(), loop_options);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<int> fd = ConnectUnix(loop_options.unix_path);
  ASSERT_TRUE(fd.ok()) << fd.status().message();

  const std::vector<std::uint32_t> inf_engines = {0, 1};
  const std::vector<std::uint32_t> train_engines = {2, 3};
  constexpr int kEngines = 4;
  std::vector<std::int64_t> local(kEngines, 0);
  std::uint64_t seq_counter = 0;  // router's keyless submit counter
  std::vector<std::int64_t> predicted;
  std::string burst;
  int frame = 0;

  const auto queue_submit = [&](const char* cluster, const char* kind,
                                const char* key) {
    JsonValue submit = Submit(0.0, 36000.0);
    if (cluster != nullptr) {
      submit.Set("cluster", JsonValue::MakeString(cluster));
    }
    if (kind != nullptr) {
      submit.Set("kind", JsonValue::MakeString(kind));
    }
    const std::vector<std::uint32_t>& targets =
        (cluster != nullptr && std::string(cluster) == "inf0") ||
                (kind != nullptr && std::string(kind) == "inference")
            ? inf_engines
            : train_engines;
    std::uint32_t engine;
    if (key != nullptr) {
      submit.Set("key", JsonValue::MakeString(key));
      engine = targets[ShardRouter::Hash(key, std::string(key).size()) %
                       targets.size()];
    } else {
      engine = targets[HashSeqMirror(seq_counter++) % targets.size()];
    }
    predicted.push_back(local[engine]++ * kEngines + engine);
    submit.Set("seq", JsonValue::MakeNumber(frame++));
    AppendFrame(submit.Dump(), burst);
  };

  // Interleave every targeting mode in one pipelined burst.
  for (int round = 0; round < 6; ++round) {
    queue_submit("train0", nullptr, nullptr);
    queue_submit("inf0", nullptr, nullptr);
    queue_submit(nullptr, "training", nullptr);
    queue_submit(nullptr, "inference", nullptr);
    queue_submit(nullptr, nullptr, nullptr);  // kindless -> training default
    queue_submit("train0", nullptr, "tenant-a");
  }
  ASSERT_TRUE(WriteAllBytes(fd.value(), burst.data(), burst.size()).ok());

  std::set<std::int64_t> distinct;
  for (int expect = 0; expect < frame; ++expect) {
    StatusOr<std::string> reply_text = ReadFrame(fd.value());
    ASSERT_TRUE(reply_text.ok()) << reply_text.status().message();
    StatusOr<JsonValue> reply = JsonValue::Parse(reply_text.value());
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().GetDouble("seq", -1.0), expect)
        << reply_text.value();
    ASSERT_TRUE(reply.value().GetBool("ok")) << reply_text.value();
    const std::int64_t id =
        static_cast<std::int64_t>(reply.value().GetDouble("job", -1.0));
    EXPECT_EQ(id, predicted[static_cast<std::size_t>(expect)])
        << "frame " << expect << " routed off the mirror: "
        << reply_text.value();
    EXPECT_TRUE(distinct.insert(id).second) << "global id collided: " << id;
  }
  ::close(fd.value());
  StopFed(fed);
  server.Stop();

  // Keyed submits all landed on one engine ("tenant-a" is pinned).
  const std::uint32_t pinned =
      train_engines[ShardRouter::Hash("tenant-a", 8) % train_engines.size()];
  int keyed = 0;
  for (std::size_t i = 5; i < predicted.size(); i += 6) {
    EXPECT_EQ(predicted[i] % kEngines, pinned);
    ++keyed;
  }
  EXPECT_EQ(keyed, 6);
}

TEST(Federation, InvalidTargetsAreRejectedInline) {
  ShardSet fed = BuildFed("1x1");
  ShardRouter& router = *fed.router;

  JsonValue unknown = Submit(0.0, 3600.0);
  unknown.Set("cluster", JsonValue::MakeString("nope"));
  JsonValue reply = router.Execute(unknown);
  EXPECT_FALSE(reply.GetBool("ok"));
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");
  EXPECT_NE(reply.GetString("error").find("nope"), std::string::npos);

  JsonValue bad_kind = Submit(0.0, 3600.0);
  bad_kind.Set("kind", JsonValue::MakeString("quantum"));
  reply = router.Execute(bad_kind);
  EXPECT_FALSE(reply.GetBool("ok"));
  EXPECT_EQ(reply.GetString("code"), "invalid_argument");

  reply = router.Execute(Migrate(0, "train0"));
  EXPECT_FALSE(reply.GetBool("ok"));
  EXPECT_EQ(reply.GetString("code"), "failed_precondition")
      << "one-pair federations cannot migrate: " << reply.Dump();

  // An out-of-range numeric cluster index is an unknown cluster.
  JsonValue numeric = Submit(0.0, 3600.0);
  numeric.Set("cluster", JsonValue::MakeNumber(7));
  reply = router.Execute(numeric);
  EXPECT_FALSE(reply.GetBool("ok"));
  StopFed(fed);
}

// Loan-broker accounting over a scripted imbalance: grants never dip into
// the lender's reserve, the GPU totals balance exactly
// (granted == outstanding + reclaimed + returned), loans only flow from
// inference clusters to training clusters, and every decision moves the
// rolling ledger hash.
TEST(Federation, LoanLedgerInvariantsUnderGrantAndReturn) {
  ShardSet fed = BuildFed("2x2");
  ShardRouter& router = *fed.router;
  ASSERT_EQ(router.cluster_count(), 4);

  // 30 unplaceable training jobs on train0 -> demand 30 at the barrier.
  std::vector<std::int64_t> pending_ids;
  for (int i = 0; i < 30; ++i) {
    const JsonValue reply =
        router.Execute(SubmitTo("train0", 0.0, 999999.0, 64, 100, 100));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    pending_ids.push_back(
        static_cast<std::int64_t>(reply.GetDouble("job", -1.0)));
  }
  const std::uint64_t hash_before = router.LedgerCopy().ledger_hash;
  JsonValue advanced = router.Execute(Advance(100.0));
  ASSERT_TRUE(advanced.GetBool("ok")) << advanced.Dump();
  EXPECT_GT(advanced.GetDouble("loans", 0.0), 0.0)
      << "imbalance produced no loan: " << advanced.Dump();

  FedLedger ledger = router.LedgerCopy();
  EXPECT_NE(ledger.ledger_hash, hash_before) << "grants must move the hash";
  ASSERT_FALSE(ledger.loans.empty());
  std::int64_t outstanding = 0;
  for (const FedLoan& loan : ledger.loans) {
    EXPECT_NE(loan.lender, loan.borrower);
    EXPECT_EQ(router.cluster_spec(static_cast<int>(loan.lender)).kind,
              ClusterKind::kInference);
    EXPECT_EQ(router.cluster_spec(static_cast<int>(loan.borrower)).kind,
              ClusterKind::kTraining);
    EXPECT_GT(loan.gpus, 0);
    outstanding += loan.gpus;
  }
  EXPECT_EQ(ledger.total_granted,
            static_cast<std::uint64_t>(outstanding) + ledger.total_reclaimed +
                ledger.total_returned);
  // The lender never pledges into its reserve: loaned <= total - ceil(10%).
  for (int c = 0; c < router.cluster_count(); ++c) {
    if (router.cluster_spec(c).kind != ClusterKind::kInference) {
      continue;
    }
    const JsonValue stats = router.Execute(Cmd("federation_stats"));
    const JsonValue* clusters = stats.Find("clusters");
    ASSERT_NE(clusters, nullptr);
    const JsonValue& info = clusters->AsArray()[static_cast<std::size_t>(c)];
    const JsonValue* gpus = info.Find("gpus");
    ASSERT_NE(gpus, nullptr);
    const std::int64_t total =
        static_cast<std::int64_t>(gpus->GetDouble("total"));
    const std::int64_t reserve = (total + 9) / 10;
    EXPECT_LE(static_cast<std::int64_t>(info.GetDouble("loaned")),
              total - reserve)
        << "cluster " << c << " lent into its reserve";
  }

  // Demand collapses -> surplus loans come back as "return" events and the
  // accounting still balances with zero outstanding.
  for (const std::int64_t id : pending_ids) {
    ASSERT_TRUE(router.Execute(Cancel(150.0, id)).GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(200.0)).GetBool("ok"));
  ledger = router.LedgerCopy();
  EXPECT_TRUE(ledger.loans.empty())
      << "surplus loans must be returned once demand drops";
  EXPECT_EQ(ledger.total_granted,
            ledger.total_reclaimed + ledger.total_returned);
  bool saw_return = false;
  for (const std::string& event : router.RecentEvents()) {
    saw_return = saw_return || event.find(" return ") != std::string::npos;
  }
  EXPECT_TRUE(saw_return) << "no return event in the ledger";
  StopFed(fed);
}

// The lyra_fed_* exposition and federation_stats are two renderings of one
// per-cluster tally: after a loan grant on a 2x2 federation, every fed gauge
// in stats_prom equals the federation_stats number it mirrors.
TEST(Federation, FedExpositionMatchesFederationStats) {
  ShardSet fed = BuildFed("2x2");
  ShardRouter& router = *fed.router;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(router.Execute(SubmitTo("train0", 0.0, 999999.0, 64, 100, 100))
                    .GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(100.0)).GetBool("ok"));

  const JsonValue stats = router.Execute(Cmd("federation_stats"));
  ASSERT_TRUE(stats.GetBool("ok")) << stats.Dump();
  const JsonValue prom = router.Execute(Cmd("stats_prom"));
  ASSERT_TRUE(prom.GetBool("ok")) << prom.Dump();
  StatusOr<PromScrape> scrape = ParsePrometheus(prom.GetString("text"));
  ASSERT_TRUE(scrape.ok()) << scrape.status().message();
  const PromScrape& text = scrape.value();

  const JsonValue* clusters = stats.Find("clusters");
  ASSERT_NE(clusters, nullptr);
  EXPECT_EQ(text.Value("lyra_fed_clusters", {}, -1.0),
            static_cast<double>(clusters->AsArray().size()));
  double loaned_total = 0.0;
  for (const JsonValue& info : clusters->AsArray()) {
    const std::string name = info.GetString("name");
    EXPECT_EQ(text.Value("lyra_fed_cluster_info",
                         {{"cluster", name}, {"kind", info.GetString("kind")}},
                         -1.0),
              1.0)
        << name;
    const JsonValue* jobs = info.Find("jobs");
    ASSERT_NE(jobs, nullptr);
    for (const char* state : {"pending", "running", "finished", "cancelled"}) {
      EXPECT_EQ(text.Value("lyra_fed_jobs",
                           {{"cluster", name}, {"state", state}}, -1.0),
                jobs->GetDouble(state, -2.0))
          << name << " " << state;
    }
    const JsonValue* gpus = info.Find("gpus");
    ASSERT_NE(gpus, nullptr);
    for (const char* pool : {"total", "free"}) {
      EXPECT_EQ(text.Value("lyra_fed_gpus",
                           {{"cluster", name}, {"pool", pool}}, -1.0),
                gpus->GetDouble(pool, -2.0))
          << name << " " << pool;
    }
    EXPECT_EQ(text.Value("lyra_fed_gpus_loaned", {{"cluster", name}}, -1.0),
              info.GetDouble("loaned", -2.0))
        << name;
    EXPECT_EQ(text.Value("lyra_fed_gpus_borrowed", {{"cluster", name}}, -1.0),
              info.GetDouble("borrowed", -2.0))
        << name;
    loaned_total += info.GetDouble("loaned", 0.0);
  }
  EXPECT_GT(loaned_total, 0.0) << "the script must grant a loan";

  const JsonValue* broker = stats.Find("broker");
  ASSERT_NE(broker, nullptr);
  EXPECT_EQ(text.Value("lyra_fed_loans_active", {}, -1.0),
            broker->GetDouble("active", -2.0));
  EXPECT_EQ(text.Value("lyra_fed_loans_granted_total", {}, -1.0),
            broker->GetDouble("granted", -2.0));
  EXPECT_EQ(text.Value("lyra_fed_loans_reclaimed_total", {}, -1.0),
            broker->GetDouble("reclaimed", -2.0));
  EXPECT_EQ(text.Value("lyra_fed_loans_returned_total", {}, -1.0),
            broker->GetDouble("returned", -2.0));
  StopFed(fed);
}

// The optional loan predictor (--loan-predictor): off by default with
// byte-identical broker behaviour, grant sizing follows the per-borrower
// prediction when on, and unknown names are rejected with the registered
// alternatives listed.
TEST(Federation, LoanPredictorSizesGrantsAndOffIsByteIdentical) {
  std::vector<LoanBroker::ClusterSignal> signals(2);
  signals[0].kind = ClusterKind::kInference;
  signals[0].total_gpus = 4096;
  signals[0].free_gpus = 4096;
  signals[1].kind = ClusterKind::kTraining;
  signals[1].pending_jobs = 2000;

  // Configured then switched back off: byte-identical to a broker that
  // never had a predictor (same events, same ledger hash).
  LoanBroker plain, off;
  ASSERT_TRUE(off.ConfigurePredictor("last-value").ok());
  ASSERT_TRUE(off.ConfigurePredictor("").ok());
  EXPECT_TRUE(off.predictor_name().empty());
  plain.Evaluate(100.0, signals);
  off.Evaluate(100.0, signals);
  ASSERT_FALSE(plain.ledger().loans.empty());
  EXPECT_EQ(plain.ledger_hash(), off.ledger_hash());
  EXPECT_EQ(plain.BorrowedBy(1), 2000);

  // With a predictor, demand comes from the prediction over the normalized
  // pending series: 2000 pending observes as min(1, 2000/1024) = 1, so the
  // last-value prediction maps back to ceil(1 * 1024) = 1024 GPUs — smaller
  // than the raw demand, and a different ledger.
  LoanBroker predicted;
  ASSERT_TRUE(predicted.ConfigurePredictor("last-value").ok());
  EXPECT_EQ(predicted.predictor_name(), "last-value");
  predicted.Evaluate(100.0, signals);
  EXPECT_EQ(predicted.BorrowedBy(1),
            static_cast<std::int64_t>(LoanBroker::kDemandScale));
  EXPECT_NE(predicted.ledger_hash(), plain.ledger_hash());

  // Below the normalization cap the last-value prediction equals the raw
  // demand, so the grant sizes match the unpredicted broker's.
  signals[1].pending_jobs = 300;
  LoanBroker raw_small, predicted_small;
  ASSERT_TRUE(predicted_small.ConfigurePredictor("last-value").ok());
  raw_small.Evaluate(100.0, signals);
  predicted_small.Evaluate(100.0, signals);
  EXPECT_EQ(predicted_small.BorrowedBy(1), raw_small.BorrowedBy(1));

  // Unknown names are rejected up front, listing the alternatives.
  LoanBroker bad;
  const Status status = bad.ConfigurePredictor("bogus");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown usage predictor"),
            std::string::npos);
  EXPECT_NE(status.message().find("seasonal-naive"), std::string::npos);
  EXPECT_TRUE(bad.predictor_name().empty());
}

// Migration between training clusters: the job is cancelled on the source,
// resubmitted on the destination with the remaining work plus the checkpoint
// cost (60s GPU-time when checkpointing, 300s cold otherwise), and the move
// is recorded in the broker ledger. Invalid moves answer inline.
TEST(Federation, MigrationChargesCheckpointCostAndMovesTheJob) {
  ShardSet fed = BuildFed("1x2");  // inf0, train0, train1
  ShardRouter& router = *fed.router;

  JsonValue submit = SubmitTo("train0", 0.0, 7200.0, 1, 1, 1);
  submit.Set("checkpointing", JsonValue::MakeBool(true));
  const JsonValue submitted = router.Execute(submit);
  ASSERT_TRUE(submitted.GetBool("ok")) << submitted.Dump();
  const std::int64_t job =
      static_cast<std::int64_t>(submitted.GetDouble("job", -1.0));
  ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));

  const JsonValue moved = router.Execute(Migrate(job, "train1"));
  ASSERT_TRUE(moved.GetBool("ok")) << moved.Dump();
  EXPECT_EQ(moved.GetDouble("checkpoint_cost"), kMigrationCheckpointCost);
  EXPECT_EQ(moved.GetDouble("from_job"), static_cast<double>(job));
  EXPECT_EQ(moved.GetString("cluster"), "train1");
  const std::int64_t new_job =
      static_cast<std::int64_t>(moved.GetDouble("job", -1.0));
  ASSERT_GE(new_job, 0);
  EXPECT_NE(new_job, job);
  EXPECT_EQ(router.ClusterOfEngine(JobIdSpace::Owner(new_job, 3)), 2u)
      << "migrated job must live on train1's engine";

  // Source side: the original job ended cancelled.
  JsonValue query = Cmd("query_job");
  query.Set("job", JsonValue::MakeNumber(static_cast<double>(job)));
  const JsonValue old_state = router.Execute(query);
  ASSERT_TRUE(old_state.GetBool("ok")) << old_state.Dump();
  EXPECT_EQ(old_state.GetString("state"), "cancelled") << old_state.Dump();

  // The ledger recorded the move.
  bool saw_migrate = false;
  for (const std::string& event : router.RecentEvents()) {
    saw_migrate = saw_migrate || event.find("migrate") != std::string::npos;
  }
  EXPECT_TRUE(saw_migrate);

  // A non-checkpointing job pays the cold-restart cost.
  const JsonValue cold_submit =
      router.Execute(SubmitTo("train1", 700.0, 7200.0));
  ASSERT_TRUE(cold_submit.GetBool("ok"));
  const std::int64_t cold_job =
      static_cast<std::int64_t>(cold_submit.GetDouble("job", -1.0));
  const JsonValue cold_moved = router.Execute(Migrate(cold_job, "train0"));
  ASSERT_TRUE(cold_moved.GetBool("ok")) << cold_moved.Dump();
  EXPECT_EQ(cold_moved.GetDouble("checkpoint_cost"), kMigrationColdCost);

  // Invalid moves: inference destination, unknown job, self-move.
  JsonValue bad = router.Execute(Migrate(new_job, "inf0"));
  EXPECT_FALSE(bad.GetBool("ok"));
  EXPECT_NE(bad.GetString("error").find("not a training cluster"),
            std::string::npos)
      << bad.Dump();
  bad = router.Execute(Migrate(9999 * 3 + 1, "train1"));  // train0's engine
  EXPECT_FALSE(bad.GetBool("ok"));
  EXPECT_EQ(bad.GetString("code"), "not_found");
  bad = router.Execute(Migrate(new_job, "train1"));
  EXPECT_FALSE(bad.GetBool("ok"));
  EXPECT_NE(bad.GetString("error").find("already on"), std::string::npos)
      << bad.Dump();
  StopFed(fed);
}

// The compatibility contract: a federation of exactly one training cluster
// with one engine answers every plain command byte-for-byte like the
// unsharded SchedulerService, and its snapshot file is the identical
// LYRASNAP image. A one-cluster spec is a shard fleet, so there is no
// additive surface: no federation_stats, no lyra_fed_* metrics.
// A negative id names no job: migrate answers not_found naming the id the
// client sent instead of aliasing a real job through the id arithmetic
// (-1 mod 3 is train1's engine, -1 / 3 its job 0), and nothing moves.
TEST(Federation, MigrateOfANegativeIdIsNotFound) {
  ShardSet fed = BuildFed("1x2");  // inf0, train0, train1
  ShardRouter& router = *fed.router;
  const JsonValue submitted = router.Execute(SubmitTo("train1", 0.0, 7200.0));
  ASSERT_TRUE(submitted.GetBool("ok")) << submitted.Dump();
  ASSERT_EQ(submitted.GetDouble("job", -1.0), 2.0);
  ASSERT_TRUE(router.Execute(Advance(600.0)).GetBool("ok"));

  const JsonValue moved = router.Execute(Migrate(-1, "train0"));
  EXPECT_EQ(moved.GetString("code"), "not_found") << moved.Dump();
  EXPECT_EQ(moved.GetString("error"), "no such job: -1") << moved.Dump();
  JsonValue query = Cmd("query_job");
  query.Set("job", JsonValue::MakeNumber(2.0));
  const JsonValue job = router.Execute(query);
  ASSERT_TRUE(job.GetBool("ok")) << job.Dump();
  EXPECT_NE(job.GetString("state"), "cancelled") << job.Dump();
  for (const std::string& event : router.RecentEvents()) {
    EXPECT_EQ(event.find("migrate"), std::string::npos) << event;
  }
  StopFed(fed);
}

TEST(Federation, SingleClusterFederationMatchesPlainServiceByteForByte) {
  const auto script = [](double snapshot_at) {
    std::vector<JsonValue> commands;
    commands.push_back(Submit(0.0, 50000.0, 1, 1, 4));
    commands.push_back(Submit(0.0, 200000.0));
    commands.push_back(Advance(3000.0));
    commands.push_back(Cancel(3600.0, 1));
    commands.push_back(Submit(5000.0, 90000.0, 2, 1, 2));
    commands.push_back(Advance(snapshot_at));
    commands.push_back(Cmd("cluster_stats"));
    commands.push_back(Cmd("drain"));
    return commands;
  };

  SchedulerService plain(BaseOptions(), MakeVirtualDriver(0));
  ASSERT_TRUE(plain.Start().ok());
  ShardSet fed = BuildFed("solo:train");
  ASSERT_EQ(fed.router->shard_count(), 1);

  const std::string plain_snap = TempPath("plain");
  const std::string fed_snap = TempPath("fed");
  for (const JsonValue& command : script(20000.0)) {
    const JsonValue plain_reply = plain.Execute(command);
    const JsonValue fed_reply = fed.router->Execute(command);
    EXPECT_EQ(plain_reply.Dump(), fed_reply.Dump())
        << "diverged on " << command.Dump();
  }
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(plain_snap));
  ASSERT_TRUE(plain.Execute(snap).GetBool("ok"));
  snap.Replace("path", JsonValue::MakeString(fed_snap));
  ASSERT_TRUE(fed.router->Execute(snap).GetBool("ok"));

  const std::string plain_bytes = ReadFileBytes(plain_snap);
  const std::string fed_bytes = ReadFileBytes(fed_snap);
  ASSERT_FALSE(plain_bytes.empty());
  EXPECT_EQ(plain_bytes.substr(0, 8), "LYRASNAP")
      << "one-engine federation must degrade to the plain container";
  EXPECT_EQ(plain_bytes, fed_bytes);
  std::remove(plain_snap.c_str());
  std::remove(fed_snap.c_str());
  plain.Stop();
  StopFed(fed);
}

// A one-cluster spec is a shard fleet at any engine count: "cluster" and
// "kind" are not interpreted, barrier replies carry no "loans", there is no
// federation_stats, federation array or lyra_fed_* family, the snapshot is
// the shard container (LYRASHRD at 3 engines, routing counter included),
// and migrate is rejected inline — at 3 engines and at 1.
TEST(Federation, OneClusterSpecIsAShardFleet) {
  ShardSet fed = BuildFed("solo:train:3");
  ShardRouter& router = *fed.router;
  ASSERT_EQ(router.shard_count(), 3);
  for (int i = 0; i < 5; ++i) {
    JsonValue submit = Submit(0.0, 36000.0);
    submit.Set("cluster", JsonValue::MakeString("nope"));
    submit.Set("kind", JsonValue::MakeString("quantum"));
    const JsonValue reply = router.Execute(submit);
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  }
  const JsonValue advanced = router.Execute(Advance(100.0));
  ASSERT_TRUE(advanced.GetBool("ok")) << advanced.Dump();
  EXPECT_EQ(advanced.Find("loans"), nullptr) << advanced.Dump();
  const JsonValue stats = router.Execute(Cmd("cluster_stats"));
  ASSERT_TRUE(stats.GetBool("ok")) << stats.Dump();
  EXPECT_EQ(stats.Find("federation"), nullptr);
  const JsonValue fed_stats = router.Execute(Cmd("federation_stats"));
  EXPECT_FALSE(fed_stats.GetBool("ok"));
  EXPECT_EQ(fed_stats.GetString("code"), "failed_precondition");
  EXPECT_EQ(router.RenderPromText().find("lyra_fed_"), std::string::npos);

  JsonValue migrate = router.Execute(Migrate(0, "solo"));
  EXPECT_FALSE(migrate.GetBool("ok"));
  EXPECT_EQ(migrate.GetString("code"), "failed_precondition");
  EXPECT_EQ(migrate.GetString("error"),
            "migration requires at least two clusters");

  const std::string path = TempPath("one_cluster");
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  const JsonValue written = router.Execute(snap);
  ASSERT_TRUE(written.GetBool("ok")) << written.Dump();
  EXPECT_EQ(written.Find("clusters"), nullptr);
  EXPECT_EQ(ReadFileBytes(path).substr(0, 8), "LYRASHRD");
  StatusOr<MultiSnapshot> loaded = LoadMultiSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().shard_images.size(), 3u);
  EXPECT_EQ(loaded.value().submit_seq, 5u);
  std::remove(path.c_str());
  StopFed(fed);

  ShardSet single = BuildFed("solo:train");
  migrate = single.router->Execute(Migrate(0, "solo"));
  EXPECT_FALSE(migrate.GetBool("ok"));
  EXPECT_EQ(migrate.GetString("code"), "failed_precondition")
      << "one engine must not forward migrate as an unknown command: "
      << migrate.Dump();
  StopFed(single);
}

// Engine k's per-engine files carry one suffix in every topology: its trace
// stream and its trace_dump output both go to "<path>.shard<k>" for k > 0.
TEST(Federation, EngineFilesUseTheShardSuffix) {
  const std::string trace = TempPath("trace.json");
  ServiceOptions options = BaseOptions();
  options.trace_path = trace;
  StatusOr<ShardSet> built = BuildShardSet(
      options, ParseFederationSpec("1x1@2").value(), MakeVirtualDriver);
  ASSERT_TRUE(built.ok()) << built.status().message();
  ShardSet fed = std::move(built.value());
  ASSERT_EQ(fed.router->shard_count(), 4);
  EXPECT_EQ(fed.router->shard(0)->options().trace_path, trace);
  for (int k = 1; k < 4; ++k) {
    EXPECT_EQ(fed.router->shard(k)->options().trace_path,
              trace + ".shard" + std::to_string(k));
  }

  const std::string dump = TempPath("dump.json");
  JsonValue request = Cmd("trace_dump");
  request.Set("path", JsonValue::MakeString(dump));
  const JsonValue reply = fed.router->Execute(request);
  ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  StopFed(fed);
  for (int k = 0; k < 4; ++k) {
    const std::string suffix = k == 0 ? "" : ".shard" + std::to_string(k);
    EXPECT_TRUE(std::ifstream(dump + suffix).good()) << dump + suffix;
    std::remove((dump + suffix).c_str());
    std::remove((trace + suffix).c_str());
  }
}

// Golden-trace regression for the Lyra pair (1 inference + 1 training
// cluster): a scripted demand spike grants a loan, the lender's own diurnal
// load spike reclaims it, fresh capacity is re-granted, and cancelled demand
// returns it. Every reply and every ledger event is diffed byte-for-byte
// against tests/golden/federation_pair.golden.
TEST(Federation, PairLoanSemanticsMatchGoldenTrace) {
  ShardSet fed = BuildFed("1x1");
  ShardRouter& router = *fed.router;

  std::ostringstream trace;
  const auto run = [&](const JsonValue& command) {
    const JsonValue reply = router.Execute(command);
    trace << ">> " << command.Dump() << "\n<< " << reply.Dump() << "\n";
    return reply;
  };

  // Phase 1: 190 unplaceable training jobs saturate the lendable pool
  // (208 total - 21 reserve = 187 grantable).
  std::vector<std::int64_t> demand_ids;
  for (int i = 0; i < 190; ++i) {
    const JsonValue reply =
        router.Execute(SubmitTo("train0", 0.0, 999999.0, 64, 100, 100));
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
    demand_ids.push_back(
        static_cast<std::int64_t>(reply.GetDouble("job", -1.0)));
  }
  trace << "## submitted 190 pending training jobs\n";
  run(Advance(100.0));
  // Phase 2: fungible pending work on the inference cluster makes its engine
  // loan its own T4 servers inward over the diurnal valley — the lender's
  // free pool dips and the federation loan is reclaimed.
  for (int i = 0; i < 6; ++i) {
    JsonValue spike = SubmitTo("inf0", 100.0, 999999.0, 8, 40, 40);
    spike.Set("fungible", JsonValue::MakeBool(true));
    // The inference engine accepts the job even though it stays pending.
    const JsonValue reply = router.Execute(spike);
    ASSERT_TRUE(reply.GetBool("ok")) << reply.Dump();
  }
  trace << "## submitted 6 fungible spike jobs on inf0\n";
  run(Advance(14400.0));
  // Phase 3: demand collapses; surviving loans are returned.
  for (const std::int64_t id : demand_ids) {
    ASSERT_TRUE(router.Execute(Cancel(14500.0, id)).GetBool("ok"));
  }
  trace << "## cancelled all pending training demand\n";
  run(Advance(15000.0));

  trace << "## ledger\n";
  for (const std::string& event : router.RecentEvents()) {
    trace << event << "\n";
  }
  const FedLedger ledger = router.LedgerCopy();
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(ledger.ledger_hash));
  trace << "granted=" << ledger.total_granted
        << " reclaimed=" << ledger.total_reclaimed
        << " returned=" << ledger.total_returned << " active="
        << ledger.loans.size() << " hash=" << hash << "\n";
  StopFed(fed);

  // The trace must show all three broker verbs.
  const std::string text = trace.str();
  EXPECT_NE(text.find(" grant "), std::string::npos);
  EXPECT_NE(text.find(" reclaim "), std::string::npos);
  EXPECT_NE(text.find(" return "), std::string::npos);

  if (std::getenv("LYRA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kPairFixture, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kPairFixture;
    out << text;
    GTEST_SKIP() << "fixture regenerated at " << kPairFixture;
  }
  std::ifstream fixture(kPairFixture, std::ios::binary);
  ASSERT_TRUE(fixture.good())
      << kPairFixture
      << " missing; run with LYRA_UPDATE_GOLDEN=1 to create it";
  std::ostringstream want;
  want << fixture.rdbuf();
  EXPECT_EQ(text, want.str())
      << "federation pair semantics diverged from the golden trace; if "
         "intentional, regenerate with LYRA_UPDATE_GOLDEN=1";
}

// The LYRAFED container round-trips the whole federation: cluster layout,
// per-engine images, broker ledger, and routing counter all come back, and a
// restored federation continues byte-identically (ledger hash chain intact).
TEST(Federation, FedSnapshotRestoresLayoutLedgerAndCounter) {
  ShardSet fed = BuildFed("edge:inf:1:5,bulk:train:2:1,spill:train");
  ShardRouter& router = *fed.router;
  ASSERT_EQ(router.shard_count(), 4);

  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(router.Execute(SubmitTo("bulk", 0.0, 999999.0, 64, 100, 100))
                    .GetBool("ok"));
  }
  ASSERT_TRUE(router.Execute(Advance(100.0)).GetBool("ok"));
  const FedLedger before = router.LedgerCopy();
  ASSERT_FALSE(before.loans.empty()) << "script must snapshot mid-loan";
  const std::uint64_t seq_before = router.submit_seq();

  const std::string path = TempPath("layout");
  JsonValue snap = Cmd("snapshot");
  snap.Set("path", JsonValue::MakeString(path));
  const JsonValue written = router.Execute(snap);
  ASSERT_TRUE(written.GetBool("ok")) << written.Dump();
  EXPECT_EQ(written.GetDouble("clusters", 0.0), 3.0);
  EXPECT_TRUE(IsFedSnapshotFile(path));
  StopFed(fed);

  // Base options are deliberately wrong — the container's layout must win.
  ServiceOptions base = BaseOptions();
  base.engine.seed = 1;
  StatusOr<ShardSet> restored =
      RestoreShardSet(base, path, MakeVirtualDriver);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ShardRouter& resumed = *restored.value().router;
  ASSERT_EQ(resumed.cluster_count(), 3);
  EXPECT_EQ(resumed.cluster_spec(0).name, "edge");
  EXPECT_EQ(resumed.cluster_spec(0).kind, ClusterKind::kInference);
  EXPECT_EQ(resumed.cluster_spec(0).loan_priority, 5);
  EXPECT_EQ(resumed.cluster_spec(1).name, "bulk");
  EXPECT_EQ(resumed.cluster_spec(1).shards, 2);
  EXPECT_EQ(resumed.cluster_spec(2).name, "spill");
  EXPECT_EQ(resumed.shard_count(), 4);
  EXPECT_EQ(resumed.submit_seq(), seq_before);
  EXPECT_TRUE(resumed.LedgerCopy() == before)
      << "broker ledger must survive the restart bit-for-bit";
  for (auto& service : restored.value().services) {
    service->Stop();
  }
  std::remove(path.c_str());
}

// The LYRAFED container's corruption defenses, the same matrix as LYRASNAP
// and LYRASHRD (one shared envelope), plus the engine cap: a container whose
// clusters declare more than kMaxEngines shards in total is rejected at
// decode, before a restore constructs any engine.
TEST(Federation, FedSnapshotCorruptionIsDetected) {
  ServiceSnapshot inner;
  inner.horizon = 10.0;
  const std::string image = EncodeSnapshot(inner);
  FedSnapshot snapshot;
  snapshot.submit_seq = 4;
  FedLoan loan;
  loan.lender = 0;
  loan.borrower = 1;
  loan.gpus = 8;
  snapshot.ledger.loans.push_back(loan);
  for (const char* name : {"inf0", "train0"}) {
    FedClusterImage cluster;
    cluster.name = name;
    cluster.kind = snapshot.clusters.empty() ? 0 : 1;
    cluster.image = image;
    snapshot.clusters.push_back(cluster);
  }
  const std::string path = TempPath("fed_corrupt");
  ASSERT_TRUE(SaveFedSnapshot(snapshot, path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.substr(0, 8), "LYRAFED_");
  ASSERT_TRUE(LoadFedSnapshot(path).ok());

  const auto write_bytes = [&path](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  };
  // Flipped payload byte: checksum mismatch.
  std::string flipped = bytes;
  flipped[bytes.size() / 2] =
      static_cast<char>(flipped[bytes.size() / 2] ^ 0x5a);
  write_bytes(flipped);
  EXPECT_FALSE(LoadFedSnapshot(path).ok());
  // Truncation mid-payload.
  write_bytes(bytes.substr(0, bytes.size() / 2));
  EXPECT_FALSE(LoadFedSnapshot(path).ok());
  // Wrong magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  write_bytes(bad_magic);
  EXPECT_FALSE(LoadFedSnapshot(path).ok());
  EXPECT_FALSE(IsFedSnapshotFile(path));
  // Future container version.
  std::string bad_version = bytes;
  bad_version[8] = 0x7f;
  write_bytes(bad_version);
  EXPECT_FALSE(LoadFedSnapshot(path).ok());
  // Trailing garbage after the checksum: rejected, not ignored.
  write_bytes(bytes + "junk");
  EXPECT_FALSE(LoadFedSnapshot(path).ok());
  // Intact bytes still load.
  write_bytes(bytes);
  EXPECT_TRUE(LoadFedSnapshot(path).ok());

  // Over the engine cap: decode fails, so the restore never builds engines.
  snapshot.clusters[1].shards = static_cast<std::uint32_t>(kMaxEngines);
  ASSERT_TRUE(SaveFedSnapshot(snapshot, path).ok());
  const StatusOr<FedSnapshot> over = LoadFedSnapshot(path);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kDataLoss);
  StatusOr<ShardSet> restored =
      RestoreShardSet(BaseOptions(), path, MakeVirtualDriver);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lyra::svc
