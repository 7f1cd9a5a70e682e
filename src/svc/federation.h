// Multi-cluster federation policy for the online scheduler service
// (DESIGN.md §11).
//
// Lyra loans capacity from one inference cluster to one training cluster;
// Aryl (PAPERS.md) generalizes the pattern to a fleet of N inference + M
// training clusters. ShardRouter (shard_router.h) runs every topology — its
// input is always a list of ClusterSpecs, and one cluster is a plain shard
// fleet — so this header holds only the federation's policy:
//
//   - ClusterSpec and the `--federation=` spec grammar (ParseFederationSpec);
//   - the migration checkpoint costs;
//   - LoanBroker, which matches training demand (pending jobs) against
//     inference clusters' idle capacity under per-cluster loan priorities,
//     reclaims loans when an inference cluster's free pool dips into its
//     reserve (load spike), and returns loans the borrower no longer needs.
//     The router evaluates it at advance/drain barriers — barrier merges are
//     strictly serialized by the fanout countdown, so the decision trace is
//     deterministic and golden-diffable.
#ifndef SRC_SVC_FEDERATION_H_
#define SRC_SVC_FEDERATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/predict/predictor.h"
#include "src/svc/snapshot.h"

namespace lyra::svc {

enum class ClusterKind : std::uint8_t { kInference = 0, kTraining = 1 };

const char* ClusterKindName(ClusterKind kind);
// Accepts "inference"/"inf" and "training"/"train"; false otherwise.
bool ParseClusterKind(const std::string& token, ClusterKind* kind);

struct ClusterSpec {
  std::string name;  // [A-Za-z0-9_.-]+, unique within the federation
  ClusterKind kind = ClusterKind::kTraining;
  int shards = 1;         // engines in this cluster
  int loan_priority = 0;  // higher lends/borrows first (ties: cluster index)
};

// Parses a `--federation=` spec:
//   "NxM"      N inference + M training clusters, one engine each
//   "NxM@S"    same, S engine shards per cluster
//   "name:kind[:shards[:prio]],..."  explicit comma-separated list
//             (kind: "inference"/"inf" or "training"/"train")
// Default names are inf0..infN-1 / train0..trainM-1.
StatusOr<std::vector<ClusterSpec>> ParseFederationSpec(const std::string& spec);

// The rules every topology obeys: at least one cluster, valid and unique
// names, each cluster's shard count and the engine total in
// [1, kMaxEngines]. InvalidArgument naming the first violation.
Status ValidateClusters(const std::vector<ClusterSpec>& clusters);

// Checkpoint cost charged to a migrated job, in GPU-seconds of extra work:
// a checkpointing job resumes from its last checkpoint; a non-checkpointing
// job pays the cold restart (Lyra §4: checkpoint/restore vs recompute).
inline constexpr double kMigrationCheckpointCost = 60.0;
inline constexpr double kMigrationColdCost = 300.0;

// Outstanding GPUs lent by / borrowed by cluster `cluster` in `ledger`.
std::int64_t LoanedBy(const FedLedger& ledger, std::uint32_t cluster);
std::int64_t BorrowedBy(const FedLedger& ledger, std::uint32_t cluster);

// The cross-cluster loan ledger and its policy. NOT thread-safe: the
// router serializes access (barrier merges + migration completions) behind
// one mutex. Every decision appends a formatted event line and folds it
// into a rolling FNV-1a `ledger_hash` — the byte-identity witness for
// golden-trace and warm-restart tests.
class LoanBroker {
 public:
  // Fraction of an inference cluster's GPUs never lent out; dipping below
  // the reserve is the "load spike" that triggers reclaims.
  static constexpr double kReserveFraction = 0.1;
  // Event lines retained for federation_stats (the hash covers all).
  static constexpr std::size_t kMaxEvents = 256;
  // Pending-demand normalization for the optional loan predictor: predictors
  // model usage in [0, 1], so pending jobs are observed as pending / scale
  // and predictions are mapped back with ceil(prediction * scale).
  static constexpr double kDemandScale = 1024.0;

  // One cluster's broker-relevant state at a barrier.
  struct ClusterSignal {
    ClusterKind kind = ClusterKind::kTraining;
    int loan_priority = 0;
    std::int64_t total_gpus = 0;    // inference pool capacity (lenders)
    std::int64_t free_gpus = 0;     // inference pool idle (lenders)
    std::int64_t pending_jobs = 0;  // training demand (borrowers)
  };

  // One evaluation round at time `now`, deterministic in (ledger, signals):
  //   1. return: a borrower whose demand dropped returns newest loans that
  //      are entirely surplus (no flapping on partially-needed loans);
  //   2. reclaim: a lender whose free pool (net of what it has pledged)
  //      dipped below its reserve pulls back its newest loans (LIFO) until
  //      the reserve is whole again;
  //   3. grant: remaining training demand is matched against lendable
  //      inference capacity (free - reserve - outstanding), borrowers and
  //      lenders each in descending loan priority (ties by cluster index).
  void Evaluate(double now, const std::vector<ClusterSignal>& signals);

  // Post-restore reconciliation: drops loans whose endpoints fall outside
  // [0, clusters) — a crash mid-reshape can persist a loan against a
  // cluster that no longer exists. Emits a "drop" event per casualty.
  void Reconcile(double now, std::size_t clusters);

  // Sizes loan grants from a per-borrower UsagePredictor instead of the raw
  // pending-job count (`--loan-predictor`): every Evaluate observes each
  // training cluster's normalized pending demand and the grant phase uses
  // ceil(PredictNext() * kDemandScale) as that cluster's demand. `name` is a
  // registry predictor name ("seasonal-naive" | "lstm" | "last-value"); an
  // empty name switches the feature off. When off (the default) Evaluate is
  // byte-identical to the unpredicted broker — same events, same ledger
  // hash. InvalidArgument on an unknown name.
  Status ConfigurePredictor(const std::string& name);
  const std::string& predictor_name() const { return predictor_name_; }

  // Ledger entry for a completed job migration (the router performs the
  // cancel/resubmit chain; the broker only records it).
  void RecordMigration(double now, std::int64_t from_job, std::int64_t to_job,
                       std::uint32_t from_cluster, std::uint32_t to_cluster,
                       double checkpoint_cost);

  std::int64_t LoanedBy(std::uint32_t cluster) const {
    return svc::LoanedBy(ledger_, cluster);
  }
  std::int64_t BorrowedBy(std::uint32_t cluster) const {
    return svc::BorrowedBy(ledger_, cluster);
  }

  const FedLedger& ledger() const { return ledger_; }
  void RestoreLedger(const FedLedger& ledger) { ledger_ = ledger; }
  std::uint64_t ledger_hash() const { return ledger_.ledger_hash; }
  const std::vector<std::string>& events() const { return events_; }

 private:
  void Emit(const std::string& event);
  void Grant(double now, std::uint32_t lender, std::uint32_t borrower,
             std::int64_t gpus);
  // Removes loans_[index], emitting `verb` ("reclaim" / "return" / "drop").
  void EndLoan(double now, const char* verb, std::size_t index);
  // Observes `pending` into cluster's predictor and returns the predicted
  // demand in jobs; the raw `pending` when no predictor is configured.
  std::int64_t PredictedDemand(std::uint32_t cluster, std::int64_t pending);

  FedLedger ledger_;
  std::vector<std::string> events_;
  std::string predictor_name_;
  // Lazily grown, indexed by borrower cluster; each training cluster gets
  // its own predictor so one cluster's history never leaks into another's.
  std::vector<std::unique_ptr<UsagePredictor>> predictors_;
};

}  // namespace lyra::svc

#endif  // SRC_SVC_FEDERATION_H_
