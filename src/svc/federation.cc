#include "src/svc/federation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/common/envelope.h"
#include "src/common/hash.h"
#include "src/svc/registry.h"
#include "src/svc/replies.h"

namespace lyra::svc {
namespace {

// Deterministic time/cost rendering for ledger event lines: the lines feed
// the rolling ledger hash, so the format must be stable across platforms.
std::string FormatTime(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", t);
  return buf;
}

bool ValidClusterName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

bool ParseKindToken(const std::string& token, ClusterKind* kind) {
  if (token == "inference" || token == "inf") {
    *kind = ClusterKind::kInference;
    return true;
  }
  if (token == "training" || token == "train") {
    *kind = ClusterKind::kTraining;
    return true;
  }
  return false;
}

bool ParseUint(const std::string& text, long long* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value < 0) {
    return false;
  }
  *out = value;
  return true;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

// How a "cluster"/"to" field renders in error messages.
std::string DescribeTarget(const JsonValue& target) {
  if (target.is_string()) {
    return target.AsString();
  }
  if (target.is_number()) {
    return std::to_string(target.AsInt());
  }
  return "?";
}

// Same integer arithmetic everywhere: ceil(kReserveFraction * total) without
// floating point, so the reserve is identical across platforms.
std::int64_t ReserveOf(std::int64_t total_gpus) {
  return (total_gpus + 9) / 10;
}

const char* JobStateLabel(int state) {
  switch (state) {
    case 0:
      return "pending";
    case 1:
      return "running";
    case 2:
      return "finished";
    default:
      return "cancelled";
  }
}

}  // namespace

const char* ClusterKindName(ClusterKind kind) {
  return kind == ClusterKind::kInference ? "inference" : "training";
}

StatusOr<std::vector<ClusterSpec>> ParseFederationSpec(
    const std::string& spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("empty federation spec");
  }

  // Compact form first: "NxM" or "NxM@S".
  const std::size_t x = spec.find('x');
  if (x != std::string::npos && spec.find(',') == std::string::npos &&
      spec.find(':') == std::string::npos) {
    const std::size_t at = spec.find('@');
    long long inference = 0, training = 0, shards = 1;
    const std::string training_text =
        at == std::string::npos ? spec.substr(x + 1)
                                : spec.substr(x + 1, at - x - 1);
    if (!ParseUint(spec.substr(0, x), &inference) ||
        !ParseUint(training_text, &training) ||
        (at != std::string::npos &&
         !ParseUint(spec.substr(at + 1), &shards))) {
      return Status::InvalidArgument("bad federation spec: \"" + spec + "\"");
    }
    if (inference + training < 1) {
      return Status::InvalidArgument("federation needs at least one cluster");
    }
    if (shards < 1 || shards > kMaxEngines) {
      return Status::InvalidArgument(
          "cluster shard count must be in [1, " + std::to_string(kMaxEngines) +
          "], got " + std::to_string(shards));
    }
    std::vector<ClusterSpec> clusters;
    for (long long i = 0; i < inference; ++i) {
      ClusterSpec cluster;
      cluster.name = "inf" + std::to_string(i);
      cluster.kind = ClusterKind::kInference;
      cluster.shards = static_cast<int>(shards);
      clusters.push_back(std::move(cluster));
    }
    for (long long i = 0; i < training; ++i) {
      ClusterSpec cluster;
      cluster.name = "train" + std::to_string(i);
      cluster.kind = ClusterKind::kTraining;
      cluster.shards = static_cast<int>(shards);
      clusters.push_back(std::move(cluster));
    }
    return clusters;
  }

  // Explicit list: "name:kind[:shards[:prio]],...".
  std::vector<ClusterSpec> clusters;
  for (const std::string& entry : SplitOn(spec, ',')) {
    const std::vector<std::string> fields = SplitOn(entry, ':');
    if (fields.size() < 2 || fields.size() > 4) {
      return Status::InvalidArgument("bad federation cluster: \"" + entry +
                                     "\"");
    }
    ClusterSpec cluster;
    cluster.name = fields[0];
    if (!ValidClusterName(cluster.name)) {
      return Status::InvalidArgument("bad cluster name: \"" + fields[0] +
                                     "\"");
    }
    if (!ParseKindToken(fields[1], &cluster.kind)) {
      return Status::InvalidArgument("unknown cluster kind: \"" + fields[1] +
                                     "\"");
    }
    if (fields.size() >= 3) {
      long long shards = 0;
      if (!ParseUint(fields[2], &shards) || shards < 1 ||
          shards > kMaxEngines) {
        return Status::InvalidArgument("bad cluster shard count: \"" +
                                       fields[2] + "\"");
      }
      cluster.shards = static_cast<int>(shards);
    }
    if (fields.size() == 4) {
      char* end = nullptr;
      const long long priority = std::strtoll(fields[3].c_str(), &end, 10);
      if (fields[3].empty() || end == nullptr || *end != '\0') {
        return Status::InvalidArgument("bad cluster loan priority: \"" +
                                       fields[3] + "\"");
      }
      cluster.loan_priority = static_cast<int>(priority);
    }
    for (const ClusterSpec& existing : clusters) {
      if (existing.name == cluster.name) {
        return Status::InvalidArgument("duplicate cluster name: \"" +
                                       cluster.name + "\"");
      }
    }
    clusters.push_back(std::move(cluster));
  }
  return clusters;
}

// --- LoanBroker -----------------------------------------------------------

void LoanBroker::Emit(const std::string& event) {
  // The hash chains over "event\n" lines; 0 means no event yet.
  const std::uint64_t seed =
      ledger_.ledger_hash == 0 ? kFnv1aOffset : ledger_.ledger_hash;
  ledger_.ledger_hash = Fnv1a("\n", Fnv1a(event, seed));
  events_.push_back(event);
  if (events_.size() > kMaxEvents) {
    events_.erase(events_.begin());
  }
}

void LoanBroker::Grant(double now, std::uint32_t lender,
                       std::uint32_t borrower, std::int64_t gpus) {
  FedLoan loan;
  loan.id = ledger_.next_loan_id++;
  loan.lender = lender;
  loan.borrower = borrower;
  loan.gpus = gpus;
  loan.granted_at = now;
  ledger_.loans.push_back(loan);
  ledger_.total_granted += static_cast<std::uint64_t>(gpus);
  Emit("t=" + FormatTime(now) + " grant id=" + std::to_string(loan.id) +
       " lender=" + std::to_string(lender) +
       " borrower=" + std::to_string(borrower) +
       " gpus=" + std::to_string(gpus));
}

void LoanBroker::EndLoan(double now, const char* verb, std::size_t index) {
  const FedLoan loan = ledger_.loans[index];
  ledger_.loans.erase(ledger_.loans.begin() +
                      static_cast<std::ptrdiff_t>(index));
  if (std::strcmp(verb, "reclaim") == 0) {
    ledger_.total_reclaimed += static_cast<std::uint64_t>(loan.gpus);
  } else {
    ledger_.total_returned += static_cast<std::uint64_t>(loan.gpus);
  }
  Emit("t=" + FormatTime(now) + " " + verb + " id=" + std::to_string(loan.id) +
       " lender=" + std::to_string(loan.lender) +
       " borrower=" + std::to_string(loan.borrower) +
       " gpus=" + std::to_string(loan.gpus));
}

std::int64_t LoanBroker::LoanedBy(std::uint32_t cluster) const {
  std::int64_t total = 0;
  for (const FedLoan& loan : ledger_.loans) {
    if (loan.lender == cluster) {
      total += loan.gpus;
    }
  }
  return total;
}

std::int64_t LoanBroker::BorrowedBy(std::uint32_t cluster) const {
  std::int64_t total = 0;
  for (const FedLoan& loan : ledger_.loans) {
    if (loan.borrower == cluster) {
      total += loan.gpus;
    }
  }
  return total;
}

Status LoanBroker::ConfigurePredictor(const std::string& name) {
  if (name.empty()) {
    predictor_name_.clear();
    predictors_.clear();
    return Status::Ok();
  }
  // Validate eagerly so a typo fails at configure time, not at the first
  // barrier evaluation.
  StatusOr<std::unique_ptr<UsagePredictor>> probe = MakePredictor(name);
  if (!probe.ok()) {
    return probe.status();
  }
  predictor_name_ = name;
  predictors_.clear();
  return Status::Ok();
}

std::int64_t LoanBroker::PredictedDemand(std::uint32_t cluster,
                                         std::int64_t pending) {
  if (predictor_name_.empty()) {
    return pending;
  }
  if (predictors_.size() <= cluster) {
    predictors_.resize(cluster + 1);
  }
  if (predictors_[cluster] == nullptr) {
    StatusOr<std::unique_ptr<UsagePredictor>> made =
        MakePredictor(predictor_name_);
    predictors_[cluster] = std::move(made.value());
  }
  UsagePredictor& predictor = *predictors_[cluster];
  predictor.Observe(
      std::min(1.0, static_cast<double>(pending) / kDemandScale));
  const double predicted = predictor.PredictNext();
  return std::max<std::int64_t>(
      0, static_cast<std::int64_t>(std::ceil(predicted * kDemandScale)));
}

void LoanBroker::Evaluate(double now,
                          const std::vector<ClusterSignal>& signals) {
  // Training demand is approximated as one GPU per pending job (the engine's
  // min_workers/gpus_per_worker default); the signal is already a sum over
  // the cluster's engines.

  // 1. Returns: a borrower gives back its newest loans that are entirely
  // surplus — even without the loan, what it still borrows covers demand.
  for (std::uint32_t b = 0; b < signals.size(); ++b) {
    if (signals[b].kind != ClusterKind::kTraining) {
      continue;
    }
    for (std::size_t i = ledger_.loans.size(); i-- > 0;) {
      const FedLoan& loan = ledger_.loans[i];
      if (loan.borrower != b) {
        continue;
      }
      if (BorrowedBy(b) - loan.gpus >= signals[b].pending_jobs) {
        EndLoan(now, "return", i);
      }
    }
  }

  // 2. Reclaims: a lender whose idle pool no longer covers its reserve plus
  // what it has pledged pulls loans back, newest first (LIFO keeps the
  // longest-running borrowed jobs undisturbed).
  for (std::uint32_t l = 0; l < signals.size(); ++l) {
    if (signals[l].kind != ClusterKind::kInference) {
      continue;
    }
    const std::int64_t reserve = ReserveOf(signals[l].total_gpus);
    while (signals[l].free_gpus - LoanedBy(l) < reserve) {
      std::size_t newest = ledger_.loans.size();
      for (std::size_t i = ledger_.loans.size(); i-- > 0;) {
        if (ledger_.loans[i].lender == l) {
          newest = i;
          break;
        }
      }
      if (newest == ledger_.loans.size()) {
        break;
      }
      EndLoan(now, "reclaim", newest);
    }
  }

  // 3. Grants: leftover demand against lendable capacity, both sides in
  // descending loan priority (ties broken by cluster index).
  std::vector<std::uint32_t> borrowers, lenders;
  for (std::uint32_t c = 0; c < signals.size(); ++c) {
    if (signals[c].kind == ClusterKind::kTraining) {
      borrowers.push_back(c);
    } else {
      lenders.push_back(c);
    }
  }
  const auto by_priority = [&signals](std::uint32_t x, std::uint32_t y) {
    if (signals[x].loan_priority != signals[y].loan_priority) {
      return signals[x].loan_priority > signals[y].loan_priority;
    }
    return x < y;
  };
  std::sort(borrowers.begin(), borrowers.end(), by_priority);
  std::sort(lenders.begin(), lenders.end(), by_priority);
  for (const std::uint32_t b : borrowers) {
    std::int64_t demand =
        PredictedDemand(b, signals[b].pending_jobs) - BorrowedBy(b);
    for (const std::uint32_t l : lenders) {
      if (demand <= 0) {
        break;
      }
      const std::int64_t lendable = signals[l].free_gpus -
                                    ReserveOf(signals[l].total_gpus) -
                                    LoanedBy(l);
      const std::int64_t gpus = std::min(demand, lendable);
      if (gpus > 0) {
        Grant(now, l, b, gpus);
        demand -= gpus;
      }
    }
  }
}

void LoanBroker::Reconcile(double now, std::size_t clusters) {
  for (std::size_t i = ledger_.loans.size(); i-- > 0;) {
    const FedLoan& loan = ledger_.loans[i];
    if (loan.lender >= clusters || loan.borrower >= clusters) {
      EndLoan(now, "drop", i);
    }
  }
}

void LoanBroker::RecordMigration(double now, std::int64_t from_job,
                                 std::int64_t to_job,
                                 std::uint32_t from_cluster,
                                 std::uint32_t to_cluster,
                                 double checkpoint_cost) {
  Emit("t=" + FormatTime(now) + " migrate job=" + std::to_string(from_job) +
       " to_job=" + std::to_string(to_job) +
       " from=" + std::to_string(from_cluster) +
       " to=" + std::to_string(to_cluster) +
       " cost=" + FormatTime(checkpoint_cost));
}

// --- FederationRouter -----------------------------------------------------

// Two-hop migration chain: cancel on the source engine, then resubmit on the
// destination engine with the remaining work plus the checkpoint cost. Each
// hop's reply arrives on that engine's thread; `a` carries the phase.
class FederationRouter::MigrationSink
    : public SchedulerService::CompletionSink,
      public std::enable_shared_from_this<MigrationSink> {
 public:
  MigrationSink(FederationRouter* router, JsonValue original,
                std::shared_ptr<SchedulerService::CompletionSink> parent,
                std::uint64_t a, std::uint64_t b, std::int64_t from_global,
                std::uint32_t source_engine, std::uint32_t dest_engine,
                std::uint32_t dest_cluster, std::uint32_t source_cluster,
                JsonValue submit, double checkpoint_cost)
      : router_(router),
        original_(std::move(original)),
        parent_(std::move(parent)),
        a_(a),
        b_(b),
        from_global_(from_global),
        source_engine_(source_engine),
        dest_engine_(dest_engine),
        dest_cluster_(dest_cluster),
        source_cluster_(source_cluster),
        submit_(std::move(submit)),
        checkpoint_cost_(checkpoint_cost) {}

  void OnReply(std::uint64_t phase, std::uint64_t /*unused*/,
               JsonValue reply) override {
    if (!reply.GetBool("ok", false)) {
      if (phase == 0) {
        // The cancel's not_found names the shard-local id.
        router_->RewriteReplyJob(source_engine_, reply);
      }
      EchoSeq(original_, reply);
      parent_->OnReply(a_, b_, std::move(reply));
      return;
    }
    if (phase == 0) {
      // The job left the source at the cancel's engine time; it arrives at
      // the destination no earlier (dest StampFor still maxes with its own
      // frontier).
      submit_.Replace("at",
                      JsonValue::MakeNumber(reply.GetDouble("time", 0.0)));
      router_->shard(static_cast<int>(dest_engine_))
          ->ExecuteAsync(std::move(submit_), shared_from_this(), 1, 0,
                         SchedulerService::CmdClass::kEngine);
      return;
    }
    const std::int64_t local =
        static_cast<std::int64_t>(reply.GetDouble("job", -1.0));
    const std::int64_t to_global = router_->ToGlobal(local, dest_engine_);
    const double time = reply.GetDouble("time", 0.0);
    {
      std::lock_guard<std::mutex> lock(router_->broker_mu_);
      router_->broker_.RecordMigration(time, from_global_, to_global,
                                       source_cluster_, dest_cluster_,
                                       checkpoint_cost_);
    }
    JsonValue done = OkReply();
    done.Set("job", JsonValue::MakeNumber(static_cast<double>(to_global)));
    done.Set("from_job",
             JsonValue::MakeNumber(static_cast<double>(from_global_)));
    done.Set("cluster", JsonValue::MakeString(
                            router_->clusters_[dest_cluster_].name));
    done.Set("checkpoint_cost", JsonValue::MakeNumber(checkpoint_cost_));
    done.Set("time", JsonValue::MakeNumber(time));
    EchoSeq(original_, done);
    parent_->OnReply(a_, b_, std::move(done));
  }

 private:
  FederationRouter* const router_;
  const JsonValue original_;
  const std::shared_ptr<SchedulerService::CompletionSink> parent_;
  const std::uint64_t a_;
  const std::uint64_t b_;
  const std::int64_t from_global_;
  const std::uint32_t source_engine_;
  const std::uint32_t dest_engine_;
  const std::uint32_t dest_cluster_;
  const std::uint32_t source_cluster_;
  JsonValue submit_;
  const double checkpoint_cost_;
};

FederationRouter::FederationRouter(std::vector<SchedulerService*> engines,
                                   std::vector<ClusterSpec> clusters)
    : ShardRouter(std::move(engines)), clusters_(std::move(clusters)) {
  LYRA_CHECK(!clusters_.empty());
  int next = 0;
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    const ClusterSpec& spec = clusters_[c];
    LYRA_CHECK(spec.shards >= 1);
    first_engine_.push_back(next);
    std::vector<std::uint32_t> range;
    for (int s = 0; s < spec.shards; ++s) {
      const auto engine = static_cast<std::uint32_t>(next++);
      range.push_back(engine);
      engine_cluster_.push_back(static_cast<std::uint32_t>(c));
      kind_engines_[static_cast<int>(spec.kind)].push_back(engine);
    }
    cluster_engines_.push_back(std::move(range));
  }
  LYRA_CHECK(next == shard_count());
}

int FederationRouter::FindCluster(const std::string& name) const {
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    if (clusters_[c].name == name) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

Status FederationRouter::ConfigureLoanPredictor(const std::string& name) {
  std::lock_guard<std::mutex> lock(broker_mu_);
  return broker_.ConfigurePredictor(name);
}

FedLedger FederationRouter::LedgerCopy() const {
  std::lock_guard<std::mutex> lock(broker_mu_);
  return broker_.ledger();
}

std::vector<std::string> FederationRouter::RecentEvents() const {
  std::lock_guard<std::mutex> lock(broker_mu_);
  return broker_.events();
}

void FederationRouter::RestoreLedger(const FedLedger& ledger) {
  std::lock_guard<std::mutex> lock(broker_mu_);
  broker_.RestoreLedger(ledger);
}

void FederationRouter::ReconcileBroker() {
  std::lock_guard<std::mutex> lock(broker_mu_);
  broker_.Reconcile(MaxEngineTime(), clusters_.size());
}

double FederationRouter::MaxEngineTime() const {
  double time = 0.0;
  for (int k = 0; k < shard_count(); ++k) {
    const std::shared_ptr<const StateSnapshot> snap = shard(k)->snapshot();
    if (snap != nullptr) {
      time = std::max(time, snap->time);
    }
  }
  return time;
}

const std::vector<std::uint32_t>* FederationRouter::TargetEngines(
    const JsonValue& request) const {
  const JsonValue* cluster = request.Find("cluster");
  if (cluster != nullptr) {
    int c = -1;
    if (cluster->is_string()) {
      c = FindCluster(cluster->AsString());
    } else if (cluster->is_number()) {
      const std::int64_t index = cluster->AsInt();
      if (index >= 0 && index < cluster_count()) {
        c = static_cast<int>(index);
      }
    }
    return c < 0 ? nullptr : &cluster_engines_[static_cast<std::size_t>(c)];
  }
  const JsonValue* kind_field = request.Find("kind");
  if (kind_field == nullptr && cluster_count() == 1) {
    // Untargeted submit to a single-cluster federation goes to that cluster
    // whatever its kind — the plain-service compatibility path.
    return &cluster_engines_[0];
  }
  ClusterKind kind = ClusterKind::kTraining;
  if (kind_field != nullptr &&
      (!kind_field->is_string() ||
       !ParseKindToken(kind_field->AsString(), &kind))) {
    return nullptr;
  }
  const std::vector<std::uint32_t>& engines =
      kind_engines_[static_cast<int>(kind)];
  return engines.empty() ? nullptr : &engines;
}

ShardRouter::Plan FederationRouter::RouteEngine(TelemetryCmd cmd,
                                                const JsonValue& request) const {
  if (cmd == TelemetryCmd::kMigrate) {
    Plan plan;
    const JsonValue* job = request.Find("job");
    if (cluster_count() < 2 || job == nullptr || !job->is_number()) {
      plan.reject = true;
      return plan;
    }
    plan.shard = ShardOfJob(job->AsInt());
    plan.shed = shard(static_cast<int>(plan.shard))->EngineSaturated();
    return plan;
  }
  if (cmd == TelemetryCmd::kSubmit) {
    const std::vector<std::uint32_t>* targets = TargetEngines(request);
    if (targets == nullptr) {
      Plan plan;
      plan.reject = true;
      return plan;
    }
    if (shard_count() == 1) {
      Plan plan;
      plan.shed = front()->EngineSaturated();
      return plan;
    }
    Plan plan;
    plan.rewrite_job = true;
    const JsonValue* key = request.Find("key");
    std::uint64_t hash = 0;
    if (key != nullptr && key->is_string()) {
      const std::string& k = key->AsString();
      hash = Hash(k.data(), k.size());
    } else {
      // Peek only; BeginEngine's fetch_add is authoritative.
      hash = Fnv1aU64(submit_seq());
    }
    plan.shard = (*targets)[hash % targets->size()];
    plan.shed = shard(static_cast<int>(plan.shard))->EngineSaturated();
    return plan;
  }
  return ShardRouter::RouteEngine(cmd, request);
}

std::uint32_t FederationRouter::BeginEngine(TelemetryCmd cmd,
                                            JsonValue& request,
                                            const Plan& plan) {
  if (plan.reject || cmd == TelemetryCmd::kMigrate) {
    return plan.shard;
  }
  if (cmd == TelemetryCmd::kSubmit && shard_count() > 1) {
    const JsonValue* key = request.Find("key");
    if (key != nullptr && key->is_string()) {
      return plan.shard;
    }
    // RouteEngine already validated the target set; the counter consumed
    // here is the authoritative in-cluster pick.
    const std::vector<std::uint32_t>* targets = TargetEngines(request);
    const std::uint64_t seq = NextSubmitSeq();
    return (*targets)[Fnv1aU64(seq) % targets->size()];
  }
  return ShardRouter::BeginEngine(cmd, request, plan);
}

JsonValue FederationRouter::RejectReply(TelemetryCmd cmd,
                                        const JsonValue& request) const {
  JsonValue reply;
  if (cmd == TelemetryCmd::kMigrate) {
    if (cluster_count() < 2) {
      reply = ErrorReply("failed_precondition",
                         "migration requires at least two clusters");
    } else {
      reply =
          ErrorReply("invalid_argument", "migrate requires a numeric \"job\"");
    }
  } else {
    const JsonValue* cluster = request.Find("cluster");
    if (cluster != nullptr) {
      reply = ErrorReply("invalid_argument",
                         "no such cluster: " + DescribeTarget(*cluster));
    } else {
      const JsonValue* kind = request.Find("kind");
      ClusterKind parsed;
      if (kind != nullptr &&
          (!kind->is_string() || !ParseKindToken(kind->AsString(), &parsed))) {
        reply = ErrorReply("invalid_argument",
                           "unknown cluster kind: " + DescribeTarget(*kind));
      } else {
        reply = ErrorReply("failed_precondition",
                           "no cluster of the requested kind");
      }
    }
  }
  EchoSeq(request, reply);
  return reply;
}

void FederationRouter::DispatchEngine(
    const Plan& plan, std::uint32_t shard_index, JsonValue request,
    std::shared_ptr<SchedulerService::CompletionSink> sink, std::uint64_t a,
    std::uint64_t b) {
  const TelemetryCmd cmd = TelemetryCmdFromName(request.GetString("cmd"));
  if (plan.reject) {
    front()->CountProtocolError();
    sink->OnReply(a, b, RejectReply(cmd, request));
    return;
  }
  if (cmd == TelemetryCmd::kMigrate) {
    StartMigration(std::move(request), std::move(sink), a, b);
    return;
  }
  ShardRouter::DispatchEngine(plan, shard_index, std::move(request),
                              std::move(sink), a, b);
}

void FederationRouter::StartMigration(
    JsonValue request, std::shared_ptr<SchedulerService::CompletionSink> sink,
    std::uint64_t a, std::uint64_t b) {
  const auto fail = [&](JsonValue reply) {
    front()->CountProtocolError();
    EchoSeq(request, reply);
    sink->OnReply(a, b, std::move(reply));
  };

  const std::int64_t global = request.Find("job")->AsInt();  // RouteEngine-checked
  const std::uint32_t source_engine = ShardOfJob(global);
  const std::uint32_t source_cluster = ClusterOfEngine(source_engine);

  const JsonValue* to = request.Find("to");
  if (to == nullptr) {
    return fail(
        ErrorReply("invalid_argument", "migrate requires a \"to\" cluster"));
  }
  int dest = -1;
  if (to->is_string()) {
    dest = FindCluster(to->AsString());
  } else if (to->is_number()) {
    const std::int64_t index = to->AsInt();
    if (index >= 0 && index < cluster_count()) {
      dest = static_cast<int>(index);
    }
  }
  if (dest < 0) {
    return fail(ErrorReply("invalid_argument",
                           "no such cluster: " + DescribeTarget(*to)));
  }
  if (clusters_[static_cast<std::size_t>(dest)].kind !=
      ClusterKind::kTraining) {
    return fail(ErrorReply(
        "failed_precondition",
        "destination cluster \"" +
            clusters_[static_cast<std::size_t>(dest)].name +
            "\" is not a training cluster"));
  }
  if (clusters_[source_cluster].kind != ClusterKind::kTraining) {
    return fail(ErrorReply("failed_precondition",
                           "job " + std::to_string(global) +
                               " is not on a training cluster"));
  }
  if (static_cast<std::uint32_t>(dest) == source_cluster) {
    return fail(ErrorReply(
        "failed_precondition",
        "job " + std::to_string(global) + " is already on cluster \"" +
            clusters_[source_cluster].name + "\""));
  }

  const std::shared_ptr<const StateSnapshot> snap =
      shard(static_cast<int>(source_engine))->snapshot();
  if (snap == nullptr ||
      shard(static_cast<int>(source_engine))->stopped()) {
    return fail(ErrorReply("unavailable", "service is stopped"));
  }
  // RCU read: the record can be stale, but the cancel below is the
  // authoritative gate — a job that finished in between fails there and the
  // engine error is forwarded verbatim.
  const JobRecord* record = snap->FindJob(ToLocal(global));
  if (record == nullptr) {
    return fail(
        ErrorReply("not_found", "no such job: " + std::to_string(global)));
  }
  if (record->state == JobState::kFinished ||
      record->state == JobState::kCancelled) {
    return fail(ErrorReply(
        "failed_precondition",
        "job " + std::to_string(global) + " is already " +
            (record->state == JobState::kFinished ? "finished" : "cancelled")));
  }

  const double cost = record->spec.checkpointing ? kMigrationCheckpointCost
                                                 : kMigrationColdCost;
  // The destination engine comes from a dedicated hash, never the submit
  // counter: migrations must not shift how later keyless submits route (the
  // counter is snapshotted and replay-compared).
  const std::string route_key = "migrate:" + std::to_string(global);
  const std::vector<std::uint32_t>& dests =
      cluster_engines_[static_cast<std::size_t>(dest)];
  const std::uint32_t dest_engine =
      dests[Hash(route_key.data(), route_key.size()) % dests.size()];

  JsonValue submit = JsonValue::MakeObject();
  submit.Set("cmd", JsonValue::MakeString("submit"));
  submit.Set("at", JsonValue::MakeNumber(0.0));  // patched to the cancel time
  submit.Set("gpus_per_worker", JsonValue::MakeNumber(
                                    static_cast<double>(record->spec.gpus_per_worker)));
  submit.Set("min_workers", JsonValue::MakeNumber(
                                static_cast<double>(record->spec.min_workers)));
  submit.Set("max_workers", JsonValue::MakeNumber(
                                static_cast<double>(record->spec.max_workers)));
  submit.Set("requested_workers",
             JsonValue::MakeNumber(
                 static_cast<double>(record->spec.requested_workers)));
  submit.Set("fungible", JsonValue::MakeBool(record->spec.fungible));
  submit.Set("heterogeneous", JsonValue::MakeBool(record->spec.heterogeneous));
  submit.Set("checkpointing", JsonValue::MakeBool(record->spec.checkpointing));
  submit.Set("model",
             JsonValue::MakeString(ModelFamilyName(record->spec.model)));
  submit.Set("total_work",
             JsonValue::MakeNumber(record->work_remaining + cost));

  JsonValue cancel = JsonValue::MakeObject();
  cancel.Set("cmd", JsonValue::MakeString("cancel"));
  cancel.Set("job",
             JsonValue::MakeNumber(static_cast<double>(ToLocal(global))));
  const JsonValue* at = request.Find("at");
  if (at != nullptr && at->is_number()) {
    cancel.Set("at", *at);
  }

  auto chain = std::make_shared<MigrationSink>(
      this, std::move(request), std::move(sink), a, b, global, source_engine,
      dest_engine, static_cast<std::uint32_t>(dest), source_cluster,
      std::move(submit), cost);
  shard(static_cast<int>(source_engine))
      ->ExecuteAsync(std::move(cancel), std::move(chain), 0, 0,
                     SchedulerService::CmdClass::kEngine);
}

LoanBroker::ClusterSignal FederationRouter::SignalFor(int c) const {
  const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
  LoanBroker::ClusterSignal signal;
  signal.kind = spec.kind;
  signal.loan_priority = spec.loan_priority;
  for (const std::uint32_t e : cluster_engines_[static_cast<std::size_t>(c)]) {
    const std::shared_ptr<const StateSnapshot> snap =
        shard(static_cast<int>(e))->snapshot();
    if (snap == nullptr) {
      continue;
    }
    if (spec.kind == ClusterKind::kInference) {
      signal.total_gpus += snap->inference.total_gpus;
      signal.free_gpus += snap->inference.free_gpus;
    } else {
      signal.total_gpus += snap->training.total_gpus;
      signal.free_gpus += snap->training.free_gpus;
      signal.pending_jobs +=
          static_cast<std::int64_t>(snap->state_counts[0]);
    }
  }
  return signal;
}

std::vector<LoanBroker::ClusterSignal> FederationRouter::CollectSignals()
    const {
  std::vector<LoanBroker::ClusterSignal> signals;
  signals.reserve(clusters_.size());
  for (int c = 0; c < cluster_count(); ++c) {
    signals.push_back(SignalFor(c));
  }
  return signals;
}

JsonValue FederationRouter::MergeFanout(TelemetryCmd cmd,
                                        const JsonValue& request,
                                        const std::string& snapshot_path,
                                        std::uint64_t snapshot_submit_seq,
                                        std::vector<JsonValue>& replies) const {
  if (cmd == TelemetryCmd::kSnapshot && !snapshot_path.empty()) {
    return MergeFederationSnapshot(request, snapshot_path,
                                   snapshot_submit_seq, replies);
  }
  JsonValue merged = ShardRouter::MergeFanout(cmd, request, snapshot_path,
                                              snapshot_submit_seq, replies);
  if ((cmd == TelemetryCmd::kAdvance || cmd == TelemetryCmd::kDrain) &&
      merged.GetBool("ok", false)) {
    // Broker round at the barrier: every engine has stepped to the merged
    // time and published its snapshot (publish-before-completion), so the
    // signals are post-barrier. Barrier merges are serialized by the fanout
    // countdown, making the grant/reclaim trace deterministic; the lock only
    // fences concurrent migration completions.
    std::lock_guard<std::mutex> lock(broker_mu_);
    broker_.Evaluate(merged.GetDouble("time", 0.0), CollectSignals());
    merged.Set("loans",
               JsonValue::MakeNumber(
                   static_cast<double>(broker_.ledger().loans.size())));
  }
  return merged;
}

JsonValue FederationRouter::MergeFederationSnapshot(
    const JsonValue& request, const std::string& snapshot_path,
    std::uint64_t snapshot_submit_seq, std::vector<JsonValue>& replies) const {
  for (std::size_t k = 0; k < replies.size(); ++k) {
    if (!replies[k].GetBool("ok", false)) {
      JsonValue failed = replies[k];
      failed.Set("shard", JsonValue::MakeNumber(static_cast<double>(k)));
      for (std::size_t p = 0; p < replies.size(); ++p) {
        std::remove(PartPath(snapshot_path, static_cast<int>(p)).c_str());
      }
      EchoSeq(request, failed);
      return failed;
    }
  }

  FedSnapshot fed;
  fed.submit_seq = snapshot_submit_seq;
  double time = 0.0, commands = 0.0;
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
    // Per-cluster images carry no routing counter of their own; the
    // federation counter above covers every cluster.
    MultiSnapshot multi;
    for (const std::uint32_t e :
         cluster_engines_[static_cast<std::size_t>(c)]) {
      StatusOr<std::string> image =
          ReadFile(PartPath(snapshot_path, static_cast<int>(e)));
      if (!image.ok()) {
        JsonValue failed = StatusReply(image.status());
        EchoSeq(request, failed);
        return failed;
      }
      multi.shard_images.push_back(std::move(image).value());
      time = std::max(time, replies[e].GetDouble("time", 0.0));
      commands += replies[e].GetDouble("commands", 0.0);
    }
    FedClusterImage cluster;
    cluster.name = spec.name;
    cluster.kind = static_cast<std::uint8_t>(spec.kind);
    cluster.loan_priority = spec.loan_priority;
    cluster.shards = static_cast<std::uint32_t>(spec.shards);
    cluster.image = EncodeMultiSnapshot(multi);
    fed.clusters.push_back(std::move(cluster));
  }
  {
    std::lock_guard<std::mutex> lock(broker_mu_);
    fed.ledger = broker_.ledger();
  }
  const Status saved = SaveFedSnapshot(fed, snapshot_path);
  for (std::size_t k = 0; k < replies.size(); ++k) {
    std::remove(PartPath(snapshot_path, static_cast<int>(k)).c_str());
  }
  if (!saved.ok()) {
    JsonValue failed = StatusReply(saved);
    EchoSeq(request, failed);
    return failed;
  }
  JsonValue merged = OkReply();
  merged.Set("path", JsonValue::MakeString(snapshot_path));
  merged.Set("commands", JsonValue::MakeNumber(commands));
  merged.Set("time", JsonValue::MakeNumber(time));
  merged.Set("shards",
             JsonValue::MakeNumber(static_cast<double>(shard_count())));
  merged.Set("clusters",
             JsonValue::MakeNumber(static_cast<double>(cluster_count())));
  EchoSeq(request, merged);
  return merged;
}

JsonValue FederationRouter::ReadReply(const JsonValue& request) const {
  const std::string cmd = request.GetString("cmd");
  // Intercepted before any base/single-engine delegation: the plain
  // service's ReadReply answers federation_stats with failed_precondition.
  if (cmd == "federation_stats") {
    return FederationStats(request);
  }
  JsonValue reply = ShardRouter::ReadReply(request);
  if (shard_count() > 1 && cmd == "cluster_stats" &&
      reply.GetBool("ok", false)) {
    JsonValue clusters = JsonValue::MakeArray();
    FedLedger ledger;
    {
      std::lock_guard<std::mutex> lock(broker_mu_);
      ledger = broker_.ledger();
    }
    for (int c = 0; c < cluster_count(); ++c) {
      clusters.Append(ClusterInfo(c, ledger));
    }
    reply.Set("federation", std::move(clusters));
  }
  return reply;
}

JsonValue FederationRouter::ClusterInfo(int c, const FedLedger& ledger) const {
  const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
  std::array<std::uint64_t, 4> states{};
  PoolCounters pool;
  for (const std::uint32_t e : cluster_engines_[static_cast<std::size_t>(c)]) {
    const std::shared_ptr<const StateSnapshot> snap =
        shard(static_cast<int>(e))->snapshot();
    if (snap == nullptr) {
      continue;
    }
    for (std::size_t s = 0; s < states.size(); ++s) {
      states[s] += snap->state_counts[s];
    }
    const PoolCounters& from = spec.kind == ClusterKind::kInference
                                   ? snap->inference
                                   : snap->training;
    pool.servers += from.servers;
    pool.total_gpus += from.total_gpus;
    pool.used_gpus += from.used_gpus;
    pool.free_gpus += from.free_gpus;
  }
  std::int64_t loaned = 0, borrowed = 0;
  for (const FedLoan& loan : ledger.loans) {
    if (loan.lender == static_cast<std::uint32_t>(c)) {
      loaned += loan.gpus;
    }
    if (loan.borrower == static_cast<std::uint32_t>(c)) {
      borrowed += loan.gpus;
    }
  }

  JsonValue info = JsonValue::MakeObject();
  info.Set("cluster", JsonValue::MakeNumber(static_cast<double>(c)));
  info.Set("name", JsonValue::MakeString(spec.name));
  info.Set("kind", JsonValue::MakeString(ClusterKindName(spec.kind)));
  info.Set("loan_priority",
           JsonValue::MakeNumber(static_cast<double>(spec.loan_priority)));
  info.Set("shards", JsonValue::MakeNumber(static_cast<double>(spec.shards)));
  info.Set("first_engine",
           JsonValue::MakeNumber(static_cast<double>(
               first_engine_[static_cast<std::size_t>(c)])));
  JsonValue jobs = JsonValue::MakeObject();
  for (std::size_t s = 0; s < states.size(); ++s) {
    jobs.Set(JobStateLabel(static_cast<int>(s)),
             JsonValue::MakeNumber(static_cast<double>(states[s])));
  }
  info.Set("jobs", std::move(jobs));
  JsonValue gpus = JsonValue::MakeObject();
  gpus.Set("total", JsonValue::MakeNumber(static_cast<double>(pool.total_gpus)));
  gpus.Set("used", JsonValue::MakeNumber(static_cast<double>(pool.used_gpus)));
  gpus.Set("free", JsonValue::MakeNumber(static_cast<double>(pool.free_gpus)));
  info.Set("gpus", std::move(gpus));
  info.Set("loaned", JsonValue::MakeNumber(static_cast<double>(loaned)));
  info.Set("borrowed", JsonValue::MakeNumber(static_cast<double>(borrowed)));
  return info;
}

JsonValue FederationRouter::FederationStats(const JsonValue& request) const {
  for (int k = 0; k < shard_count(); ++k) {
    if (shard(k)->snapshot() == nullptr || shard(k)->stopped()) {
      JsonValue reply = ErrorReply("unavailable", "service is stopped");
      EchoSeq(request, reply);
      return reply;
    }
  }
  FedLedger ledger;
  std::vector<std::string> events;
  {
    std::lock_guard<std::mutex> lock(broker_mu_);
    ledger = broker_.ledger();
    events = broker_.events();
  }

  JsonValue reply = OkReply();
  reply.Set("time", JsonValue::MakeNumber(MaxEngineTime()));
  reply.Set("submit_seq",
            JsonValue::MakeNumber(static_cast<double>(submit_seq())));
  reply.Set("shards",
            JsonValue::MakeNumber(static_cast<double>(shard_count())));
  JsonValue clusters = JsonValue::MakeArray();
  for (int c = 0; c < cluster_count(); ++c) {
    clusters.Append(ClusterInfo(c, ledger));
  }
  reply.Set("clusters", std::move(clusters));

  JsonValue broker = JsonValue::MakeObject();
  broker.Set("active",
             JsonValue::MakeNumber(static_cast<double>(ledger.loans.size())));
  broker.Set("next_loan_id",
             JsonValue::MakeNumber(static_cast<double>(ledger.next_loan_id)));
  broker.Set("granted",
             JsonValue::MakeNumber(static_cast<double>(ledger.total_granted)));
  broker.Set("reclaimed", JsonValue::MakeNumber(
                              static_cast<double>(ledger.total_reclaimed)));
  broker.Set("returned", JsonValue::MakeNumber(
                             static_cast<double>(ledger.total_returned)));
  // Hex string: the hash is a full u64 and would lose bits as a double.
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(ledger.ledger_hash));
  broker.Set("ledger_hash", JsonValue::MakeString(hex));
  JsonValue loans = JsonValue::MakeArray();
  for (const FedLoan& loan : ledger.loans) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("id", JsonValue::MakeNumber(static_cast<double>(loan.id)));
    entry.Set("lender",
              JsonValue::MakeNumber(static_cast<double>(loan.lender)));
    entry.Set("borrower",
              JsonValue::MakeNumber(static_cast<double>(loan.borrower)));
    entry.Set("gpus", JsonValue::MakeNumber(static_cast<double>(loan.gpus)));
    entry.Set("granted_at", JsonValue::MakeNumber(loan.granted_at));
    loans.Append(std::move(entry));
  }
  broker.Set("loans", std::move(loans));
  JsonValue recent = JsonValue::MakeArray();
  for (const std::string& event : events) {
    recent.Append(JsonValue::MakeString(event));
  }
  broker.Set("events", std::move(recent));
  reply.Set("broker", std::move(broker));

  front()->CountRead();
  EchoSeq(request, reply);
  return reply;
}

std::string FederationRouter::RenderPromText() const {
  std::string text = ShardRouter::RenderPromText();
  FedLedger ledger;
  {
    std::lock_guard<std::mutex> lock(broker_mu_);
    ledger = broker_.ledger();
  }
  char buf[64];
  const auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };

  text += "# HELP lyra_fed_clusters Clusters in the federation.\n";
  text += "# TYPE lyra_fed_clusters gauge\n";
  text += "lyra_fed_clusters " + num(cluster_count()) + "\n";
  text += "# HELP lyra_fed_cluster_info Cluster identity (value is always 1).\n";
  text += "# TYPE lyra_fed_cluster_info gauge\n";
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
    text += "lyra_fed_cluster_info{cluster=\"" + spec.name + "\",kind=\"" +
            ClusterKindName(spec.kind) + "\"} 1\n";
  }
  text += "# HELP lyra_fed_jobs Jobs by cluster and state.\n";
  text += "# TYPE lyra_fed_jobs gauge\n";
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
    std::array<std::uint64_t, 4> states{};
    for (const std::uint32_t e :
         cluster_engines_[static_cast<std::size_t>(c)]) {
      const std::shared_ptr<const StateSnapshot> snap =
          shard(static_cast<int>(e))->snapshot();
      if (snap == nullptr) {
        continue;
      }
      for (std::size_t s = 0; s < states.size(); ++s) {
        states[s] += snap->state_counts[s];
      }
    }
    for (std::size_t s = 0; s < states.size(); ++s) {
      text += "lyra_fed_jobs{cluster=\"" + spec.name + "\",state=\"" +
              JobStateLabel(static_cast<int>(s)) + "\"} " +
              num(static_cast<double>(states[s])) + "\n";
    }
  }
  text += "# HELP lyra_fed_gpus GPUs by cluster and pool counter.\n";
  text += "# TYPE lyra_fed_gpus gauge\n";
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
    const LoanBroker::ClusterSignal signal = SignalFor(c);
    text += "lyra_fed_gpus{cluster=\"" + spec.name + "\",pool=\"total\"} " +
            num(static_cast<double>(signal.total_gpus)) + "\n";
    text += "lyra_fed_gpus{cluster=\"" + spec.name + "\",pool=\"free\"} " +
            num(static_cast<double>(signal.free_gpus)) + "\n";
  }
  text += "# HELP lyra_fed_gpus_loaned GPUs currently lent out, by lender.\n";
  text += "# TYPE lyra_fed_gpus_loaned gauge\n";
  text +=
      "# HELP lyra_fed_gpus_borrowed GPUs currently borrowed, by borrower.\n";
  text += "# TYPE lyra_fed_gpus_borrowed gauge\n";
  for (int c = 0; c < cluster_count(); ++c) {
    const ClusterSpec& spec = clusters_[static_cast<std::size_t>(c)];
    std::int64_t loaned = 0, borrowed = 0;
    for (const FedLoan& loan : ledger.loans) {
      if (loan.lender == static_cast<std::uint32_t>(c)) {
        loaned += loan.gpus;
      }
      if (loan.borrower == static_cast<std::uint32_t>(c)) {
        borrowed += loan.gpus;
      }
    }
    text += "lyra_fed_gpus_loaned{cluster=\"" + spec.name + "\"} " +
            num(static_cast<double>(loaned)) + "\n";
    text += "lyra_fed_gpus_borrowed{cluster=\"" + spec.name + "\"} " +
            num(static_cast<double>(borrowed)) + "\n";
  }
  text += "# HELP lyra_fed_loans_active Outstanding cross-cluster loans.\n";
  text += "# TYPE lyra_fed_loans_active gauge\n";
  text += "lyra_fed_loans_active " +
          num(static_cast<double>(ledger.loans.size())) + "\n";
  text += "# HELP lyra_fed_loans_granted_total GPUs ever granted.\n";
  text += "# TYPE lyra_fed_loans_granted_total counter\n";
  text += "lyra_fed_loans_granted_total " +
          num(static_cast<double>(ledger.total_granted)) + "\n";
  text += "# HELP lyra_fed_loans_reclaimed_total GPUs ever reclaimed.\n";
  text += "# TYPE lyra_fed_loans_reclaimed_total counter\n";
  text += "lyra_fed_loans_reclaimed_total " +
          num(static_cast<double>(ledger.total_reclaimed)) + "\n";
  text += "# HELP lyra_fed_loans_returned_total GPUs ever returned.\n";
  text += "# TYPE lyra_fed_loans_returned_total counter\n";
  text += "lyra_fed_loans_returned_total " +
          num(static_cast<double>(ledger.total_returned)) + "\n";
  return text;
}

// --- Build / restore ------------------------------------------------------

StatusOr<FederationSet> BuildFederation(
    const ServiceOptions& base, const std::vector<ClusterSpec>& clusters,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver) {
  if (clusters.empty()) {
    return Status::InvalidArgument("federation needs at least one cluster");
  }
  int total = 0;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].shards < 1 || clusters[c].shards > kMaxEngines) {
      return Status::InvalidArgument(
          "cluster shard count must be in [1, " + std::to_string(kMaxEngines) +
          "], got " + std::to_string(clusters[c].shards));
    }
    if (!ValidClusterName(clusters[c].name)) {
      return Status::InvalidArgument("bad cluster name: \"" +
                                     clusters[c].name + "\"");
    }
    for (std::size_t other = 0; other < c; ++other) {
      if (clusters[other].name == clusters[c].name) {
        return Status::InvalidArgument("duplicate cluster name: \"" +
                                       clusters[c].name + "\"");
      }
    }
    total += clusters[c].shards;
  }
  if (total > kMaxEngines) {
    return Status::InvalidArgument(
        "federation engine count must be in [1, " +
        std::to_string(kMaxEngines) + "], got " + std::to_string(total));
  }

  FederationSet set;
  int k = 0;
  for (const ClusterSpec& cluster : clusters) {
    for (int s = 0; s < cluster.shards; ++s) {
      ServiceOptions options = base;
      // Flat-index seed discipline, matching BuildShardSet: engine 0 keeps
      // the base seed, so a one-engine federation is the unsharded service.
      options.engine.seed = base.engine.seed + static_cast<std::uint64_t>(k);
      if (!base.trace_path.empty() && k > 0) {
        options.trace_path = base.trace_path + ".fed" + std::to_string(k);
      }
      auto service = std::make_unique<SchedulerService>(std::move(options),
                                                        make_driver(k));
      const Status started = service->Start();
      if (!started.ok()) {
        return started;
      }
      set.services.push_back(std::move(service));
      ++k;
    }
  }
  std::vector<SchedulerService*> pointers;
  pointers.reserve(set.services.size());
  for (const auto& service : set.services) {
    pointers.push_back(service.get());
  }
  set.router =
      std::make_unique<FederationRouter>(std::move(pointers), clusters);
  if (!base.loan_predictor.empty()) {
    const Status configured =
        set.router->ConfigureLoanPredictor(base.loan_predictor);
    if (!configured.ok()) {
      return configured;
    }
  }
  return set;
}

StatusOr<FederationSet> RestoreFederation(
    const ServiceOptions& base, const std::string& snapshot_path,
    const std::function<std::unique_ptr<TimeDriver>(int)>& make_driver) {
  StatusOr<FedSnapshot> loaded = LoadFedSnapshot(snapshot_path);
  if (!loaded.ok()) {
    return loaded.status();
  }
  const FedSnapshot& fed = loaded.value();

  std::vector<ClusterSpec> clusters;
  FederationSet set;
  int k = 0;
  for (const FedClusterImage& cluster : fed.clusters) {
    if (cluster.kind > 1) {
      return Status::DataLoss("bad cluster kind in " + snapshot_path);
    }
    ClusterSpec spec;
    spec.name = cluster.name;
    spec.kind = static_cast<ClusterKind>(cluster.kind);
    spec.shards = static_cast<int>(cluster.shards);
    spec.loan_priority = static_cast<int>(cluster.loan_priority);

    StatusOr<MultiSnapshot> multi = DecodeMultiSnapshot(
        cluster.image, snapshot_path + " (cluster " + cluster.name + ")");
    if (!multi.ok()) {
      return multi.status();
    }
    if (multi.value().shard_images.size() !=
        static_cast<std::size_t>(cluster.shards)) {
      return Status::DataLoss("cluster " + cluster.name + " has " +
                              std::to_string(multi.value().shard_images.size()) +
                              " images for " + std::to_string(cluster.shards) +
                              " shards in " + snapshot_path);
    }
    for (std::size_t s = 0; s < multi.value().shard_images.size(); ++s) {
      ServiceOptions options = base;
      if (!base.trace_path.empty() && k > 0) {
        options.trace_path = base.trace_path + ".fed" + std::to_string(k);
      }
      auto service = std::make_unique<SchedulerService>(std::move(options),
                                                        make_driver(k));
      const Status restored = service->RestoreBytes(
          multi.value().shard_images[s],
          snapshot_path + " (cluster " + cluster.name + " shard " +
              std::to_string(s) + ")");
      if (!restored.ok()) {
        return restored;
      }
      set.services.push_back(std::move(service));
      ++k;
    }
    clusters.push_back(std::move(spec));
  }
  std::vector<SchedulerService*> pointers;
  pointers.reserve(set.services.size());
  for (const auto& service : set.services) {
    pointers.push_back(service.get());
  }
  auto router = std::make_unique<FederationRouter>(std::move(pointers),
                                                   std::move(clusters));
  router->set_submit_seq(fed.submit_seq);
  if (!base.loan_predictor.empty()) {
    const Status configured =
        router->ConfigureLoanPredictor(base.loan_predictor);
    if (!configured.ok()) {
      return configured;
    }
  }
  router->RestoreLedger(fed.ledger);
  // A crash between a snapshot and a cluster-set change can persist loans
  // against clusters that no longer exist; drop them before serving.
  router->ReconcileBroker();
  set.router = std::move(router);
  return set;
}

bool IsFedSnapshotFile(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return false;
  }
  char magic[8] = {};
  const std::size_t n = std::fread(magic, 1, sizeof(magic), in);
  std::fclose(in);
  return n == sizeof(magic) && std::memcmp(magic, "LYRAFED_", 8) == 0;
}

}  // namespace lyra::svc
