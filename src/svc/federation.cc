#include "src/svc/federation.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/common/hash.h"
#include "src/svc/registry.h"

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

// Same integer arithmetic everywhere: ceil(kReserveFraction * total) without
// floating point, so the reserve is identical across platforms.
std::int64_t ReserveOf(std::int64_t total_gpus) {
  return (total_gpus + 9) / 10;
}

}  // namespace

const char* ClusterKindName(ClusterKind kind) {
  return kind == ClusterKind::kInference ? "inference" : "training";
}

bool ParseClusterKind(const std::string& token, ClusterKind* kind) {
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

StatusOr<std::vector<ClusterSpec>> ParseFederationSpec(
    const std::string& spec) {
  if (spec.empty()) {
    return Status::InvalidArgument("empty federation spec");
  }

  std::vector<ClusterSpec> clusters;
  const std::size_t x = spec.find('x');
  if (x != std::string::npos && spec.find(',') == std::string::npos &&
      spec.find(':') == std::string::npos) {
    // Compact form: "NxM" or "NxM@S".
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
    if (inference > kMaxEngines - training) {
      return Status::InvalidArgument("too many clusters: \"" + spec + "\"");
    }
    for (long long i = 0; i < inference + training; ++i) {
      ClusterSpec cluster;
      cluster.kind = i < inference ? ClusterKind::kInference
                                   : ClusterKind::kTraining;
      cluster.name = i < inference ? "inf" + std::to_string(i)
                                   : "train" + std::to_string(i - inference);
      cluster.shards = static_cast<int>(std::min<long long>(shards, INT_MAX));
      clusters.push_back(std::move(cluster));
    }
  } else {
    // Explicit list: "name:kind[:shards[:prio]],...".
    for (const std::string& entry : SplitOn(spec, ',')) {
      const std::vector<std::string> fields = SplitOn(entry, ':');
      if (fields.size() < 2 || fields.size() > 4) {
        return Status::InvalidArgument("bad federation cluster: \"" + entry +
                                       "\"");
      }
      ClusterSpec cluster;
      cluster.name = fields[0];
      if (!ParseClusterKind(fields[1], &cluster.kind)) {
        return Status::InvalidArgument("unknown cluster kind: \"" +
                                       fields[1] + "\"");
      }
      long long shards = 1;
      if (fields.size() >= 3 && !ParseUint(fields[2], &shards)) {
        return Status::InvalidArgument("bad cluster shard count: \"" +
                                       fields[2] + "\"");
      }
      cluster.shards = static_cast<int>(std::min<long long>(shards, INT_MAX));
      if (fields.size() == 4) {
        char* end = nullptr;
        const long long priority = std::strtoll(fields[3].c_str(), &end, 10);
        if (fields[3].empty() || end == nullptr || *end != '\0') {
          return Status::InvalidArgument("bad cluster loan priority: \"" +
                                         fields[3] + "\"");
        }
        cluster.loan_priority = static_cast<int>(priority);
      }
      clusters.push_back(std::move(cluster));
    }
  }
  const Status valid = ValidateClusters(clusters);
  if (!valid.ok()) {
    return valid;
  }
  return clusters;
}

Status ValidateClusters(const std::vector<ClusterSpec>& clusters) {
  if (clusters.empty()) {
    return Status::InvalidArgument("federation needs at least one cluster");
  }
  int engines = 0;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const ClusterSpec& cluster = clusters[c];
    if (cluster.shards < 1 || cluster.shards > kMaxEngines) {
      return Status::InvalidArgument(
          "cluster shard count must be in [1, " + std::to_string(kMaxEngines) +
          "], got " + std::to_string(cluster.shards));
    }
    if (!ValidClusterName(cluster.name)) {
      return Status::InvalidArgument("bad cluster name: \"" + cluster.name +
                                     "\"");
    }
    for (std::size_t other = 0; other < c; ++other) {
      if (clusters[other].name == cluster.name) {
        return Status::InvalidArgument("duplicate cluster name: \"" +
                                       cluster.name + "\"");
      }
    }
    engines += cluster.shards;
  }
  if (engines > kMaxEngines) {
    return Status::InvalidArgument(
        "engine count must be in [1, " + std::to_string(kMaxEngines) +
        "], got " + std::to_string(engines));
  }
  return Status::Ok();
}

std::int64_t LoanedBy(const FedLedger& ledger, std::uint32_t cluster) {
  std::int64_t total = 0;
  for (const FedLoan& loan : ledger.loans) {
    if (loan.lender == cluster) {
      total += loan.gpus;
    }
  }
  return total;
}

std::int64_t BorrowedBy(const FedLedger& ledger, std::uint32_t cluster) {
  std::int64_t total = 0;
  for (const FedLoan& loan : ledger.loans) {
    if (loan.borrower == cluster) {
      total += loan.gpus;
    }
  }
  return total;
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

}  // namespace lyra::svc
