#include "src/lyra/allocation.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/lyra/mckp.h"
#include "src/obs/obs.h"
#include "src/sched/elastic_util.h"

namespace lyra {
namespace {

// Free-capacity ledger split by pool, because non-fungible jobs can only
// consume training GPUs. Flexible GPUs count as free: they are available for
// resizing at the epoch (§5.2).
struct CapacityLedger {
  // Capacities in normalized (training-GPU-equivalent) units: on-loan
  // inference GPUs count at their compute factor (§5.2).
  double training = 0.0;
  double loaned = 0.0;

  double total() const { return training + loaned; }

  // Tries to debit `gpus` (normalized) with the given pool preference;
  // returns false and leaves the ledger unchanged if it cannot be covered.
  bool Debit(double gpus, bool can_use_loaned, bool prefer_loaned) {
    if (!can_use_loaned) {
      if (training < gpus) {
        return false;
      }
      training -= gpus;
      return true;
    }
    if (total() < gpus) {
      return false;
    }
    double& first = prefer_loaned ? loaned : training;
    double& second = prefer_loaned ? training : loaned;
    const double from_first = std::min(first, gpus);
    first -= from_first;
    second -= gpus - from_first;
    return true;
  }
};

CapacityLedger BuildLedger(const SchedulerContext& ctx) {
  CapacityLedger ledger;
  const ClusterState& cluster = *ctx.cluster;
  ledger.training = cluster.FreeGpus(ServerPool::kTraining);
  if (ctx.allow_loaned_placement) {
    ledger.loaned = cluster.FreeGpus(ServerPool::kOnLoan) * kInferenceGpuFactor;
  }
  // Flexible workers are resizable: add their GPUs back as capacity. Only
  // elastic jobs ever hold flexible GPUs (pinned for every scheduler by
  // scheduler_conformance_test), so the others are skipped unread.
  for (const Job* job : ctx.running) {
    if (!job->spec().elastic()) {
      continue;
    }
    const JobPlacement* placement = cluster.FindPlacement(job->id());
    if (placement == nullptr) {
      continue;
    }
    for (const auto& [server_id, share] : placement->shares) {
      if (share.flexible_gpus == 0) {
        continue;
      }
      if (cluster.server(server_id).pool() == ServerPool::kOnLoan) {
        if (ctx.allow_loaned_placement) {
          ledger.loaned += share.flexible_gpus * kInferenceGpuFactor;
        }
      } else {
        ledger.training += share.flexible_gpus;
      }
    }
  }
  return ledger;
}

}  // namespace

AllocationDecision TwoPhaseAllocate(const SchedulerContext& ctx,
                                    const AllocationOptions& options) {
  AllocationDecision decision;
  CapacityLedger ledger = BuildLedger(ctx);

  // --- Phase 1: SJF over the inelastic workload ------------------------------
  // Heterogeneous-capable jobs are considered with the lowest priority, after
  // everything else is scheduled (§6).
  std::vector<Job*> order = ctx.pending;
  std::stable_sort(order.begin(), order.end(), [&](const Job* a, const Job* b) {
    const bool ha = a->spec().heterogeneous;
    const bool hb = b->spec().heterogeneous;
    if (ha != hb) {
      return hb;  // non-heterogeneous first
    }
    if (options.information_agnostic) {
      // Least attained service: favor jobs that have made the least progress
      // so far (all unstarted jobs tie and keep arrival order).
      return (a->spec().total_work - a->work_remaining()) <
             (b->spec().total_work - b->work_remaining());
    }
    return a->EstimatedRemainingTime(a->spec().max_workers) <
           b->EstimatedRemainingTime(b->spec().max_workers);
  });

  for (Job* job : order) {
    const JobSpec& spec = job->spec();
    const double need = static_cast<double>(spec.min_workers * spec.gpus_per_worker);
    const bool can_use_loaned =
        ctx.allow_loaned_placement && (spec.fungible || spec.heterogeneous);
    // Elastic jobs prefer on-loan servers so reclaiming can scale them in
    // rather than preempt; heterogeneous base demand stays on training (§6).
    const bool prefer_loaned = spec.elastic() && !spec.heterogeneous;
    if (ledger.Debit(need, can_use_loaned, prefer_loaned)) {
      decision.launches.push_back(job);
    }
    // Jobs that do not fit are simply removed from the pool this epoch (§5.2).
  }

  // --- Phase 2: multiple-choice knapsack over flexible demand ----------------
  std::vector<Job*> elastic;
  for (Job* job : ctx.running) {
    if (job->spec().elastic()) {
      elastic.push_back(job);
    }
  }
  for (Job* job : decision.launches) {
    if (job->spec().elastic()) {
      elastic.push_back(job);
    }
  }
  if (elastic.empty()) {
    return decision;
  }

  // Per-thread scratch: each group keeps its item storage across ticks.
  thread_local std::vector<MckpGroup> groups;
  groups.resize(elastic.size());
  for (std::size_t g = 0; g < elastic.size(); ++g) {
    const Job* job = elastic[g];
    const JobSpec& spec = job->spec();
    MckpGroup& group = groups[g];
    group.items.clear();
    const TimeSec base_time = job->EstimatedRemainingTime(spec.min_workers);
    for (int k = 1; k <= spec.max_workers - spec.min_workers; ++k) {
      MckpItem item;
      item.weight = k * spec.gpus_per_worker;
      if (options.information_agnostic) {
        // Without running-time estimates, value a grant by the compute it
        // adds so the remaining GPUs are simply kept busy.
        item.value = static_cast<double>(k);
      } else {
        item.value = base_time - job->EstimatedRemainingTime(spec.min_workers + k);
      }
      group.items.push_back(item);
    }
  }

  const int capacity = static_cast<int>(ledger.total());
  if (options.greedy_phase2) {
    // AFS-style local heuristic: one worker at a time to the job with the
    // best marginal value per GPU.
    std::vector<int> granted(elastic.size(), 0);
    int remaining = capacity;
    while (true) {
      std::size_t best = groups.size();
      double best_ratio = 0.0;
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const int next = granted[g];
        if (next >= static_cast<int>(groups[g].items.size())) {
          continue;
        }
        const MckpItem& item = groups[g].items[static_cast<std::size_t>(next)];
        const double prev_value =
            next == 0 ? 0.0 : groups[g].items[static_cast<std::size_t>(next - 1)].value;
        const int step_weight = elastic[g]->spec().gpus_per_worker;
        if (step_weight > remaining) {
          continue;
        }
        const double ratio = (item.value - prev_value) / step_weight;
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best = g;
        }
      }
      if (best == groups.size()) {
        break;
      }
      ++granted[best];
      remaining -= elastic[best]->spec().gpus_per_worker;
    }
    for (std::size_t g = 0; g < elastic.size(); ++g) {
      decision.flexible_targets.emplace_back(elastic[g], granted[g]);
    }
    return decision;
  }

  MckpSolution solution;
  {
    obs::PhaseSpan mckp_span(obs::Phase::kMckp);
    solution = SolveMckp(groups, capacity);
  }
  for (std::size_t g = 0; g < elastic.size(); ++g) {
    const int chosen = solution.chosen[g];
    decision.flexible_targets.emplace_back(elastic[g], chosen < 0 ? 0 : chosen + 1);
  }
  return decision;
}

}  // namespace lyra
