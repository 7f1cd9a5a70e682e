#include "src/lyra/placement.h"

#include <algorithm>
#include <vector>

#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

// Lyra's key: within a tier best-fit prefers a non-empty server with the
// least (but sufficient) free GPUs, opening an empty server only when no
// partially-used one fits; segments are tiers in preference order.
bool PlaceAll(ClusterState& cluster, const Job& job, int workers, bool flexible,
              const std::vector<PlacementSegment>& segments) {
  return PlaceAllBestFit(cluster, job.id(), job.spec().gpus_per_worker, workers,
                         flexible, segments, BestFitOrder::kTierEmptyFree);
}

// All-or-nothing placement of a job's base demand within a single GPU type
// (or mixed for heterogeneous jobs). Grouped elastic jobs keep base demand
// off servers with flexible workers where they can (§5.3).
bool PlaceBase(ClusterState& cluster, const Job& job, int workers,
               const PlacementOptions& options) {
  const JobSpec& spec = job.spec();
  const bool loan_eligible =
      options.allow_loaned && (spec.fungible || spec.heterogeneous);
  const TierFilter tier = !options.naive && spec.elastic() ? TierFilter::kAvoidFlexible
                                                           : TierFilter::kNone;
  const PlacementSegment training{ServerPool::kTraining, tier};
  const PlacementSegment loaned{ServerPool::kOnLoan, tier};

  if (spec.heterogeneous && !options.naive) {
    // Heterogeneous base demand goes to training servers; if that fails the
    // job may span both pools (§6). Without a loan the second set equals
    // the first.
    return PlaceAll(cluster, job, workers, false, {training}) ||
           (loan_eligible && PlaceAll(cluster, job, workers, false, {training, loaned}));
  }

  // Non-heterogeneous jobs keep one GPU type per run: pick a pool order and
  // place entirely within one pool.
  const bool prefer_loaned = spec.elastic() && !options.naive && loan_eligible;
  if (prefer_loaned) {
    return PlaceAll(cluster, job, workers, false, {loaned}) ||
           PlaceAll(cluster, job, workers, false, {training});
  }
  return PlaceAll(cluster, job, workers, false, {training}) ||
         (loan_eligible && PlaceAll(cluster, job, workers, false, {loaned}));
}

// Places up to `workers` flexible workers; partial success allowed. Grouped
// flexible demand keeps off servers with base workers where it can (§5.3).
int PlaceFlexible(ClusterState& cluster, const Job& job, int workers,
                  const PlacementOptions& options) {
  const JobSpec& spec = job.spec();
  const bool loan_eligible =
      options.allow_loaned && (spec.fungible || spec.heterogeneous);
  const TierFilter tier = options.naive ? TierFilter::kNone : TierFilter::kAvoidBase;
  const PlacementSegment training{ServerPool::kTraining, tier};
  const PlacementSegment loaned{ServerPool::kOnLoan, tier};

  std::vector<PlacementSegment> segments;
  GpuType pinned;
  const bool is_pinned =
      !spec.heterogeneous && CurrentGpuType(cluster, job.id(), &pinned);
  if (spec.heterogeneous && !options.naive) {
    // Flexible demand of heterogeneous jobs prefers inference servers (§6).
    segments = {loaned, training};
  } else if (is_pinned && pinned == GpuType::kInferenceT4) {
    segments = {loaned};
  } else if (is_pinned && pinned == GpuType::kTrainingV100) {
    segments = {training};
  } else {
    // Unplaced job (should not happen for scale-out) or naive mode: training
    // first, then loaned.
    segments = {training};
    if (loan_eligible) {
      segments.push_back(loaned);
    }
  }
  const double placed = PlaceBestFit(cluster, job.id(), spec.gpus_per_worker, workers,
                                     true, segments, BestFitOrder::kTierEmptyFree);
  return static_cast<int>(placed + 0.5);
}

}  // namespace

PlacementStats ApplyAllocation(ClusterState& cluster, const AllocationDecision& decision,
                               const PlacementOptions& options) {
  PlacementStats stats;

  // Scale-ins first so launches and scale-outs see the freed capacity. Each
  // target's flexible workers are counted once here and kept for the
  // scale-out pass; only a job this pass shrank is counted again. Launches
  // place base workers only, so a job launched this tick reads 0 before and
  // after PlaceBase.
  std::vector<int> current(decision.flexible_targets.size());
  for (std::size_t t = 0; t < current.size(); ++t) {
    const auto& [job, target_flex] = decision.flexible_targets[t];
    current[t] = PlacedFlexibleWorkers(cluster, *job);
    if (current[t] > target_flex) {
      ShrinkFlexibleTo(cluster, *job, target_flex);
      stats.scale_ins += current[t] - target_flex;
      current[t] = PlacedFlexibleWorkers(cluster, *job);
    }
  }

  // Launches in decreasing per-worker GPU demand (BFD across jobs).
  std::vector<Job*> launches = decision.launches;
  std::stable_sort(launches.begin(), launches.end(), [](const Job* a, const Job* b) {
    return a->spec().gpus_per_worker > b->spec().gpus_per_worker;
  });
  for (Job* job : launches) {
    if (PlaceBase(cluster, *job, job->spec().min_workers, options)) {
      ++stats.launched;
    } else {
      ++stats.launch_failures;
    }
  }

  // Flexible scale-outs to the knapsack targets.
  for (std::size_t t = 0; t < current.size(); ++t) {
    const auto& [job, target_flex] = decision.flexible_targets[t];
    if (cluster.FindPlacement(job->id()) == nullptr) {
      continue;  // launch failed; no flexible workers for this job
    }
    if (current[t] < target_flex) {
      stats.scale_outs += PlaceFlexible(cluster, *job, target_flex - current[t], options);
    }
  }
  return stats;
}

}  // namespace lyra
