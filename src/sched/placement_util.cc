#include "src/sched/placement_util.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/common/check.h"
#include "src/obs/obs.h"

namespace lyra {
namespace {

constexpr double kCreditEpsilon = 1e-9;
constexpr GpuType kGpuTypes[] = {GpuType::kTrainingV100, GpuType::kInferenceT4};

bool LoanEligible(const PlaceRequest& request) {
  return request.fungible || request.heterogeneous;
}

int LevelSize(const ClusterState& cluster, ServerPool pool, int free) {
  int servers = 0;
  for (GpuType type : kGpuTypes) {
    servers += cluster.NumServersWithFree(pool, type, free);
  }
  return servers;
}

const ServerBitset* TierFlags(const ClusterState& cluster, TierFilter tier) {
  switch (tier) {
    case TierFilter::kNone:
      return nullptr;
    case TierFilter::kAvoidFlexible:
      return &cluster.ServersWithFlexibleGpus();
    case TierFilter::kAvoidBase:
      return &cluster.ServersWithBaseGpus();
  }
  return nullptr;
}

// The lowest id in `level` whose bit in `flags` equals `flagged` and whose
// bit in `idle` equals `want_idle`; a null set matches every server.
ServerId FirstMatch(const ServerBitset& level, const ServerBitset* flags, bool flagged,
                    const ServerBitset* idle, bool want_idle) {
  for (std::size_t w = 0; w < level.num_words(); ++w) {
    std::uint64_t bits = level.word(w);
    if (bits != 0 && flags != nullptr) {
      bits &= flagged ? flags->word(w) : ~flags->word(w);
    }
    if (bits != 0 && idle != nullptr) {
      bits &= want_idle ? idle->word(w) : ~idle->word(w);
    }
    if (bits != 0) {
      return ServerId(static_cast<std::int64_t>(w * 64) + std::countr_zero(bits));
    }
  }
  return ServerId();
}

// The least candidate with room for one worker under `order`; invalid if
// none has room. Visits the key's dimensions outermost first, so the first
// match is the minimum.
ServerId PickBestFit(const ClusterState& cluster,
                     const std::vector<PlacementSegment>& segments,
                     int gpus_per_worker, BestFitOrder order) {
  const int max_free = cluster.MaxServerGpus();
  if (order == BestFitOrder::kFree) {
    for (int free = gpus_per_worker; free <= max_free; ++free) {
      for (const PlacementSegment& segment : segments) {
        if (LevelSize(cluster, segment.pool, free) > 0) {
          return FirstMatch(cluster.ServersWithFree(segment.pool, free), nullptr,
                            false, nullptr, false);
        }
      }
    }
    return ServerId();
  }
  for (const PlacementSegment& segment : segments) {
    const ServerBitset* flags = TierFlags(cluster, segment.tier);
    for (int tier = 0; tier < (flags != nullptr ? 2 : 1); ++tier) {
      for (const bool empty : {false, true}) {
        for (int free = gpus_per_worker; free <= max_free; ++free) {
          if (LevelSize(cluster, segment.pool, free) == 0) {
            continue;
          }
          const ServerId id =
              FirstMatch(cluster.ServersWithFree(segment.pool, free), flags,
                         tier == 1, &cluster.IdleServers(), empty);
          if (id.valid()) {
            return id;
          }
        }
      }
    }
  }
  return ServerId();
}

// Capacity of the segments in nominal workers of `gpus_per_worker` GPUs: a
// worker slot on inference GPUs counts its compute factor (capacity
// normalization, §5.2). Exactly what PlaceBestFit can place.
double SegmentCapacity(const ClusterState& cluster,
                       const std::vector<PlacementSegment>& segments,
                       int gpus_per_worker) {
  double capacity = 0.0;
  for (const PlacementSegment& segment : segments) {
    for (GpuType type : kGpuTypes) {
      int slots = 0;
      for (int free = gpus_per_worker; free <= cluster.MaxServerGpus(); ++free) {
        slots += cluster.NumServersWithFree(segment.pool, type, free) *
                 (free / gpus_per_worker);
      }
      capacity += slots * GpuComputeFactor(type);
    }
  }
  return capacity;
}

// Segment groups the request may use, in preference order. Each group is
// GPU-type-uniform for non-heterogeneous jobs (one pool: training servers are
// V100, on-loan servers T4); heterogeneous jobs get a single mixed group
// ordered by pool preference.
std::vector<std::vector<PlacementSegment>> EligibleGroups(const ClusterState& cluster,
                                                          const PlaceRequest& request) {
  std::vector<ServerPool> pools;
  switch (request.preference) {
    case PoolPreference::kTrainingFirst:
      pools = {ServerPool::kTraining, ServerPool::kOnLoan};
      break;
    case PoolPreference::kLoanedFirst:
      pools = {ServerPool::kOnLoan, ServerPool::kTraining};
      break;
    case PoolPreference::kTrainingOnly:
      pools = {ServerPool::kTraining};
      break;
    case PoolPreference::kLoanedOnly:
      pools = {ServerPool::kOnLoan};
      break;
  }

  // A non-heterogeneous job that already holds GPUs must stay on that type.
  GpuType current;
  const bool pinned = !request.heterogeneous &&
                      CurrentGpuType(cluster, request.job, &current);

  std::vector<std::vector<PlacementSegment>> groups;
  for (ServerPool pool : pools) {
    if (pool == ServerPool::kOnLoan && !LoanEligible(request)) {
      continue;
    }
    if (request.heterogeneous) {
      if (groups.empty()) {
        groups.emplace_back();
      }
      groups.front().push_back({pool});
      continue;
    }
    const GpuType type =
        pool == ServerPool::kTraining ? GpuType::kTrainingV100 : GpuType::kInferenceT4;
    if (!pinned || type == current) {
      groups.push_back({{pool}});
    }
  }
  return groups;
}

// Shared all-or-nothing attempt, without the attempt/failure counters (the
// speculative path must not skew them): the first group with the capacity
// takes the whole request.
bool TryPlaceWorkersImpl(ClusterState& cluster, const PlaceRequest& request) {
  LYRA_CHECK_GT(request.workers, 0);
  for (const auto& group : EligibleGroups(cluster, request)) {
    if (PlaceAllBestFit(cluster, request.job, request.gpus_per_worker,
                        request.workers, request.flexible, group,
                        BestFitOrder::kFree)) {
      return true;
    }
  }
  return false;
}

}  // namespace

double PlaceBestFit(ClusterState& cluster, JobId job, int gpus_per_worker,
                    int workers, bool flexible,
                    const std::vector<PlacementSegment>& segments,
                    BestFitOrder order) {
  double placed = 0.0;
  while (placed + kCreditEpsilon < static_cast<double>(workers)) {
    const ServerId best = PickBestFit(cluster, segments, gpus_per_worker, order);
    if (!best.valid()) {
      break;
    }
    cluster.Place(job, best, gpus_per_worker, flexible);
    // A fungible job moved to weaker GPUs keeps its global batch size by
    // running proportionally more, smaller workers (§2.1): a worker on an
    // inference GPU is worth its compute factor in nominal workers.
    placed += GpuComputeFactor(cluster.server(best).gpu_type());
  }
  return placed;
}

bool PlaceAllBestFit(ClusterState& cluster, JobId job, int gpus_per_worker,
                     int workers, bool flexible,
                     const std::vector<PlacementSegment>& segments,
                     BestFitOrder order) {
  if (SegmentCapacity(cluster, segments, gpus_per_worker) + kCreditEpsilon <
      static_cast<double>(workers)) {
    return false;
  }
  const double placed =
      PlaceBestFit(cluster, job, gpus_per_worker, workers, flexible, segments, order);
  LYRA_CHECK_GE(placed + kCreditEpsilon, static_cast<double>(workers));
  return true;
}

bool TryPlaceWorkers(ClusterState& cluster, const PlaceRequest& request) {
  obs::AddCounter("placement.attempts");
  if (TryPlaceWorkersImpl(cluster, request)) {
    obs::AddCounter("placement.workers_placed", static_cast<std::uint64_t>(request.workers));
    return true;
  }
  obs::AddCounter("placement.failures");
  return false;
}

bool WouldPlaceWorkers(ClusterState& cluster, const PlaceRequest& request) {
  obs::AddCounter("placement.speculative_checks");
  ClusterTransaction txn(cluster);
  const bool ok = TryPlaceWorkersImpl(cluster, request);
  txn.Rollback();
  return ok;
}

int CountPlaceableWorkers(const ClusterState& cluster, const PlaceRequest& request) {
  double best = 0.0;
  for (const auto& group : EligibleGroups(cluster, request)) {
    best = std::max(best, SegmentCapacity(cluster, group, request.gpus_per_worker));
  }
  return static_cast<int>(best + kCreditEpsilon);
}

bool CurrentGpuType(const ClusterState& cluster, JobId job, GpuType* type) {
  const JobPlacement* placement = cluster.FindPlacement(job);
  if (placement == nullptr || placement->shares.empty()) {
    return false;
  }
  bool first = true;
  GpuType seen = GpuType::kTrainingV100;
  for (const auto& [server_id, share] : placement->shares) {
    const GpuType t = cluster.server(server_id).gpu_type();
    if (first) {
      seen = t;
      first = false;
    } else if (t != seen) {
      return false;  // mixed
    }
  }
  *type = seen;
  return true;
}

PlacementProfile ProfileFor(const ClusterState& cluster, const Job& job) {
  PlacementProfile profile;
  const JobPlacement* placement = cluster.FindPlacement(job.id());
  if (placement == nullptr) {
    return profile;
  }
  int total_gpus = 0;
  double factor_sum = 0.0;
  bool has_training = false;
  bool has_inference = false;
  for (const auto& [server_id, share] : placement->shares) {
    const Server& srv = cluster.server(server_id);
    total_gpus += share.total();
    factor_sum += share.total() * GpuComputeFactor(srv.gpu_type());
    if (srv.gpu_type() == GpuType::kTrainingV100) {
      has_training = true;
      profile.training_gpus += share.total();
    } else {
      has_inference = true;
      profile.inference_gpus += share.total();
    }
  }
  profile.workers = total_gpus / job.spec().gpus_per_worker;
  profile.mean_gpu_factor = total_gpus > 0 ? factor_sum / total_gpus : 1.0;
  profile.spans_heterogeneous = has_training && has_inference;
  return profile;
}

PlaceRequest BaseRequest(const Job& job, int workers, PoolPreference preference) {
  PlaceRequest request;
  request.job = job.id();
  request.gpus_per_worker = job.spec().gpus_per_worker;
  request.workers = workers;
  request.flexible = false;
  request.fungible = job.spec().fungible;
  request.heterogeneous = job.spec().heterogeneous;
  request.preference = preference;
  return request;
}

PlaceRequest FlexibleRequest(const Job& job, int workers, PoolPreference preference) {
  PlaceRequest request = BaseRequest(job, workers, preference);
  request.flexible = true;
  return request;
}

}  // namespace lyra
