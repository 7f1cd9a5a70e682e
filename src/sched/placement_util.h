// Placement primitives shared by all schedulers.
//
// Placement is per-worker: a worker occupies gpus_per_worker GPUs on one
// server (workers never span servers). Jobs that are not heterogeneous-
// capable must keep all workers on a single GPU type per run (§2.1), so a
// placement attempt picks one eligible pool group; heterogeneous jobs may mix.
#ifndef SRC_SCHED_PLACEMENT_UTIL_H_
#define SRC_SCHED_PLACEMENT_UTIL_H_

#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/workload/job.h"
#include "src/workload/throughput.h"

namespace lyra {

// Where a job's new workers may go, in preference order.
enum class PoolPreference {
  kTrainingFirst,  // training servers, then on-loan if the job is fungible
  kLoanedFirst,    // on-loan servers (if fungible), then training
  kTrainingOnly,
  kLoanedOnly,
};

struct PlaceRequest {
  JobId job;
  int gpus_per_worker = 1;
  int workers = 0;        // how many workers to place in this call
  bool flexible = false;  // mark the GPUs as flexible (elastic beyond base)
  bool fungible = false;
  bool heterogeneous = false;
  PoolPreference preference = PoolPreference::kTrainingFirst;
};

// --- The best-fit primitive (DESIGN.md §4) ----------------------------------
//
// Every placer in the repo goes through PlaceBestFit: Lyra's tiered BFD and
// the baselines' BFD differ only in the candidate segments and the order in
// which servers compare, both passed in by the caller.

// Lyra's grouping of base and flexible demand (§5.3): the servers of a
// segment that lack the flag come first, the flagged ones after them.
enum class TierFilter {
  kNone,           // one tier
  kAvoidFlexible,  // base demand: servers hosting flexible GPUs come last
  kAvoidBase,      // flexible demand: servers hosting base GPUs come last
};

// One pool of candidate servers; segments are listed in preference order.
struct PlacementSegment {
  ServerPool pool = ServerPool::kTraining;
  TierFilter tier = TierFilter::kNone;
};

// The key on which best-fit picks the least candidate per worker. Ties that
// survive the key go to the lower server id.
enum class BestFitOrder {
  // Lyra (§5.3): (segment, tier, empty servers last, fewest free GPUs, id).
  kTierEmptyFree,
  // Baselines: (fewest free GPUs, segment, id).
  kFree,
};

// Places workers one at a time, each on the least candidate with room for it
// under `order`, until `workers` nominal worker credit is placed or no
// candidate has room; returns the credit placed. Each pick is a query of the
// cluster's free-GPU index.
double PlaceBestFit(ClusterState& cluster, JobId job, int gpus_per_worker,
                    int workers, bool flexible,
                    const std::vector<PlacementSegment>& segments,
                    BestFitOrder order);

// All-or-nothing: if the segments' capacity holds `workers` nominal workers,
// places them with PlaceBestFit and returns true; otherwise changes nothing.
// The capacity is exact, so a placement that passes the check completes.
bool PlaceAllBestFit(ClusterState& cluster, JobId job, int gpus_per_worker,
                     int workers, bool flexible,
                     const std::vector<PlacementSegment>& segments,
                     BestFitOrder order);

// Attempts to place all requested workers using best-fit-decreasing within
// the eligible servers; all-or-nothing. Returns true on success.
//
// For non-heterogeneous jobs the placement keeps GPU types uniform *per
// request*; callers that grow a job must keep follow-up requests on the same
// GPU type the job already occupies (see CurrentGpuType).
bool TryPlaceWorkers(ClusterState& cluster, const PlaceRequest& request);

// Exact speculative feasibility check: would TryPlaceWorkers succeed right
// now? Runs the real placement inside a ClusterTransaction and rolls it
// back, so the answer accounts for fragmentation and type pinning — unlike
// CountPlaceableWorkers, which is an aggregate-capacity estimate. The
// cluster is unchanged on return.
bool WouldPlaceWorkers(ClusterState& cluster, const PlaceRequest& request);

// Counts how many additional workers of the given shape could be placed.
int CountPlaceableWorkers(const ClusterState& cluster, const PlaceRequest& request);

// The GPU type a placed job currently runs on, if it is uniform; returns
// true and sets *type, or returns false if unplaced or mixed.
bool CurrentGpuType(const ClusterState& cluster, JobId job, GpuType* type);

// Derives the job's throughput-relevant placement profile from the cluster.
PlacementProfile ProfileFor(const ClusterState& cluster, const Job& job);

// Convenience: a PlaceRequest for launching `workers` base workers of `job`.
PlaceRequest BaseRequest(const Job& job, int workers,
                         PoolPreference preference = PoolPreference::kTrainingFirst);

// Convenience: a PlaceRequest for growing `job` by `workers` flexible workers.
PlaceRequest FlexibleRequest(const Job& job, int workers,
                             PoolPreference preference = PoolPreference::kTrainingFirst);

}  // namespace lyra

#endif  // SRC_SCHED_PLACEMENT_UTIL_H_
