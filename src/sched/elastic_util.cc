#include "src/sched/elastic_util.h"

#include <cmath>

#include "src/common/check.h"

namespace lyra {
namespace {

constexpr double kCreditEpsilon = 1e-9;

// Nominal (training-GPU-equivalent) worker credit of a share on a server: a
// worker on inference GPUs counts its compute factor, matching the capacity
// normalization of §5.2.
double ShareWorkerCredit(const ClusterState& cluster, ServerId server_id, int gpus,
                         int gpus_per_worker) {
  return static_cast<double>(gpus) / gpus_per_worker *
         GpuComputeFactor(cluster.server(server_id).gpu_type());
}

}  // namespace

int PlacedWorkers(const ClusterState& cluster, const Job& job) {
  const JobPlacement* placement = cluster.FindPlacement(job.id());
  if (placement == nullptr) {
    return 0;
  }
  double credit = 0.0;
  for (const auto& [server_id, share] : placement->shares) {
    credit += ShareWorkerCredit(cluster, server_id, share.total(),
                                job.spec().gpus_per_worker);
  }
  return static_cast<int>(std::floor(credit + 0.5));
}

int PlacedFlexibleWorkers(const ClusterState& cluster, const Job& job) {
  const JobPlacement* placement = cluster.FindPlacement(job.id());
  if (placement == nullptr) {
    return 0;
  }
  double credit = 0.0;
  for (const auto& [server_id, share] : placement->shares) {
    if (share.flexible_gpus > 0) {  // a base-only share adds exactly 0.0
      credit += ShareWorkerCredit(cluster, server_id, share.flexible_gpus,
                                  job.spec().gpus_per_worker);
    }
  }
  return static_cast<int>(std::floor(credit + 0.5));
}

int ShrinkFlexibleTo(ClusterState& cluster, const Job& job, int target_flex_workers) {
  LYRA_CHECK_GE(target_flex_workers, 0);
  const int gpw = job.spec().gpus_per_worker;
  const JobPlacement* placement = cluster.FindPlacement(job.id());
  if (placement == nullptr) {
    return 0;
  }
  double flex_credit = 0.0;
  std::vector<ServerId> servers;
  for (const auto& [server_id, share] : placement->shares) {
    if (share.flexible_gpus > 0) {
      flex_credit += ShareWorkerCredit(cluster, server_id, share.flexible_gpus, gpw);
      servers.push_back(server_id);
    }
  }
  int released = 0;
  // Remove one physical flexible worker at a time until within target.
  for (ServerId server_id : servers) {
    const double credit_per_worker =
        GpuComputeFactor(cluster.server(server_id).gpu_type());
    while (flex_credit - kCreditEpsilon > static_cast<double>(target_flex_workers)) {
      const int removed = cluster.RemoveFlexible(job.id(), server_id, gpw);
      if (removed == 0) {
        break;  // nothing flexible left on this server
      }
      released += removed;
      flex_credit -= static_cast<double>(removed) / gpw * credit_per_worker;
    }
    if (flex_credit - kCreditEpsilon <= static_cast<double>(target_flex_workers)) {
      break;
    }
  }
  return released;
}

int HarvestFlexibleGpus(ClusterState& cluster, const std::vector<Job*>& running,
                        int gpus_needed) {
  int released = 0;
  bool progress = true;
  while (released < gpus_needed && progress) {
    progress = false;
    for (Job* job : running) {
      if (released >= gpus_needed) {
        break;
      }
      const int flex = PlacedFlexibleWorkers(cluster, *job);
      if (flex > 0) {
        const int freed = ShrinkFlexibleTo(cluster, *job, flex - 1);
        released += freed;
        progress = progress || freed > 0;
      }
    }
  }
  return released;
}

}  // namespace lyra
