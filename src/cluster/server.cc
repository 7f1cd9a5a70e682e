#include "src/cluster/server.h"

namespace lyra {

int Server::JobGpus(JobId job) const {
  auto it = jobs_.find(job);
  return it == jobs_.end() ? 0 : it->second.total();
}

void Server::Place(JobId job, int gpus, bool flexible) {
  LYRA_CHECK_GT(gpus, 0);
  LYRA_CHECK_LE(gpus, free_gpus());
  GpuShare& share = jobs_[job];
  if (flexible) {
    share.flexible_gpus += gpus;
    flexible_gpus_ += gpus;
  } else {
    share.base_gpus += gpus;
  }
  used_gpus_ += gpus;
}

void Server::RemoveJob(JobId job) {
  auto it = jobs_.find(job);
  LYRA_CHECK(it != jobs_.end());
  used_gpus_ -= it->second.total();
  flexible_gpus_ -= it->second.flexible_gpus;
  LYRA_CHECK_GE(used_gpus_, 0);
  jobs_.erase(it);
}

int Server::RemoveFlexible(JobId job, int gpus) {
  LYRA_CHECK_GE(gpus, 0);
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return 0;
  }
  const int removed = std::min(gpus, it->second.flexible_gpus);
  it->second.flexible_gpus -= removed;
  used_gpus_ -= removed;
  flexible_gpus_ -= removed;
  if (it->second.total() == 0) {
    jobs_.erase(it);
  }
  return removed;
}

void Server::ApplyShareDelta(JobId job, int base_delta, int flexible_delta) {
  GpuShare& share = jobs_[job];
  share.base_gpus += base_delta;
  share.flexible_gpus += flexible_delta;
  LYRA_CHECK_GE(share.base_gpus, 0);
  LYRA_CHECK_GE(share.flexible_gpus, 0);
  used_gpus_ += base_delta + flexible_delta;
  flexible_gpus_ += flexible_delta;
  LYRA_CHECK_GE(used_gpus_, 0);
  LYRA_CHECK_LE(used_gpus_, num_gpus_);
  if (share.total() == 0) {
    jobs_.erase(job);
  }
}

}  // namespace lyra
