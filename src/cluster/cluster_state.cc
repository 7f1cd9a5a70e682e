#include "src/cluster/cluster_state.h"

#include <algorithm>

namespace lyra {

int JobPlacement::total_gpus() const {
  int total = 0;
  for (const auto& [server, share] : shares) {
    total += share.total();
  }
  return total;
}

int JobPlacement::base_gpus() const {
  int total = 0;
  for (const auto& [server, share] : shares) {
    total += share.base_gpus;
  }
  return total;
}

int JobPlacement::flexible_gpus() const {
  int total = 0;
  for (const auto& [server, share] : shares) {
    total += share.flexible_gpus;
  }
  return total;
}

ClusterState ClusterState::Clone() const {
  ClusterState copy;
  copy.servers_ = servers_;
  copy.placements_ = placements_;
  copy.tally_ = tally_;
  copy.pool_servers_ = pool_servers_;
  copy.changed_jobs_ = changed_jobs_;
  copy.changed_ = changed_;
  copy.servers_down_ = servers_down_;
  return copy;
}

void ClusterState::Tally::Grow(const Server& srv) {
  const int num_servers = static_cast<int>(srv.id().value) + 1;
  const std::size_t levels =
      std::max(by_free[0].size(), static_cast<std::size_t>(srv.num_gpus()) + 1);
  for (int pool = 0; pool < kNumPools; ++pool) {
    by_free[pool].resize(levels);
    for (ServerBitset& level : by_free[pool]) {
      level.Resize(num_servers);
    }
    for (std::vector<int>& counts : count_by_free[pool]) {
      counts.resize(levels);
    }
  }
  idle.Resize(num_servers);
  has_base.Resize(num_servers);
  has_flexible.Resize(num_servers);
}

void ClusterState::Tally::Apply(const Server& srv, int sign) {
  const bool add = sign > 0;
  idle.Set(srv.id(), add && srv.idle());
  has_base.Set(srv.id(), add && srv.HasBaseGpus());
  has_flexible.Set(srv.id(), add && srv.HasFlexibleGpus());
  if (!srv.up()) {
    return;  // a down server's capacity is in no pool (MarkServerDown)
  }
  const int pool = PoolIndex(srv.pool());
  const int type = TypeIndex(srv.gpu_type());
  const auto free = static_cast<std::size_t>(srv.free_gpus());
  total_gpus[pool] += sign * srv.num_gpus();
  used_gpus[pool] += sign * srv.used_gpus();
  free_gpus_by_type[pool][type] += sign * srv.free_gpus();
  by_free[pool][free].Set(srv.id(), add);
  count_by_free[pool][type][free] += sign;
}

ServerId ClusterState::AddServer(GpuType gpu_type, int num_gpus, ServerPool pool) {
  LYRA_CHECK(txn_depth_ == 0);  // topology growth is not transactional
  const ServerId id(static_cast<std::int64_t>(servers_.size()));
  const Server& srv = servers_.emplace_back(id, gpu_type, num_gpus, pool);
  tally_.Grow(srv);
  tally_.Apply(srv, +1);
  PoolInsert(pool, id);
  return id;
}

const Server& ClusterState::server(ServerId id) const {
  LYRA_CHECK(id.valid());
  LYRA_CHECK_LT(static_cast<std::size_t>(id.value), servers_.size());
  return servers_[static_cast<std::size_t>(id.value)];
}

Server& ClusterState::mutable_server(ServerId id) {
  return const_cast<Server&>(static_cast<const ClusterState*>(this)->server(id));
}

void ClusterState::PoolInsert(ServerPool pool, ServerId id) {
  std::vector<ServerId>& members = pool_servers_[PoolIndex(pool)];
  // Ids are almost always appended in order; fall back to a sorted insert for
  // servers re-entering a pool (loan/return).
  if (members.empty() || members.back() < id) {
    members.push_back(id);
    return;
  }
  members.insert(std::lower_bound(members.begin(), members.end(), id), id);
}

void ClusterState::PoolErase(ServerPool pool, ServerId id) {
  std::vector<ServerId>& members = pool_servers_[PoolIndex(pool)];
  auto it = std::lower_bound(members.begin(), members.end(), id);
  LYRA_CHECK(it != members.end() && *it == id);
  members.erase(it);
}

void ClusterState::MoveServer(Server& srv, ServerPool to) {
  PoolErase(srv.pool(), srv.id());
  Update(srv, [&] { srv.set_pool(to); });
  PoolInsert(to, srv.id());
}

void ClusterState::MarkChanged(JobId job) {
  const auto index = static_cast<std::size_t>(job.value);
  if (index >= changed_.size()) {
    changed_.resize(index + 1);
  }
  if (changed_[index] == 0) {
    changed_[index] = 1;
    changed_jobs_.push_back(job);
  }
}

void ClusterState::ClearChangedJobs() {
  for (JobId job : changed_jobs_) {
    changed_[static_cast<std::size_t>(job.value)] = 0;
  }
  changed_jobs_.clear();
}

std::vector<ServerId> ClusterState::TrainingVisibleServers() const {
  // Training servers are created before any server is loaned, so the
  // concatenation preserves ascending-id order in practice.
  std::vector<ServerId> out = pool_servers_[PoolIndex(ServerPool::kTraining)];
  const std::vector<ServerId>& loaned = pool_servers_[PoolIndex(ServerPool::kOnLoan)];
  out.insert(out.end(), loaned.begin(), loaned.end());
  return out;
}

void ClusterState::Place(JobId job, ServerId server_id, int gpus, bool flexible) {
  Server& srv = mutable_server(server_id);
  LYRA_CHECK(srv.up());  // down servers are invisible to placement
  Update(srv, [&] { srv.Place(job, gpus, flexible); });
  MarkChanged(job);
  GpuShare& share = placements_[job].shares[server_id];
  if (flexible) {
    share.flexible_gpus += gpus;
  } else {
    share.base_gpus += gpus;
  }
  if (txn_depth_ > 0) {
    RecordShareDelta(job, server_id, flexible ? 0 : -gpus, flexible ? -gpus : 0);
  }
}

void ClusterState::RemoveJob(JobId job) {
  auto it = placements_.find(job);
  if (it == placements_.end()) {
    return;
  }
  for (const auto& [server_id, share] : it->second.shares) {
    Server& srv = mutable_server(server_id);
    Update(srv, [&] { srv.RemoveJob(job); });
    if (txn_depth_ > 0) {
      RecordShareDelta(job, server_id, share.base_gpus, share.flexible_gpus);
    }
  }
  placements_.erase(it);
  MarkChanged(job);
}

int ClusterState::RemoveFlexible(JobId job, ServerId server_id, int gpus) {
  auto it = placements_.find(job);
  if (it == placements_.end()) {
    return 0;
  }
  auto share_it = it->second.shares.find(server_id);
  if (share_it == it->second.shares.end()) {
    return 0;
  }
  Server& srv = mutable_server(server_id);
  int removed = 0;
  Update(srv, [&] { removed = srv.RemoveFlexible(job, gpus); });
  if (removed > 0) {
    MarkChanged(job);
  }
  share_it->second.flexible_gpus -= removed;
  LYRA_CHECK_GE(share_it->second.flexible_gpus, 0);
  if (share_it->second.total() == 0) {
    it->second.shares.erase(share_it);
  }
  if (it->second.shares.empty()) {
    placements_.erase(it);
  }
  if (txn_depth_ > 0 && removed > 0) {
    RecordShareDelta(job, server_id, 0, removed);
  }
  return removed;
}

int ClusterState::RemoveAllFlexible(JobId job) {
  auto it = placements_.find(job);
  if (it == placements_.end()) {
    return 0;
  }
  // Collect first: RemoveFlexible mutates the share map we are iterating.
  std::vector<std::pair<ServerId, int>> flex;
  for (const auto& [server_id, share] : it->second.shares) {
    if (share.flexible_gpus > 0) {
      flex.emplace_back(server_id, share.flexible_gpus);
    }
  }
  int released = 0;
  for (const auto& [server_id, gpus] : flex) {
    released += RemoveFlexible(job, server_id, gpus);
  }
  return released;
}

const JobPlacement* ClusterState::FindPlacement(JobId job) const {
  auto it = placements_.find(job);
  return it == placements_.end() ? nullptr : &it->second;
}

int ClusterState::NumServersHosting(JobId job) const {
  const JobPlacement* placement = FindPlacement(job);
  return placement == nullptr ? 0 : placement->num_servers();
}

Status ClusterState::LoanServer(ServerId id) {
  Server& srv = mutable_server(id);
  if (!srv.up()) {
    return Status::FailedPrecondition("server is down");
  }
  if (srv.pool() != ServerPool::kInference) {
    return Status::FailedPrecondition("server is not in the inference pool");
  }
  MoveServer(srv, ServerPool::kOnLoan);
  if (txn_depth_ > 0) {
    RecordSetPool(id, ServerPool::kInference);
  }
  return Status::Ok();
}

Status ClusterState::ReturnServer(ServerId id) {
  Server& srv = mutable_server(id);
  if (!srv.up()) {
    return Status::FailedPrecondition("server is down");
  }
  if (srv.pool() != ServerPool::kOnLoan) {
    return Status::FailedPrecondition("server is not on loan");
  }
  if (!srv.idle()) {
    return Status::FailedPrecondition("server still has running workers");
  }
  if (txn_depth_ > 0 && !CommittedIdle(id)) {
    // The server looks idle only because an open transaction speculatively
    // removed its workers. A return based on that would be silently reverted
    // by the rollback while the caller keeps believing it succeeded.
    return Status::FailedPrecondition(
        "server idleness is speculative under an open transaction");
  }
  MoveServer(srv, ServerPool::kInference);
  if (txn_depth_ > 0) {
    RecordSetPool(id, ServerPool::kOnLoan);
  }
  return Status::Ok();
}

Status ClusterState::MarkServerDown(ServerId id) {
  LYRA_CHECK(txn_depth_ == 0);  // crashes are real, never speculative
  Server& srv = mutable_server(id);
  if (!srv.up()) {
    return Status::FailedPrecondition("server is already down");
  }
  if (!srv.idle()) {
    return Status::FailedPrecondition("server still has running workers");
  }
  PoolErase(srv.pool(), id);
  Update(srv, [&] { srv.set_up(false); });
  ++servers_down_;
  return Status::Ok();
}

Status ClusterState::MarkServerUp(ServerId id) {
  LYRA_CHECK(txn_depth_ == 0);
  Server& srv = mutable_server(id);
  if (srv.up()) {
    return Status::FailedPrecondition("server is already up");
  }
  LYRA_CHECK(srv.idle());  // nothing can be placed on a down server
  PoolInsert(srv.pool(), id);
  Update(srv, [&] { srv.set_up(true); });
  --servers_down_;
  return Status::Ok();
}

bool ClusterState::CommittedIdle(ServerId id) const {
  // Undo entries hold the inverse delta of each applied mutation; summing
  // them onto the current usage reconstructs the committed usage without
  // replaying the log.
  int used = server(id).used_gpus();
  for (const UndoEntry& entry : undo_log_) {
    if (entry.kind == UndoEntry::Kind::kShareDelta && entry.server == id) {
      used += entry.base_delta + entry.flexible_delta;
    }
  }
  return used == 0;
}

int ClusterState::TrainingSideFreeGpus() const {
  return FreeGpus(ServerPool::kTraining) + FreeGpus(ServerPool::kOnLoan);
}

int ClusterState::TrainingSideTotalGpus() const {
  return TotalGpus(ServerPool::kTraining) + TotalGpus(ServerPool::kOnLoan);
}

int ClusterState::TrainingSideUsedGpus() const {
  return UsedGpus(ServerPool::kTraining) + UsedGpus(ServerPool::kOnLoan);
}

double ClusterState::TrainingSideFreeNormalized() const {
  double total = 0.0;
  for (ServerPool pool : {ServerPool::kTraining, ServerPool::kOnLoan}) {
    for (int type = 0; type < kNumGpuTypes; ++type) {
      total += tally_.free_gpus_by_type[PoolIndex(pool)][type] *
               GpuComputeFactor(static_cast<GpuType>(type));
    }
  }
  return total;
}

void ClusterState::AuditInvariants() const {
  // Counters, the free-GPU index and the flag sets, recounted from scratch.
  Tally tally;
  std::array<std::vector<ServerId>, kNumPools> members;

  int down = 0;
  for (const Server& srv : servers_) {
    tally.Grow(srv);
    tally.Apply(srv, +1);
    if (!srv.up()) {
      // A down server is excluded from every counter and membership list and
      // must have been vacated before it crashed.
      LYRA_CHECK(srv.idle());
      LYRA_CHECK(srv.jobs().empty());
      ++down;
      continue;
    }
    members[PoolIndex(srv.pool())].push_back(srv.id());

    // Server-side per-job shares must sum to the server's used (and
    // flexible) counts and be mirrored exactly in the job-side placement map.
    int server_used = 0;
    int server_flexible = 0;
    for (const auto& [job, share] : srv.jobs()) {
      LYRA_CHECK_GE(share.base_gpus, 0);
      LYRA_CHECK_GE(share.flexible_gpus, 0);
      LYRA_CHECK_GT(share.total(), 0);
      server_used += share.total();
      server_flexible += share.flexible_gpus;
      auto it = placements_.find(job);
      LYRA_CHECK(it != placements_.end());
      auto share_it = it->second.shares.find(srv.id());
      LYRA_CHECK(share_it != it->second.shares.end());
      LYRA_CHECK_EQ(share_it->second.base_gpus, share.base_gpus);
      LYRA_CHECK_EQ(share_it->second.flexible_gpus, share.flexible_gpus);
    }
    LYRA_CHECK_EQ(server_used, srv.used_gpus());
    LYRA_CHECK_EQ(server_flexible > 0, srv.HasFlexibleGpus());
    LYRA_CHECK_EQ(server_used > server_flexible, srv.HasBaseGpus());
    LYRA_CHECK_LE(srv.used_gpus(), srv.num_gpus());
  }

  // Job-side shares must all exist on the server side (with the mirror check
  // above, the two views are then identical).
  for (const auto& [job, placement] : placements_) {
    LYRA_CHECK(!placement.shares.empty());
    for (const auto& [server_id, share] : placement.shares) {
      const Server& srv = server(server_id);
      auto it = srv.jobs().find(job);
      LYRA_CHECK(it != srv.jobs().end());
      LYRA_CHECK_EQ(it->second.base_gpus, share.base_gpus);
      LYRA_CHECK_EQ(it->second.flexible_gpus, share.flexible_gpus);
    }
  }

  LYRA_CHECK(tally == tally_);
  for (int pool = 0; pool < kNumPools; ++pool) {
    LYRA_CHECK(members[pool] == pool_servers_[pool]);
    LYRA_CHECK(std::is_sorted(pool_servers_[pool].begin(), pool_servers_[pool].end()));
  }
  LYRA_CHECK_EQ(down, servers_down_);
}

// --- Transactions -----------------------------------------------------------

void ClusterState::RecordShareDelta(JobId job, ServerId server, int base_delta,
                                    int flexible_delta) {
  UndoEntry entry;
  entry.kind = UndoEntry::Kind::kShareDelta;
  entry.job = job;
  entry.server = server;
  entry.base_delta = base_delta;
  entry.flexible_delta = flexible_delta;
  undo_log_.push_back(entry);
}

void ClusterState::RecordSetPool(ServerId server, ServerPool pool) {
  UndoEntry entry;
  entry.kind = UndoEntry::Kind::kSetPool;
  entry.server = server;
  entry.pool = pool;
  undo_log_.push_back(entry);
}

void ClusterState::ApplyShareDelta(JobId job, ServerId server_id, int base_delta,
                                   int flexible_delta) {
  Server& srv = mutable_server(server_id);
  Update(srv, [&] { srv.ApplyShareDelta(job, base_delta, flexible_delta); });
  MarkChanged(job);
  GpuShare& share = placements_[job].shares[server_id];
  share.base_gpus += base_delta;
  share.flexible_gpus += flexible_delta;
  LYRA_CHECK_GE(share.base_gpus, 0);
  LYRA_CHECK_GE(share.flexible_gpus, 0);
  if (share.total() == 0) {
    auto it = placements_.find(job);
    it->second.shares.erase(server_id);
    if (it->second.shares.empty()) {
      placements_.erase(it);
    }
  }
}

void ClusterState::RollbackTo(std::size_t mark) {
  while (undo_log_.size() > mark) {
    const UndoEntry entry = undo_log_.back();
    undo_log_.pop_back();
    switch (entry.kind) {
      case UndoEntry::Kind::kShareDelta:
        ApplyShareDelta(entry.job, entry.server, entry.base_delta,
                        entry.flexible_delta);
        break;
      case UndoEntry::Kind::kSetPool: {
        Server& srv = mutable_server(entry.server);
        LYRA_CHECK(srv.pool() != entry.pool);
        MoveServer(srv, entry.pool);
        break;
      }
    }
  }
}

ClusterTransaction::ClusterTransaction(ClusterState& cluster)
    : cluster_(&cluster),
      mark_(cluster.undo_log_.size()),
      depth_(++cluster.txn_depth_) {}

ClusterTransaction::~ClusterTransaction() {
  if (open_) {
    Rollback();
  }
}

void ClusterTransaction::Rollback() {
  LYRA_CHECK(open_);
  LYRA_CHECK_EQ(cluster_->txn_depth_, depth_);  // LIFO close order
  cluster_->RollbackTo(mark_);
  --cluster_->txn_depth_;
  open_ = false;
}

void ClusterTransaction::Commit() {
  LYRA_CHECK(open_);
  LYRA_CHECK_EQ(cluster_->txn_depth_, depth_);  // LIFO close order
  if (depth_ == 1) {
    cluster_->undo_log_.clear();
  }
  // Nested commit: entries stay in the log so the outer transaction can
  // still roll the whole suffix back.
  --cluster_->txn_depth_;
  open_ = false;
}

std::size_t ClusterTransaction::ops() const {
  return open_ ? cluster_->undo_log_.size() - mark_ : 0;
}

}  // namespace lyra
