// Randomized churn over every ClusterState mutation point, cross-checking
// the incremental counters, pool membership indices, the free-GPU index, the
// flag sets and the share-change record against brute-force recomputation
// and AuditInvariants() after each operation — including after nested
// ClusterTransaction rollbacks. This is the safety net for the O(1)
// accounting: any drift between a counter and the server vector fails here
// long before it would skew a simulation.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/cluster_state.h"
#include "src/common/rng.h"
#include "src/lyra/reclaim.h"
#include "src/sched/fifo.h"
#include "src/sim/simulator.h"
#include "src/workload/synthetic.h"

namespace lyra {
namespace {

int BruteTotalGpus(const ClusterState& cluster, ServerPool pool) {
  int total = 0;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.pool() == pool) {
      total += s.num_gpus();
    }
  }
  return total;
}

int BruteUsedGpus(const ClusterState& cluster, ServerPool pool) {
  int total = 0;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.pool() == pool) {
      total += s.used_gpus();
    }
  }
  return total;
}

std::vector<ServerId> BruteServersInPool(const ClusterState& cluster, ServerPool pool) {
  std::vector<ServerId> out;
  for (const Server& s : cluster.servers()) {
    if (s.up() && s.pool() == pool) {
      out.push_back(s.id());
    }
  }
  return out;
}

double BruteTrainingSideFreeNormalized(const ClusterState& cluster) {
  double total = 0.0;
  for (const Server& s : cluster.servers()) {
    if (s.up() && (s.pool() == ServerPool::kTraining || s.pool() == ServerPool::kOnLoan)) {
      total += s.free_gpus() * GpuComputeFactor(s.gpu_type());
    }
  }
  return total;
}

bool BruteHostsShare(const Server& s, bool flexible) {
  for (const auto& [job, share] : s.jobs()) {
    if ((flexible ? share.flexible_gpus : share.base_gpus) > 0) {
      return true;
    }
  }
  return false;
}

// Every (pool, free) set and count of the free-GPU index, and every flag
// set, recounted from the servers.
void ExpectIndexMatchesBruteForce(const ClusterState& cluster) {
  int max_gpus = 0;
  for (const Server& s : cluster.servers()) {
    max_gpus = std::max(max_gpus, s.num_gpus());
    EXPECT_EQ(cluster.IdleServers().Test(s.id()), s.idle());
    EXPECT_EQ(cluster.ServersWithBaseGpus().Test(s.id()), BruteHostsShare(s, false));
    EXPECT_EQ(cluster.ServersWithFlexibleGpus().Test(s.id()), BruteHostsShare(s, true));
  }
  ASSERT_EQ(cluster.MaxServerGpus(), max_gpus);
  for (ServerPool pool :
       {ServerPool::kTraining, ServerPool::kInference, ServerPool::kOnLoan}) {
    for (int free = 0; free <= max_gpus; ++free) {
      int count[2] = {0, 0};
      for (const Server& s : cluster.servers()) {
        const bool member = s.up() && s.pool() == pool && s.free_gpus() == free;
        EXPECT_EQ(cluster.ServersWithFree(pool, free).Test(s.id()), member);
        count[static_cast<int>(s.gpu_type())] += member ? 1 : 0;
      }
      EXPECT_EQ(cluster.NumServersWithFree(pool, GpuType::kTrainingV100, free), count[0]);
      EXPECT_EQ(cluster.NumServersWithFree(pool, GpuType::kInferenceT4, free), count[1]);
    }
  }
}

void ExpectMatchesBruteForce(const ClusterState& cluster) {
  ExpectIndexMatchesBruteForce(cluster);
  for (ServerPool pool :
       {ServerPool::kTraining, ServerPool::kInference, ServerPool::kOnLoan}) {
    EXPECT_EQ(cluster.TotalGpus(pool), BruteTotalGpus(cluster, pool));
    EXPECT_EQ(cluster.UsedGpus(pool), BruteUsedGpus(cluster, pool));
    EXPECT_EQ(cluster.FreeGpus(pool),
              BruteTotalGpus(cluster, pool) - BruteUsedGpus(cluster, pool));
    EXPECT_EQ(cluster.ServersInPool(pool), BruteServersInPool(cluster, pool));
    EXPECT_EQ(cluster.NumServersInPool(pool),
              static_cast<int>(BruteServersInPool(cluster, pool).size()));
  }
  EXPECT_EQ(cluster.TrainingSideTotalGpus(),
            BruteTotalGpus(cluster, ServerPool::kTraining) +
                BruteTotalGpus(cluster, ServerPool::kOnLoan));
  EXPECT_EQ(cluster.TrainingSideUsedGpus(),
            BruteUsedGpus(cluster, ServerPool::kTraining) +
                BruteUsedGpus(cluster, ServerPool::kOnLoan));
  EXPECT_EQ(cluster.TrainingSideFreeGpus(),
            cluster.TrainingSideTotalGpus() - cluster.TrainingSideUsedGpus());
  EXPECT_NEAR(cluster.TrainingSideFreeNormalized(),
              BruteTrainingSideFreeNormalized(cluster), 1e-9);
  cluster.AuditInvariants();
}

// Picks a random placed job id, or an invalid id when nothing is placed.
JobId RandomPlacedJob(const ClusterState& cluster, Rng& rng) {
  if (cluster.placements().empty()) {
    return JobId();
  }
  std::vector<JobId> jobs;
  jobs.reserve(cluster.placements().size());
  for (const auto& [job, placement] : cluster.placements()) {
    jobs.push_back(job);
  }
  std::sort(jobs.begin(), jobs.end());
  return jobs[static_cast<std::size_t>(
      rng.UniformInt(0, static_cast<std::int64_t>(jobs.size()) - 1))];
}

bool SamePlacements(const ClusterState& a, const ClusterState& b) {
  if (a.placements().size() != b.placements().size()) {
    return false;
  }
  for (const auto& [job, placement] : a.placements()) {
    const JobPlacement* other = b.FindPlacement(job);
    if (other == nullptr || other->shares != placement.shares) {
      return false;
    }
  }
  return true;
}

// Jobs whose shares a test mutation changed; SharesChanged() must report
// exactly these since the last ClearChangedJobs().
using Touched = std::set<std::int64_t>;

void ExpectChangeRecordMatches(const ClusterState& cluster, const Touched& touched,
                               int num_jobs) {
  for (int job = 0; job < num_jobs; ++job) {
    EXPECT_EQ(cluster.SharesChanged(JobId(job)), touched.count(job) == 1) << job;
  }
}

struct Churn {
  ClusterState cluster;
  std::vector<ServerId> all;
  int next_job = 0;
  Touched touched;

  ServerId RandomServer(Rng& rng) const {
    return all[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(all.size()) - 1))];
  }

  // One random placement or loan mutation. Topology and health changes
  // (AddServer, MarkServerDown/Up) are real events, never speculative, so
  // they run only outside transactions.
  void Step(Rng& rng, int step) {
    const bool in_txn = cluster.InTransaction();
    switch (static_cast<int>(rng.UniformInt(0, 11))) {
      case 0:
      case 1:
      case 2:
      case 3: {  // Place on a random server with capacity.
        const ServerId id = RandomServer(rng);
        const Server& srv = cluster.server(id);
        if (srv.pool() == ServerPool::kInference || srv.free_gpus() == 0 || !srv.up()) {
          break;  // inference servers host no training workers
        }
        const int gpus = static_cast<int>(rng.UniformInt(1, srv.free_gpus()));
        // Mix fresh jobs with growth of already-placed ones.
        JobId job;
        if (rng.NextBernoulli(0.5)) {
          job = JobId(next_job++);
        } else {
          job = RandomPlacedJob(cluster, rng);
          if (!job.valid()) {
            job = JobId(next_job++);
          }
        }
        cluster.Place(job, id, gpus, rng.NextBernoulli(0.4));
        touched.insert(job.value);
        break;
      }
      case 4: {  // Remove a whole job.
        const JobId job = RandomPlacedJob(cluster, rng);
        cluster.RemoveJob(job.valid() ? job : JobId(9999));  // no-op when absent
        if (job.valid()) {
          touched.insert(job.value);
        }
        break;
      }
      case 5: {  // Scale a job in on one of its servers.
        const JobId job = RandomPlacedJob(cluster, rng);
        if (!job.valid()) {
          break;
        }
        const JobPlacement* placement = cluster.FindPlacement(job);
        ASSERT_NE(placement, nullptr);
        const auto& shares = placement->shares;
        auto it = shares.begin();
        std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(shares.size()) - 1));
        if (cluster.RemoveFlexible(job, it->first, static_cast<int>(rng.UniformInt(1, 8))) >
            0) {
          touched.insert(job.value);
        }
        break;
      }
      case 6: {  // Scale a job in everywhere.
        const JobId job = RandomPlacedJob(cluster, rng);
        if (job.valid() && cluster.RemoveAllFlexible(job) > 0) {
          touched.insert(job.value);
        }
        break;
      }
      case 7: {  // Loan an inference server.
        const auto& inference = cluster.ServersInPool(ServerPool::kInference);
        if (inference.empty()) {
          break;
        }
        const ServerId id = inference[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(inference.size()) - 1))];
        EXPECT_TRUE(cluster.LoanServer(id).ok());
        break;
      }
      case 8: {  // Return an idle on-loan server (no-op when occupied).
        const auto& loaned = cluster.ServersInPool(ServerPool::kOnLoan);
        if (loaned.empty()) {
          break;
        }
        const ServerId id = loaned[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(loaned.size()) - 1))];
        if (cluster.server(id).idle() && cluster.CommittedIdle(id)) {
          EXPECT_TRUE(cluster.ReturnServer(id).ok());
        } else {
          EXPECT_FALSE(cluster.ReturnServer(id).ok());
        }
        break;
      }
      case 9: {  // Occasionally grow the fleet.
        if (step % 97 == 0 && !in_txn) {
          const bool training = rng.NextBernoulli(0.5);
          all.push_back(cluster.AddServer(
              training ? GpuType::kTrainingV100 : GpuType::kInferenceT4,
              static_cast<int>(rng.UniformInt(4, 8)),
              training ? ServerPool::kTraining : ServerPool::kInference));
        }
        break;
      }
      case 10: {  // Crash an idle server.
        const ServerId id = RandomServer(rng);
        if (!in_txn && cluster.IsServerUp(id) && cluster.server(id).idle()) {
          EXPECT_TRUE(cluster.MarkServerDown(id).ok());
        }
        break;
      }
      case 11: {  // Recover a crashed server.
        const ServerId id = RandomServer(rng);
        if (!in_txn && !cluster.IsServerUp(id)) {
          EXPECT_TRUE(cluster.MarkServerUp(id).ok());
        }
        break;
      }
    }
  }

  void Check(int step) {
    if (step % 10 == 0) {
      ExpectMatchesBruteForce(cluster);
      ExpectChangeRecordMatches(cluster, touched, next_job);
    } else {
      cluster.AuditInvariants();
    }
  }
};

class ClusterChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterChurnTest, RandomizedChurnKeepsCountersExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  Churn churn;
  ClusterState& cluster = churn.cluster;
  for (int s = 0; s < 24; ++s) {
    churn.all.push_back(
        cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining));
  }
  for (int s = 0; s < 16; ++s) {
    churn.all.push_back(
        cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference));
  }
  ExpectMatchesBruteForce(cluster);

  for (int step = 0; step < 1500; ++step) {
    churn.Step(rng, step);
    churn.Check(step);
    if (step % 200 == 199) {
      cluster.ClearChangedJobs();
      churn.touched.clear();
      ExpectChangeRecordMatches(cluster, churn.touched, churn.next_job);
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << "counter drift at churn step " << step;
    }
  }
  ExpectMatchesBruteForce(cluster);
}

// Nested transactions over random mutations: each rollback must restore the
// index and flag sets exactly (the undo path maintains them through the
// same primitive), while the change record keeps every job the speculation
// touched.
TEST_P(ClusterChurnTest, NestedRollbacksRestoreTheIndex) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 5);
  Churn churn;
  ClusterState& cluster = churn.cluster;
  for (int s = 0; s < 20; ++s) {
    churn.all.push_back(
        cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining));
  }
  for (int s = 0; s < 12; ++s) {
    churn.all.push_back(
        cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference));
  }

  int step = 0;
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 10; ++i) {
      churn.Step(rng, step);
      churn.Check(step++);
    }
    const ClusterState before = cluster.Clone();
    ClusterTransaction outer(cluster);
    for (int i = 0; i < 8; ++i) {
      churn.Step(rng, step);
      churn.Check(step++);
    }
    {
      const ClusterState middle = cluster.Clone();
      ClusterTransaction inner(cluster);
      for (int i = 0; i < 8; ++i) {
        churn.Step(rng, step);
        churn.Check(step++);
      }
      if (rng.NextBernoulli(0.5)) {
        inner.Rollback();
        ExpectMatchesBruteForce(cluster);
        EXPECT_TRUE(SamePlacements(cluster, middle));
      } else {
        inner.Commit();
      }
    }
    if (rng.NextBernoulli(0.7)) {
      outer.Rollback();
      ExpectMatchesBruteForce(cluster);
      EXPECT_TRUE(SamePlacements(cluster, before));
      for (ServerPool pool :
           {ServerPool::kTraining, ServerPool::kInference, ServerPool::kOnLoan}) {
        EXPECT_EQ(cluster.ServersInPool(pool), before.ServersInPool(pool));
        for (int free = 0; free <= cluster.MaxServerGpus(); ++free) {
          EXPECT_EQ(cluster.ServersWithFree(pool, free), before.ServersWithFree(pool, free));
        }
      }
      EXPECT_EQ(cluster.IdleServers(), before.IdleServers());
      EXPECT_EQ(cluster.ServersWithBaseGpus(), before.ServersWithBaseGpus());
      EXPECT_EQ(cluster.ServersWithFlexibleGpus(), before.ServersWithFlexibleGpus());
    } else {
      outer.Commit();
    }
    ExpectChangeRecordMatches(cluster, churn.touched, churn.next_job);
    if (::testing::Test::HasFailure()) {
      FAIL() << "index drift in transaction round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterChurnTest, ::testing::Values(1, 2, 3, 4));

TEST(ClusterChurnTest, CloneCarriesCountersAndIndependence) {
  ClusterState cluster;
  const ServerId t0 = cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  const ServerId i0 = cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kInference);
  cluster.Place(JobId(0), t0, 4, false);
  ASSERT_TRUE(cluster.LoanServer(i0).ok());
  cluster.Place(JobId(0), i0, 2, true);

  ClusterState copy = cluster.Clone();
  ExpectMatchesBruteForce(copy);
  EXPECT_TRUE(copy.SharesChanged(JobId(0)));
  EXPECT_EQ(copy.UsedGpus(ServerPool::kTraining), 4);
  EXPECT_EQ(copy.UsedGpus(ServerPool::kOnLoan), 2);

  // Mutating the clone must not leak into the original (and vice versa).
  copy.RemoveJob(JobId(0));
  ExpectMatchesBruteForce(copy);
  ExpectMatchesBruteForce(cluster);
  EXPECT_EQ(cluster.UsedGpus(ServerPool::kTraining), 4);
  EXPECT_EQ(copy.UsedGpus(ServerPool::kTraining), 0);
}

TEST(ClusterChurnTest, ReclaimPoliciesPreserveInvariants) {
  // Drive the reclaim policies (which vacate via RemoveJob/RemoveFlexible)
  // and audit afterwards: reclaiming is the most mutation-heavy path.
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    Rng rng(seed);
    ClusterState cluster;
    std::vector<ServerId> ids;
    for (int s = 0; s < 12; ++s) {
      ids.push_back(cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan));
    }
    for (int j = 0; j < 20; ++j) {
      const int spans = static_cast<int>(rng.UniformInt(1, 3));
      const int start = static_cast<int>(rng.UniformInt(0, 11));
      for (int k = 0; k < spans; ++k) {
        const Server& server =
            cluster.server(ids[static_cast<std::size_t>((start + k) % 12)]);
        if (server.free_gpus() >= 2) {
          cluster.Place(JobId(j), server.id(), 2, k > 0 && j % 3 == 0);
        }
      }
    }
    cluster.AuditInvariants();
    LyraReclaimPolicy policy;
    policy.Reclaim(cluster, 4);
    ExpectMatchesBruteForce(cluster);
  }
}

TEST(ClusterChurnTest, EndToEndSimulationPreservesInvariants) {
  // A small end-to-end simulation exercises the scheduler/orchestrator
  // mutation paths; the final cluster must still audit clean.
  SyntheticTraceOptions trace_options;
  trace_options.duration = 0.5 * kDay;
  trace_options.training_gpus = 10 * 8;
  trace_options.seed = 7;
  const Trace trace = SyntheticTraceGenerator(trace_options).Generate();

  SimulatorOptions options;
  options.training_servers = 10;
  options.enable_loaning = false;
  FifoScheduler scheduler;
  Simulator simulator(options, trace, &scheduler, nullptr, nullptr);
  const SimulationResult result = simulator.Run();
  EXPECT_GT(result.finished_jobs, 0u);
  EXPECT_GT(result.events_processed, 0u);
  simulator.cluster().AuditInvariants();
}

}  // namespace
}  // namespace lyra
