// Tests for Lyra's BFD worker placement (§5.3) and the shared placement
// utilities.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/lyra/placement.h"
#include "src/sched/elastic_util.h"
#include "src/sched/placement_util.h"

namespace lyra {
namespace {

std::unique_ptr<Job> MakeJob(std::int64_t id, int min_w, int max_w, int gpw = 2,
                             bool fungible = false, bool heterogeneous = false) {
  JobSpec spec;
  spec.id = JobId(id);
  spec.gpus_per_worker = gpw;
  spec.min_workers = min_w;
  spec.max_workers = max_w;
  spec.total_work = 1000.0;
  spec.fungible = fungible;
  spec.heterogeneous = heterogeneous;
  return std::make_unique<Job>(spec);
}

class PlacementTest : public ::testing::Test {
 protected:
  std::vector<ServerId> AddServers(int count, GpuType type, ServerPool pool) {
    std::vector<ServerId> ids;
    for (int i = 0; i < count; ++i) {
      ids.push_back(cluster_.AddServer(type, 8, pool));
    }
    return ids;
  }

  PlacementStats Apply(const AllocationDecision& decision, bool naive = false) {
    PlacementOptions options;
    options.naive = naive;
    return ApplyAllocation(cluster_, decision, options);
  }

  bool JobTouchesPool(JobId id, ServerPool pool) {
    const JobPlacement* p = cluster_.FindPlacement(id);
    if (p == nullptr) {
      return false;
    }
    for (const auto& [server_id, share] : p->shares) {
      if (cluster_.server(server_id).pool() == pool) {
        return true;
      }
    }
    return false;
  }

  ClusterState cluster_;
  std::vector<std::unique_ptr<Job>> jobs_;
};

TEST_F(PlacementTest, InelasticJobPrefersTrainingServers) {
  AddServers(2, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(2, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 2, 2, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.launched, 1);
  EXPECT_TRUE(JobTouchesPool(JobId(0), ServerPool::kTraining));
  EXPECT_FALSE(JobTouchesPool(JobId(0), ServerPool::kOnLoan));
}

TEST_F(PlacementTest, ElasticFungibleJobPrefersLoanedServers) {
  AddServers(2, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(3, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 1, 2, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision);
  EXPECT_TRUE(JobTouchesPool(JobId(0), ServerPool::kOnLoan));
  EXPECT_FALSE(JobTouchesPool(JobId(0), ServerPool::kTraining));
  // On T4s a nominal worker costs three physical workers: 1 worker * 2 GPUs
  // per worker * 3 = 6 physical GPUs.
  EXPECT_EQ(cluster_.FindPlacement(JobId(0))->total_gpus(), 6);
  EXPECT_EQ(PlacedWorkers(cluster_, *jobs_[0]), 1);
}

TEST_F(PlacementTest, ElasticNonFungibleStaysOnTraining) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(1, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 1, 2, 2, /*fungible=*/false));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision);
  EXPECT_TRUE(JobTouchesPool(JobId(0), ServerPool::kTraining));
  EXPECT_FALSE(JobTouchesPool(JobId(0), ServerPool::kOnLoan));
}

TEST_F(PlacementTest, NaivePlacementSendsElasticToTrainingFirst) {
  AddServers(2, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(2, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 1, 2, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision, /*naive=*/true);
  EXPECT_TRUE(JobTouchesPool(JobId(0), ServerPool::kTraining));
}

TEST_F(PlacementTest, BaseAndFlexibleLandOnSeparateLoanedServers) {
  AddServers(4, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 1, 4, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  decision.flexible_targets.emplace_back(jobs_[0].get(), 1);
  Apply(decision);
  // The base workers and the flexible workers must not share a server, so the
  // flexible group can be released without preemption (§5.3).
  const JobPlacement* p = cluster_.FindPlacement(JobId(0));
  ASSERT_NE(p, nullptr);
  for (const auto& [server_id, share] : p->shares) {
    EXPECT_TRUE(share.base_gpus == 0 || share.flexible_gpus == 0)
        << "server " << server_id.value << " mixes base and flexible GPUs";
  }
  EXPECT_EQ(PlacedFlexibleWorkers(cluster_, *jobs_[0]), 1);
}

TEST_F(PlacementTest, ScaleInHappensBeforeLaunches) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  // Elastic job holds the whole server: 4 base + 4 flexible.
  jobs_.push_back(MakeJob(0, 2, 4, 2));
  cluster_.Place(JobId(0), ServerId(0), 4, false);
  cluster_.Place(JobId(0), ServerId(0), 4, true);
  // New inelastic job needs 4 GPUs.
  jobs_.push_back(MakeJob(1, 2, 2, 2));
  AllocationDecision decision;
  decision.flexible_targets.emplace_back(jobs_[0].get(), 0);  // shrink to base
  decision.launches.push_back(jobs_[1].get());
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.scale_ins, 2);
  EXPECT_EQ(stats.launched, 1);
  EXPECT_EQ(cluster_.FindPlacement(JobId(0))->total_gpus(), 4);
  EXPECT_EQ(cluster_.FindPlacement(JobId(1))->total_gpus(), 4);
}

TEST_F(PlacementTest, AllOrNothingLaunchFailureLeavesNoResidue) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  jobs_.push_back(MakeJob(0, 3, 3, 4));  // needs 12 GPUs, only 8 exist
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.launched, 0);
  EXPECT_EQ(stats.launch_failures, 1);
  EXPECT_EQ(cluster_.FindPlacement(JobId(0)), nullptr);
  EXPECT_EQ(cluster_.UsedGpus(ServerPool::kTraining), 0);
}

TEST_F(PlacementTest, BestFitPrefersTightestNonEmptyServer) {
  const auto servers = AddServers(3, GpuType::kTrainingV100, ServerPool::kTraining);
  // Pre-fill: server0 has 6 used (2 free), server1 has 4 used (4 free).
  cluster_.Place(JobId(90), servers[0], 6, false);
  cluster_.Place(JobId(91), servers[1], 4, false);
  jobs_.push_back(MakeJob(0, 1, 1, 2));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision);
  // The 2-GPU worker best-fits server0's 2 free GPUs.
  EXPECT_EQ(cluster_.server(servers[0]).JobGpus(JobId(0)), 2);
}

TEST_F(PlacementTest, LargerPerWorkerJobsPlaceFirst) {
  const auto servers = AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  (void)servers;
  // An 8-GPU-worker job and two 1-GPU jobs compete for one 8-GPU server. In
  // BFD order the 8-GPU job places first and wins; arrival order would have
  // stranded it.
  jobs_.push_back(MakeJob(0, 1, 1, 1));
  jobs_.push_back(MakeJob(1, 1, 1, 8));
  jobs_.push_back(MakeJob(2, 1, 1, 1));
  AllocationDecision decision;
  decision.launches = {jobs_[0].get(), jobs_[1].get(), jobs_[2].get()};
  const PlacementStats stats = Apply(decision);
  EXPECT_EQ(stats.launched, 1);
  EXPECT_NE(cluster_.FindPlacement(JobId(1)), nullptr);
}

TEST_F(PlacementTest, HeterogeneousBaseOnTrainingFlexibleOnLoaned) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(2, GpuType::kInferenceT4, ServerPool::kOnLoan);
  jobs_.push_back(MakeJob(0, 2, 4, 2, /*fungible=*/false, /*heterogeneous=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  decision.flexible_targets.emplace_back(jobs_[0].get(), 1);
  Apply(decision);
  const JobPlacement* p = cluster_.FindPlacement(JobId(0));
  ASSERT_NE(p, nullptr);
  for (const auto& [server_id, share] : p->shares) {
    if (share.base_gpus > 0) {
      EXPECT_EQ(cluster_.server(server_id).pool(), ServerPool::kTraining);
    }
    if (share.flexible_gpus > 0) {
      EXPECT_EQ(cluster_.server(server_id).pool(), ServerPool::kOnLoan);
    }
  }
}

TEST_F(PlacementTest, NonHeterogeneousJobNeverMixesGpuTypes) {
  AddServers(1, GpuType::kTrainingV100, ServerPool::kTraining);
  AddServers(1, GpuType::kInferenceT4, ServerPool::kOnLoan);
  // 3 workers x 2 GPUs = 6 GPUs; neither pool alone has... actually both do.
  // Constrain: fill training partially so only 4 free there.
  cluster_.Place(JobId(99), ServerId(0), 4, false);
  jobs_.push_back(MakeJob(0, 3, 3, 2, /*fungible=*/true));
  AllocationDecision decision;
  decision.launches.push_back(jobs_[0].get());
  Apply(decision);
  const JobPlacement* p = cluster_.FindPlacement(JobId(0));
  if (p != nullptr) {
    GpuType type;
    EXPECT_TRUE(CurrentGpuType(cluster_, JobId(0), &type));
  }
}

// --- placement_util coverage -----------------------------------------------

TEST(PlacementUtil, CountPlaceableWorkersNormalizesT4) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  PlaceRequest request;
  request.job = JobId(0);
  request.gpus_per_worker = 1;
  request.workers = 1;
  request.fungible = true;
  request.preference = PoolPreference::kLoanedOnly;
  // 8 physical 1-GPU workers at 1/3 credit each = 2 nominal workers.
  EXPECT_EQ(CountPlaceableWorkers(cluster, request), 2);
}

TEST(PlacementUtil, TryPlaceAllOrNothing) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  PlaceRequest request;
  request.job = JobId(0);
  request.gpus_per_worker = 4;
  request.workers = 3;  // 12 GPUs > 8
  EXPECT_FALSE(TryPlaceWorkers(cluster, request));
  EXPECT_EQ(cluster.UsedGpus(ServerPool::kTraining), 0);
  request.workers = 2;
  EXPECT_TRUE(TryPlaceWorkers(cluster, request));
  EXPECT_EQ(cluster.UsedGpus(ServerPool::kTraining), 8);
}

TEST(PlacementUtil, GrowthPinsGpuType) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  // Job already runs on T4; growth must not use the training pool even if
  // preferred.
  cluster.Place(JobId(0), ServerId(1), 2, false);
  PlaceRequest request;
  request.job = JobId(0);
  request.gpus_per_worker = 2;
  request.workers = 2;  // needs 2 nominal workers; T4 has 3 slots * 1/3 = 1
  request.fungible = true;
  request.preference = PoolPreference::kTrainingFirst;
  EXPECT_FALSE(TryPlaceWorkers(cluster, request));
  request.workers = 1;
  EXPECT_TRUE(TryPlaceWorkers(cluster, request));
  GpuType type;
  ASSERT_TRUE(CurrentGpuType(cluster, JobId(0), &type));
  EXPECT_EQ(type, GpuType::kInferenceT4);
}

TEST(PlacementUtil, ProfileForComputesMixAndFactor) {
  ClusterState cluster;
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
  JobSpec spec;
  spec.id = JobId(0);
  spec.gpus_per_worker = 2;
  spec.min_workers = 1;
  spec.max_workers = 4;
  spec.total_work = 100.0;
  spec.heterogeneous = true;
  Job job(spec);
  cluster.Place(JobId(0), ServerId(0), 2, false);
  cluster.Place(JobId(0), ServerId(1), 2, false);
  const PlacementProfile profile = ProfileFor(cluster, job);
  EXPECT_EQ(profile.workers, 2);
  EXPECT_NEAR(profile.mean_gpu_factor, (1.0 + 1.0 / 3.0) / 2.0, 1e-12);
  EXPECT_TRUE(profile.spans_heterogeneous);
}

// Places one gpus_per_worker-GPU worker per call and returns the servers
// picked, in order.
std::vector<std::int64_t> PickSequence(ClusterState& cluster, int picks,
                                       const std::vector<PlacementSegment>& segments,
                                       BestFitOrder order) {
  std::vector<std::int64_t> picked;
  for (int i = 0; i < picks; ++i) {
    std::vector<int> before;
    for (const Server& server : cluster.servers()) {
      before.push_back(server.used_gpus());
    }
    EXPECT_GT(PlaceBestFit(cluster, JobId(100 + i), 2, 1, false, segments, order), 0.0);
    for (const Server& server : cluster.servers()) {
      if (server.used_gpus() != before[static_cast<std::size_t>(server.id().value)]) {
        picked.push_back(server.id().value);
      }
    }
  }
  return picked;
}

// Lyra's key keeps the first-seen order of the old candidate list: tiers
// (segment, then the avoided flag) first, empty servers last within a tier,
// then the tightest fit, then the lower id.
TEST(PlacementUtil, TieredBestFitBreaksTiesInFirstSeenOrder) {
  ClusterState cluster;
  for (int i = 0; i < 4; ++i) {
    cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);  // 0-3
  }
  cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);  // 4
  cluster.Place(JobId(1), ServerId(0), 4, /*flexible=*/true);  // tier 1, free 4
  // Server 1 stays empty.
  cluster.Place(JobId(2), ServerId(2), 4, false);  // tier 0, free 4
  cluster.Place(JobId(3), ServerId(3), 4, false);  // tier 0, free 4
  cluster.Place(JobId(4), ServerId(4), 6, false);  // next segment, free 2

  const std::vector<PlacementSegment> segments = {
      {ServerPool::kTraining, TierFilter::kAvoidFlexible},
      {ServerPool::kOnLoan, TierFilter::kAvoidFlexible}};
  EXPECT_EQ(PickSequence(cluster, 11, segments, BestFitOrder::kTierEmptyFree),
            (std::vector<std::int64_t>{2, 2, 3, 3, 1, 1, 1, 1, 0, 0, 4}));
  // Every slot is taken now.
  EXPECT_EQ(PlaceBestFit(cluster, JobId(200), 2, 1, false, segments,
                         BestFitOrder::kTierEmptyFree),
            0.0);
  cluster.AuditInvariants();
}

// The baselines' key: the tightest fit first, then the segment order, then
// the lower id; tiers and emptiness play no part.
TEST(PlacementUtil, FreeBestFitBreaksTiesBySegmentThenId) {
  ClusterState cluster;
  for (int i = 0; i < 3; ++i) {
    cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);  // 0-2
  }
  // A V100 server in the second segment: each pick is one whole worker.
  cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kOnLoan);  // 3
  cluster.Place(JobId(1), ServerId(0), 4, false);  // free 4
  cluster.Place(JobId(2), ServerId(1), 6, true);   // free 2
  // Server 2 stays empty (free 8).
  cluster.Place(JobId(3), ServerId(3), 6, false);  // free 2

  const std::vector<PlacementSegment> segments = {{ServerPool::kTraining},
                                                  {ServerPool::kOnLoan}};
  EXPECT_EQ(PickSequence(cluster, 7, segments, BestFitOrder::kFree),
            (std::vector<std::int64_t>{1, 3, 0, 0, 2, 2, 2}));
}

// A heterogeneous request with kLoanedFirst lists the on-loan pool first, so
// on-loan servers win ties at equal free GPUs even with higher ids.
TEST(PlacementUtil, HeterogeneousLoanedFirstPrefersLoanedOnTies) {
  for (const PoolPreference preference :
       {PoolPreference::kLoanedFirst, PoolPreference::kTrainingFirst}) {
    ClusterState cluster;
    const ServerId training =
        cluster.AddServer(GpuType::kTrainingV100, 8, ServerPool::kTraining);
    const ServerId loaned =
        cluster.AddServer(GpuType::kInferenceT4, 8, ServerPool::kOnLoan);
    cluster.Place(JobId(1), training, 2, false);  // free 6
    cluster.Place(JobId(2), loaned, 2, false);    // free 6
    PlaceRequest request;
    request.job = JobId(0);
    request.gpus_per_worker = 2;
    request.workers = 1;
    request.heterogeneous = true;
    request.preference = preference;
    ASSERT_TRUE(TryPlaceWorkers(cluster, request));
    const JobPlacement* placement = cluster.FindPlacement(JobId(0));
    ASSERT_NE(placement, nullptr);
    // One nominal worker: three T4 workers on the loaned server, or one V100
    // worker on the training server.
    const ServerId expected =
        preference == PoolPreference::kLoanedFirst ? loaned : training;
    ASSERT_EQ(placement->shares.size(), 1u);
    EXPECT_EQ(placement->shares.begin()->first, expected);
  }
}

}  // namespace
}  // namespace lyra
