// Microbenchmarks (google-benchmark) for the §5.2 / §7.3 runtime claims:
//   - the multiple-choice knapsack DP at production scale (paper: 0.02 s at
//     354 items and 245 GPUs),
//   - Lyra's greedy reclaiming vs the exhaustive optimal (paper: 1-3 ms vs
//     ~420,000x more),
//   - supporting primitives (preemption cost, BFD placement, LSTM step),
//   - ClusterState hot operations at 1000-server scale: the incremental
//     counters / pool indices vs brute-force recomputation over the server
//     vector (the pre-optimization behavior, kept here as the baseline),
//   - speculative what-if evaluation: ClusterTransaction rollback vs a full
//     Clone() per candidate, and the reclaim policy's lazy cost heap vs the
//     pre-rewrite rescan-per-vacate greedy loop.
//
// The main() also runs the what-if and reclaim-tick comparisons under manual
// timing and surfaces them in the "micro" section of BENCH_perf.json
// (disable with LYRA_BENCH_PERF_JSON=0).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "bench/harness.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/lyra/mckp.h"
#include "src/lyra/reclaim.h"
#include "src/predict/lstm.h"
#include "src/sched/placement_util.h"

namespace {

std::vector<lyra::MckpGroup> RandomMckp(int total_items, std::uint64_t seed) {
  lyra::Rng rng(seed);
  std::vector<lyra::MckpGroup> groups;
  int items = 0;
  while (items < total_items) {
    lyra::MckpGroup group;
    const int n = static_cast<int>(rng.UniformInt(2, 8));
    for (int i = 0; i < n; ++i) {
      group.items.push_back(
          {static_cast<int>(rng.UniformInt(1, 16)), rng.Uniform(1.0, 5000.0)});
    }
    items += n;
    groups.push_back(std::move(group));
  }
  return groups;
}

void BM_MckpPaperScale(benchmark::State& state) {
  // The exact instance size from §5.2: 354 items, 245 GPUs of capacity.
  const auto groups = RandomMckp(354, 99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lyra::SolveMckp(groups, 245));
  }
}
BENCHMARK(BM_MckpPaperScale);

void BM_MckpPaperShape(benchmark::State& state) {
  // The mean instance of a paper-scale simulation: 76 elastic jobs, each
  // offering k = 1..n extra workers of gpw GPUs (item weight k * gpw) for a
  // diminishing remaining-time reduction, over 419 GPUs of capacity.
  lyra::Rng rng(13);
  constexpr int kGpusPerWorker[] = {1, 2, 4, 8};
  std::vector<lyra::MckpGroup> groups(76);
  for (lyra::MckpGroup& group : groups) {
    const int gpw = kGpusPerWorker[rng.UniformInt(0, 3)];
    const int min_workers = static_cast<int>(rng.UniformInt(1, 4));
    const int extra = static_cast<int>(rng.UniformInt(1, 10));
    const double work = rng.Uniform(1e3, 1e6);
    for (int k = 1; k <= extra; ++k) {
      group.items.push_back({k * gpw, work / min_workers - work / (min_workers + k)});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lyra::SolveMckp(groups, 419));
  }
}
BENCHMARK(BM_MckpPaperShape);

void BM_MckpByCapacity(benchmark::State& state) {
  const auto groups = RandomMckp(400, 7);
  const int capacity = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lyra::SolveMckp(groups, capacity));
  }
}
BENCHMARK(BM_MckpByCapacity)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

lyra::ClusterState ReclaimInstance(int servers, std::uint64_t seed) {
  lyra::Rng rng(seed);
  lyra::ClusterState cluster;
  std::vector<lyra::ServerId> ids;
  for (int s = 0; s < servers; ++s) {
    ids.push_back(
        cluster.AddServer(lyra::GpuType::kInferenceT4, 8, lyra::ServerPool::kOnLoan));
  }
  const int jobs = servers * 3 / 2;
  for (int j = 0; j < jobs; ++j) {
    const int spans = static_cast<int>(rng.UniformInt(1, 3));
    const int start = static_cast<int>(rng.UniformInt(0, servers - 1));
    for (int k = 0; k < spans; ++k) {
      const auto& server =
          cluster.server(ids[static_cast<std::size_t>((start + k) % servers)]);
      if (server.free_gpus() >= 2) {
        cluster.Place(lyra::JobId(j), server.id(), 2, false);
      }
    }
  }
  return cluster;
}

void BM_LyraReclaimHeuristic(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster = ReclaimInstance(servers, 11);
    lyra::LyraReclaimPolicy policy;
    state.ResumeTiming();
    benchmark::DoNotOptimize(policy.Reclaim(cluster, servers / 3));
  }
}
BENCHMARK(BM_LyraReclaimHeuristic)->Arg(16)->Arg(64)->Arg(256);

void BM_OptimalReclaimExhaustive(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster = ReclaimInstance(servers, 11);
    lyra::OptimalReclaimPolicy policy;
    state.ResumeTiming();
    benchmark::DoNotOptimize(policy.Reclaim(cluster, servers / 3));
  }
}
// The exhaustive search is exponential: 20 servers is already expensive.
BENCHMARK(BM_OptimalReclaimExhaustive)->Arg(12)->Arg(16)->Arg(20);

void BM_ServerPreemptionCost(benchmark::State& state) {
  const lyra::ClusterState cluster = ReclaimInstance(256, 13);
  const auto servers = cluster.ServersInPool(lyra::ServerPool::kOnLoan);
  for (auto _ : state) {
    double total = 0.0;
    for (lyra::ServerId id : servers) {
      total += lyra::ServerPreemptionCost(cluster, id);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ServerPreemptionCost);

void BM_BestFitPlacement(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster;
    for (int s = 0; s < 443; ++s) {
      cluster.AddServer(lyra::GpuType::kTrainingV100, 8, lyra::ServerPool::kTraining);
    }
    state.ResumeTiming();
    // Place 100 8-GPU jobs best-fit across the full production-scale cluster.
    for (int j = 0; j < 100; ++j) {
      lyra::PlaceRequest request;
      request.job = lyra::JobId(j);
      request.gpus_per_worker = 8;
      request.workers = 1;
      benchmark::DoNotOptimize(lyra::TryPlaceWorkers(cluster, request));
    }
  }
}
BENCHMARK(BM_BestFitPlacement);

// --- ClusterState hot operations at 1000-server scale ----------------------
//
// The scheduler tick queries capacity and lists pools many times per event;
// these benchmarks compare the maintained counters/indices against the
// brute-force full-vector recomputation the code used before the
// incremental-accounting rewrite.

lyra::ClusterState BigCluster(int servers, std::uint64_t seed) {
  lyra::Rng rng(seed);
  lyra::ClusterState cluster;
  std::vector<lyra::ServerId> training;
  for (int s = 0; s < servers; ++s) {
    // 70/30 training/inference mix; a slice of inference is out on loan.
    if (s % 10 < 7) {
      training.push_back(cluster.AddServer(lyra::GpuType::kTrainingV100, 8,
                                           lyra::ServerPool::kTraining));
    } else {
      const lyra::ServerId id = cluster.AddServer(
          lyra::GpuType::kInferenceT4, 8, lyra::ServerPool::kInference);
      if (s % 30 == 9) {
        (void)cluster.LoanServer(id);
      }
    }
  }
  // ~60% occupancy, 1-8 GPUs per job, one server per job.
  for (int j = 0; j < servers; ++j) {
    const lyra::ServerId id = training[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(training.size()) - 1))];
    const auto& server = cluster.server(id);
    if (server.free_gpus() > 0) {
      cluster.Place(lyra::JobId(j), id,
                    static_cast<int>(rng.UniformInt(1, server.free_gpus())),
                    j % 4 == 0);
    }
  }
  return cluster;
}

// The pre-rewrite implementations: full scans over the server vector.
int BruteTotalGpus(const lyra::ClusterState& cluster, lyra::ServerPool pool) {
  int total = 0;
  for (const lyra::Server& s : cluster.servers()) {
    if (s.pool() == pool) total += s.num_gpus();
  }
  return total;
}

int BruteUsedGpus(const lyra::ClusterState& cluster, lyra::ServerPool pool) {
  int total = 0;
  for (const lyra::Server& s : cluster.servers()) {
    if (s.pool() == pool) total += s.used_gpus();
  }
  return total;
}

std::vector<lyra::ServerId> BruteServersInPool(const lyra::ClusterState& cluster,
                                               lyra::ServerPool pool) {
  std::vector<lyra::ServerId> out;
  for (const lyra::Server& s : cluster.servers()) {
    if (s.pool() == pool) out.push_back(s.id());
  }
  return out;
}

constexpr lyra::ServerPool kAllPools[] = {lyra::ServerPool::kTraining,
                                          lyra::ServerPool::kInference,
                                          lyra::ServerPool::kOnLoan};

void BM_CapacityQueriesIncremental(benchmark::State& state) {
  const lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    int sum = 0;
    for (lyra::ServerPool pool : kAllPools) {
      sum += cluster.TotalGpus(pool) + cluster.UsedGpus(pool) + cluster.FreeGpus(pool);
    }
    sum += cluster.TrainingSideFreeGpus();
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CapacityQueriesIncremental)->Arg(1000);

void BM_CapacityQueriesBruteForce(benchmark::State& state) {
  const lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    int sum = 0;
    for (lyra::ServerPool pool : kAllPools) {
      const int total = BruteTotalGpus(cluster, pool);
      const int used = BruteUsedGpus(cluster, pool);
      sum += total + used + (total - used);
    }
    sum += BruteTotalGpus(cluster, lyra::ServerPool::kTraining) -
           BruteUsedGpus(cluster, lyra::ServerPool::kTraining) +
           BruteTotalGpus(cluster, lyra::ServerPool::kOnLoan) -
           BruteUsedGpus(cluster, lyra::ServerPool::kOnLoan);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CapacityQueriesBruteForce)->Arg(1000);

void BM_PoolListingIndexed(benchmark::State& state) {
  const lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    std::size_t n = 0;
    for (lyra::ServerPool pool : kAllPools) {
      n += cluster.ServersInPool(pool).size();  // const ref, no allocation
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_PoolListingIndexed)->Arg(1000);

void BM_PoolListingBruteForce(benchmark::State& state) {
  const lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    std::size_t n = 0;
    for (lyra::ServerPool pool : kAllPools) {
      n += BruteServersInPool(cluster, pool).size();
    }
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_PoolListingBruteForce)->Arg(1000);

// Mutation + query churn: the shape of a scheduler tick — place, query the
// training-side headroom, remove — repeated across the cluster. With the
// incremental counters the queries are O(1); the baseline pays a full scan
// per query.
void BM_ChurnIncremental(benchmark::State& state) {
  lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  const auto& training = cluster.ServersInPool(lyra::ServerPool::kTraining);
  int next = 1 << 20;
  for (auto _ : state) {
    int headroom = 0;
    for (std::size_t i = 0; i < training.size(); ++i) {
      const lyra::ServerId id = training[i];
      if (cluster.server(id).free_gpus() == 0) continue;
      const lyra::JobId job(next++);
      cluster.Place(job, id, 1, true);
      headroom += cluster.TrainingSideFreeGpus();
      cluster.RemoveJob(job);
    }
    benchmark::DoNotOptimize(headroom);
  }
}
BENCHMARK(BM_ChurnIncremental)->Arg(1000);

void BM_ChurnBruteForce(benchmark::State& state) {
  lyra::ClusterState cluster = BigCluster(static_cast<int>(state.range(0)), 17);
  const std::vector<lyra::ServerId> training =
      BruteServersInPool(cluster, lyra::ServerPool::kTraining);
  int next = 1 << 20;
  for (auto _ : state) {
    int headroom = 0;
    for (std::size_t i = 0; i < training.size(); ++i) {
      const lyra::ServerId id = training[i];
      if (cluster.server(id).free_gpus() == 0) continue;
      const lyra::JobId job(next++);
      cluster.Place(job, id, 1, true);
      headroom += BruteTotalGpus(cluster, lyra::ServerPool::kTraining) -
                  BruteUsedGpus(cluster, lyra::ServerPool::kTraining) +
                  BruteTotalGpus(cluster, lyra::ServerPool::kOnLoan) -
                  BruteUsedGpus(cluster, lyra::ServerPool::kOnLoan);
      cluster.RemoveJob(job);
    }
    benchmark::DoNotOptimize(headroom);
  }
}
BENCHMARK(BM_ChurnBruteForce)->Arg(1000);

// Batch worker placement: one 400-worker launch on a 443-server cluster.
// The heap-based best-fit builds the candidate heap once and pays O(log n)
// per worker; the pre-rewrite baseline rescanned every server per worker
// (O(workers x servers)).
void BM_BatchPlaceHeap(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster;
    for (int s = 0; s < 443; ++s) {
      cluster.AddServer(lyra::GpuType::kTrainingV100, 8, lyra::ServerPool::kTraining);
    }
    lyra::PlaceRequest request;
    request.job = lyra::JobId(0);
    request.gpus_per_worker = 8;
    request.workers = 400;
    state.ResumeTiming();
    benchmark::DoNotOptimize(lyra::TryPlaceWorkers(cluster, request));
  }
}
BENCHMARK(BM_BatchPlaceHeap);

void BM_BatchPlaceLinearScan(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster;
    std::vector<lyra::ServerId> ids;
    for (int s = 0; s < 443; ++s) {
      ids.push_back(cluster.AddServer(lyra::GpuType::kTrainingV100, 8,
                                      lyra::ServerPool::kTraining));
    }
    state.ResumeTiming();
    for (int w = 0; w < 400; ++w) {
      lyra::ServerId best;
      int best_free = 0;
      for (lyra::ServerId id : ids) {
        const int free = cluster.server(id).free_gpus();
        if (free >= 8 && (!best.valid() || free < best_free)) {
          best = id;
          best_free = free;
        }
      }
      if (best.valid()) {
        cluster.Place(lyra::JobId(0), best, 8, false);
      }
    }
    benchmark::DoNotOptimize(cluster.UsedGpus(lyra::ServerPool::kTraining));
  }
}
BENCHMARK(BM_BatchPlaceLinearScan);

// --- Speculative what-if: transaction rollback vs Clone() -------------------
//
// A single-server vacation what-if the reclaim policy asks per candidate:
// apply the vacate, look at the damage, forget it. The transaction pays
// O(shares touched); the pre-rewrite approach paid a full cluster copy.

void BM_WhatIfClone(benchmark::State& state) {
  const lyra::ClusterState cluster = ReclaimInstance(static_cast<int>(state.range(0)), 11);
  const lyra::ServerId target = cluster.ServersInPool(lyra::ServerPool::kOnLoan).front();
  for (auto _ : state) {
    lyra::ClusterState copy = cluster.Clone();
    lyra::ReclaimResult result;
    lyra::VacateServer(copy, target, result);
    benchmark::DoNotOptimize(result.collateral_gpus);
  }
}
BENCHMARK(BM_WhatIfClone)->Arg(100)->Arg(1000)->Arg(4000);

void BM_WhatIfTransaction(benchmark::State& state) {
  lyra::ClusterState cluster = ReclaimInstance(static_cast<int>(state.range(0)), 11);
  const lyra::ServerId target = cluster.ServersInPool(lyra::ServerPool::kOnLoan).front();
  for (auto _ : state) {
    lyra::ClusterTransaction txn(cluster);
    lyra::ReclaimResult result;
    lyra::VacateServer(cluster, target, result);
    txn.Rollback();
    benchmark::DoNotOptimize(result.collateral_gpus);
  }
}
BENCHMARK(BM_WhatIfTransaction)->Arg(100)->Arg(1000)->Arg(4000);

// --- Reclaim tick: lazy cost heap vs the pre-rewrite full rescan ------------

// The greedy loop as it was before the heap rewrite: recompute the
// preemption cost and a read-only collateral estimate for every occupied
// on-loan server on every iteration. Kept as the microbench baseline.
int RescanCollateralEstimate(const lyra::ClusterState& cluster, lyra::ServerId server_id) {
  std::unordered_map<std::int64_t, int> freed_elsewhere;
  for (const auto& [job, share] : cluster.server(server_id).jobs()) {
    if (share.base_gpus == 0) continue;
    for (const auto& [other_id, other_share] : cluster.FindPlacement(job)->shares) {
      if (other_id != server_id) {
        freed_elsewhere[other_id.value] += other_share.total();
      }
    }
  }
  int collateral = 0;
  for (const auto& [other_value, gpus] : freed_elsewhere) {
    const lyra::Server& other = cluster.server(lyra::ServerId(other_value));
    if (gpus == other.used_gpus() && other.pool() == lyra::ServerPool::kOnLoan) {
      continue;
    }
    collateral += gpus;
  }
  return collateral;
}

int RescanGreedyReclaim(lyra::ClusterState& cluster, int num_servers) {
  auto idle_on_loan = [&] {
    int count = 0;
    for (lyra::ServerId id : cluster.ServersInPool(lyra::ServerPool::kOnLoan)) {
      if (cluster.server(id).idle()) ++count;
    }
    return count;
  };
  const int idle_start = idle_on_loan();
  int vacated = 0;
  while (idle_on_loan() - idle_start < num_servers) {
    lyra::ServerId best;
    double best_cost = 1e300;
    int best_collateral = 1 << 30;
    for (lyra::ServerId id : cluster.ServersInPool(lyra::ServerPool::kOnLoan)) {
      if (cluster.server(id).idle()) continue;
      const double cost = lyra::ServerPreemptionCost(cluster, id);
      const int collateral = RescanCollateralEstimate(cluster, id);
      if (cost < best_cost || (cost == best_cost && collateral < best_collateral)) {
        best = id;
        best_cost = cost;
        best_collateral = collateral;
      }
    }
    if (!best.valid()) break;
    lyra::ReclaimResult result;
    lyra::VacateServer(cluster, best, result);
    ++vacated;
  }
  return vacated;
}

void BM_ReclaimTickHeap(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster = ReclaimInstance(servers, 11);
    lyra::LyraReclaimPolicy policy;
    state.ResumeTiming();
    benchmark::DoNotOptimize(policy.Reclaim(cluster, servers / 3));
  }
}
BENCHMARK(BM_ReclaimTickHeap)->Arg(64)->Arg(256);

void BM_ReclaimTickRescan(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    lyra::ClusterState cluster = ReclaimInstance(servers, 11);
    state.ResumeTiming();
    benchmark::DoNotOptimize(RescanGreedyReclaim(cluster, servers / 3));
  }
}
BENCHMARK(BM_ReclaimTickRescan)->Arg(64)->Arg(256);

// A cluster_stats-shaped reply: the document the service serializes most on
// its hot path (nested objects, mixed numbers/strings/bools).
lyra::JsonValue ServiceReplyDoc() {
  lyra::JsonValue pool = lyra::JsonValue::MakeObject();
  pool.Set("servers", lyra::JsonValue::MakeNumber(22));
  pool.Set("total_gpus", lyra::JsonValue::MakeNumber(176));
  pool.Set("used_gpus", lyra::JsonValue::MakeNumber(131));
  pool.Set("free_gpus", lyra::JsonValue::MakeNumber(45));
  lyra::JsonValue cluster = lyra::JsonValue::MakeObject();
  cluster.Set("training", pool);
  cluster.Set("on_loan", pool);
  cluster.Set("inference", std::move(pool));
  lyra::JsonValue jobs = lyra::JsonValue::MakeObject();
  jobs.Set("total", lyra::JsonValue::MakeNumber(1234));
  jobs.Set("pending", lyra::JsonValue::MakeNumber(17));
  jobs.Set("running", lyra::JsonValue::MakeNumber(980));
  jobs.Set("finished", lyra::JsonValue::MakeNumber(201));
  jobs.Set("cancelled", lyra::JsonValue::MakeNumber(36));
  lyra::JsonValue reply = lyra::JsonValue::MakeObject();
  reply.Set("ok", lyra::JsonValue::MakeBool(true));
  reply.Set("time", lyra::JsonValue::MakeNumber(86400.125));
  reply.Set("driver", lyra::JsonValue::MakeString("virtual"));
  reply.Set("cluster", std::move(cluster));
  reply.Set("jobs", std::move(jobs));
  return reply;
}

// Serialization with the size-estimating reserve (one allocation per Dump).
void BM_JsonDumpReply(benchmark::State& state) {
  const lyra::JsonValue reply = ServiceReplyDoc();
  for (auto _ : state) {
    benchmark::DoNotOptimize(reply.Dump());
  }
}
BENCHMARK(BM_JsonDumpReply);

// The event-loop variant: append into a reused payload buffer, amortizing
// even the single allocation away.
void BM_JsonAppendToReply(benchmark::State& state) {
  const lyra::JsonValue reply = ServiceReplyDoc();
  std::string payload;
  for (auto _ : state) {
    payload.clear();
    reply.AppendTo(payload);
    benchmark::DoNotOptimize(payload.data());
  }
}
BENCHMARK(BM_JsonAppendToReply);

void BM_LstmTrainStep(benchmark::State& state) {
  lyra::LstmOptions options;
  lyra::LstmNetwork network(options);
  std::vector<double> window(10, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.TrainStep(window, 0.6));
  }
}
BENCHMARK(BM_LstmTrainStep);

void BM_LstmForward(benchmark::State& state) {
  lyra::LstmOptions options;
  lyra::LstmNetwork network(options);
  std::vector<double> window(10, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(network.Forward(window));
  }
}
BENCHMARK(BM_LstmForward);

// Manual steady_clock timing for the BENCH_perf.json "micro" section: runs
// the body in growing batches until ~50ms of wall-clock has accumulated and
// reports mean ns/op.
template <typename Fn>
double TimeNsPerOp(Fn&& body) {
  using Clock = std::chrono::steady_clock;
  std::int64_t iters = 0;
  double elapsed_ns = 0.0;
  std::int64_t batch = 1;
  while (elapsed_ns < 5e7) {
    const auto start = Clock::now();
    for (std::int64_t i = 0; i < batch; ++i) {
      body();
    }
    elapsed_ns += std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    iters += batch;
    batch *= 2;
  }
  return elapsed_ns / static_cast<double>(iters);
}

// Times the what-if and reclaim-tick comparisons and records them via the
// bench harness so the repo's perf trajectory (the >= 10x rollback-vs-clone
// claim in particular) is machine-checkable from BENCH_perf.json.
void RecordMicroReport() {
  for (int servers : {100, 1000, 4000}) {
    const lyra::ClusterState base = ReclaimInstance(servers, 11);
    const lyra::ServerId target = base.ServersInPool(lyra::ServerPool::kOnLoan).front();

    const double clone_ns = TimeNsPerOp([&] {
      lyra::ClusterState copy = base.Clone();
      lyra::ReclaimResult result;
      lyra::VacateServer(copy, target, result);
      benchmark::DoNotOptimize(result.collateral_gpus);
    });
    lyra::ClusterState live = base.Clone();
    const double txn_ns = TimeNsPerOp([&] {
      lyra::ClusterTransaction txn(live);
      lyra::ReclaimResult result;
      lyra::VacateServer(live, target, result);
      txn.Rollback();
      benchmark::DoNotOptimize(result.collateral_gpus);
    });
    const std::string suffix = "_" + std::to_string(servers);
    lyra::RecordMicroBench("whatif_clone" + suffix, clone_ns);
    lyra::RecordMicroBench("whatif_transaction" + suffix, txn_ns);
    std::printf("whatif %d servers: clone %.0f ns/op, transaction %.0f ns/op (%.1fx)\n",
                servers, clone_ns, txn_ns, clone_ns / txn_ns);
  }

  for (int servers : {64, 256}) {
    const double heap_ns = TimeNsPerOp([&] {
      lyra::ClusterState cluster = ReclaimInstance(servers, 11);
      lyra::LyraReclaimPolicy policy;
      benchmark::DoNotOptimize(policy.Reclaim(cluster, servers / 3));
    });
    const double rescan_ns = TimeNsPerOp([&] {
      lyra::ClusterState cluster = ReclaimInstance(servers, 11);
      benchmark::DoNotOptimize(RescanGreedyReclaim(cluster, servers / 3));
    });
    const std::string suffix = "_" + std::to_string(servers);
    lyra::RecordMicroBench("reclaim_tick_heap" + suffix, heap_ns);
    lyra::RecordMicroBench("reclaim_tick_rescan" + suffix, rescan_ns);
    std::printf("reclaim tick %d servers: heap %.0f ns/op, rescan %.0f ns/op (%.1fx)\n",
                servers, heap_ns, rescan_ns, rescan_ns / heap_ns);
  }
  // Note: both reclaim timings include rebuilding the instance per iteration;
  // the ratio understates the policy-only speedup.

  {
    const lyra::JsonValue reply = ServiceReplyDoc();
    const double dump_ns =
        TimeNsPerOp([&] { benchmark::DoNotOptimize(reply.Dump()); });
    std::string payload;
    const double append_ns = TimeNsPerOp([&] {
      payload.clear();
      reply.AppendTo(payload);
      benchmark::DoNotOptimize(payload.data());
    });
    lyra::RecordMicroBench("json_dump_reply", dump_ns);
    lyra::RecordMicroBench("json_append_reply", append_ns);
    std::printf("json reply: dump %.0f ns/op, append-reuse %.0f ns/op\n",
                dump_ns, append_ns);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RecordMicroReport();
  lyra::WritePerfReport("micro_algorithms");
  return 0;
}
