// Unit + property tests for the multiple-choice knapsack solver (§5.2).
// The differential and property tests run SolveMckp and each kernel width
// the CPU can run (2 lanes always, 4 lanes with AVX2); they also run
// per-target under ASan+UBSan (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/lyra/mckp.h"

namespace lyra {
namespace {

MckpGroup Group(std::vector<MckpItem> items) { return MckpGroup{std::move(items)}; }

// The kernel vector widths SolveMckp can run; a width this CPU lacks is
// skipped by SolveMckpAtWidth returning nullopt.
constexpr int kKernelLanes[] = {2, 4};

TEST(Mckp, EmptyProblem) {
  const MckpSolution s = SolveMckp({}, 10);
  EXPECT_EQ(s.total_value, 0.0);
  EXPECT_TRUE(s.chosen.empty());
}

TEST(Mckp, ZeroCapacityTakesNothing) {
  const MckpSolution s = SolveMckp({Group({{1, 5.0}})}, 0);
  EXPECT_EQ(s.chosen[0], -1);
  EXPECT_EQ(s.total_value, 0.0);
}

TEST(Mckp, SingleGroupPicksBestAffordable) {
  const MckpSolution s =
      SolveMckp({Group({{1, 1.0}, {2, 3.0}, {5, 10.0}})}, 3);
  EXPECT_EQ(s.chosen[0], 1);
  EXPECT_DOUBLE_EQ(s.total_value, 3.0);
  EXPECT_EQ(s.total_weight, 2);
}

TEST(Mckp, AtMostOneItemPerGroup) {
  // Taking both items of group 0 (value 8) would beat the optimum if allowed.
  const MckpSolution s =
      SolveMckp({Group({{1, 4.0}, {1, 4.0}}), Group({{1, 5.0}})}, 2);
  EXPECT_DOUBLE_EQ(s.total_value, 9.0);
}

TEST(Mckp, GroupMaySkip) {
  const MckpSolution s = SolveMckp({Group({{3, 1.0}}), Group({{3, 100.0}})}, 3);
  EXPECT_EQ(s.chosen[0], -1);
  EXPECT_EQ(s.chosen[1], 0);
  EXPECT_DOUBLE_EQ(s.total_value, 100.0);
}

TEST(Mckp, IgnoresUnaffordableAndWorthlessItems) {
  const MckpSolution s =
      SolveMckp({Group({{100, 1000.0}, {1, 0.0}, {1, -5.0}, {2, 7.0}})}, 10);
  EXPECT_EQ(s.chosen[0], 3);
  EXPECT_DOUBLE_EQ(s.total_value, 7.0);
}

TEST(Mckp, PaperFigure6Instance) {
  // Fig 6: job A (2 GPUs/worker, one extra worker, value 6.67s) vs job B
  // (1 GPU/worker, up to 4 extra workers). With 2 free GPUs the knapsack
  // prefers A's single item (6.67) over B's 2-GPU item (30)? No: B's item at
  // weight 2 is worth 30 > 6.67, so B wins; with 6 GPUs both fit.
  const MckpGroup job_a = Group({{2, 6.67}});
  const MckpGroup job_b = Group({{1, 20.0}, {2, 30.0}, {3, 36.0}, {4, 40.0}});
  MckpSolution s = SolveMckp({job_a, job_b}, 2);
  EXPECT_EQ(s.chosen[0], -1);
  EXPECT_EQ(s.chosen[1], 1);
  EXPECT_DOUBLE_EQ(s.total_value, 30.0);

  s = SolveMckp({job_a, job_b}, 6);
  EXPECT_EQ(s.chosen[0], 0);
  EXPECT_EQ(s.chosen[1], 3);
  EXPECT_DOUBLE_EQ(s.total_value, 46.67);
}

TEST(Mckp, WeightAccountingMatchesChoices) {
  const MckpSolution s =
      SolveMckp({Group({{2, 5.0}, {4, 9.0}}), Group({{3, 7.0}})}, 7);
  int weight = 0;
  double value = 0.0;
  const std::vector<MckpGroup> groups = {Group({{2, 5.0}, {4, 9.0}}),
                                         Group({{3, 7.0}})};
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (s.chosen[g] >= 0) {
      weight += groups[g].items[static_cast<std::size_t>(s.chosen[g])].weight;
      value += groups[g].items[static_cast<std::size_t>(s.chosen[g])].value;
    }
  }
  EXPECT_EQ(weight, s.total_weight);
  EXPECT_DOUBLE_EQ(value, s.total_value);
  EXPECT_LE(s.total_weight, 7);
}

// Exhaustive reference solver for small instances.
double BruteForce(const std::vector<MckpGroup>& groups, int capacity, std::size_t g = 0) {
  if (g == groups.size()) {
    return 0.0;
  }
  double best = BruteForce(groups, capacity, g + 1);  // skip group
  for (const MckpItem& item : groups[g].items) {
    if (item.weight <= capacity) {
      best = std::max(best,
                      item.value + BruteForce(groups, capacity - item.weight, g + 1));
    }
  }
  return best;
}

class MckpRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(MckpRandomProperty, MatchesBruteForceOnRandomInstances) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int instance = 0; instance < 20; ++instance) {
    const int num_groups = static_cast<int>(rng.UniformInt(1, 5));
    std::vector<MckpGroup> groups;
    for (int g = 0; g < num_groups; ++g) {
      MckpGroup group;
      const int items = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < items; ++i) {
        group.items.push_back(
            {static_cast<int>(rng.UniformInt(1, 6)), rng.Uniform(0.0, 10.0)});
      }
      groups.push_back(std::move(group));
    }
    const int capacity = static_cast<int>(rng.UniformInt(0, 12));
    const double reference = BruteForce(groups, capacity);
    std::vector<MckpSolution> solutions = {SolveMckp(groups, capacity)};
    for (int lanes : kKernelLanes) {
      std::optional<MckpSolution> s = mckp_internal::SolveMckpAtWidth(lanes, groups, capacity);
      if (s) {
        solutions.push_back(std::move(*s));
      }
    }
    for (const MckpSolution& dp : solutions) {
      EXPECT_NEAR(dp.total_value, reference, 1e-9)
          << "instance " << instance << " capacity " << capacity;
      EXPECT_LE(dp.total_weight, capacity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpRandomProperty, ::testing::Range(1, 13));

TEST(Mckp, LargeInstanceStaysFast) {
  // The §7.3 runtime claim: 354 items over 245 GPUs solves in well under a
  // second (the paper reports 0.02 s).
  Rng rng(77);
  std::vector<MckpGroup> groups;
  int total_items = 0;
  while (total_items < 354) {
    MckpGroup group;
    const int items = static_cast<int>(rng.UniformInt(2, 8));
    for (int i = 0; i < items; ++i) {
      group.items.push_back(
          {static_cast<int>(rng.UniformInt(1, 16)), rng.Uniform(1.0, 5000.0)});
    }
    total_items += items;
    groups.push_back(std::move(group));
  }
  const MckpSolution s = SolveMckp(groups, 245);
  EXPECT_GT(s.total_value, 0.0);
  EXPECT_LE(s.total_weight, 245);
}

// --- Differential test against the original solver --------------------------
//
// The earlier solver kept a per-group choice table and updated it with a
// branch in the inner loop. SolveMckp must return exactly its answer: the
// same chosen items, the same total weight and bit-identical total value,
// including its tie-breaks (an item must strictly beat the previous best,
// and the lowest-indexed of equal items wins). The reference is kept here
// unchanged.
MckpSolution ReferenceSolveMckp(const std::vector<MckpGroup>& groups, int capacity) {
  LYRA_CHECK_GE(capacity, 0);
  MckpSolution solution;
  solution.chosen.assign(groups.size(), -1);
  if (groups.empty() || capacity == 0) {
    return solution;
  }

  // Never allocate DP columns beyond what all items together could use.
  int useful_capacity = 0;
  for (const MckpGroup& group : groups) {
    int max_weight = 0;
    for (const MckpItem& item : group.items) {
      LYRA_CHECK_GE(item.weight, 0);
      max_weight = std::max(max_weight, item.weight);
    }
    useful_capacity += max_weight;
  }
  const int cap = std::min(capacity, useful_capacity);
  if (cap == 0) {
    return solution;
  }

  const auto width = static_cast<std::size_t>(cap) + 1;
  std::vector<double> dp(width, 0.0);
  std::vector<double> next(width, 0.0);
  // choice[g][c]: item index taken by group g at capacity c (-1 = none).
  std::vector<std::vector<std::int16_t>> choice(
      groups.size(), std::vector<std::int16_t>(width, -1));

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const MckpGroup& group = groups[g];
    next = dp;  // default: take nothing from this group
    for (std::size_t i = 0; i < group.items.size(); ++i) {
      const MckpItem& item = group.items[i];
      if (item.weight > cap || item.value <= 0.0) {
        continue;
      }
      for (std::size_t c = static_cast<std::size_t>(item.weight); c < width; ++c) {
        const double candidate = dp[c - static_cast<std::size_t>(item.weight)] + item.value;
        if (candidate > next[c]) {
          next[c] = candidate;
          choice[g][c] = static_cast<std::int16_t>(i);
        }
      }
    }
    dp.swap(next);
  }

  // Backtrack from the best capacity.
  std::size_t c = static_cast<std::size_t>(
      std::max_element(dp.begin(), dp.end()) - dp.begin());
  solution.total_value = dp[c];
  for (std::size_t g = groups.size(); g-- > 0;) {
    const int taken = choice[g][c];
    solution.chosen[g] = taken;
    if (taken >= 0) {
      const int weight = groups[g].items[static_cast<std::size_t>(taken)].weight;
      solution.total_weight += weight;
      c -= static_cast<std::size_t>(weight);
    }
  }
  return solution;
}

// Small instances built to hit the edge cases: integer values (many ties),
// zero-weight items, values <= 0, weights above the capacity, capacity 0,
// empty groups.
struct Instance {
  std::vector<MckpGroup> groups;
  int capacity = 0;
};

Instance EdgeInstance(Rng& rng) {
  Instance instance;
  const bool integer_values = rng.NextBernoulli(0.5);
  const int num_groups = static_cast<int>(rng.UniformInt(0, 8));
  for (int g = 0; g < num_groups; ++g) {
    MckpGroup group;
    const int items = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < items; ++i) {
      const int weight = static_cast<int>(rng.UniformInt(0, 12));
      const double value = integer_values
                               ? static_cast<double>(rng.UniformInt(-2, 6))
                               : rng.Uniform(-3.0, 10.0);
      group.items.push_back({weight, value});
    }
    instance.groups.push_back(std::move(group));
  }
  instance.capacity = rng.NextBernoulli(0.1) ? 0 : static_cast<int>(rng.UniformInt(0, 30));
  return instance;
}

// The shape Lyra's phase 2 produces: one group per elastic job, item k is
// k extra workers of gpw GPUs (weight k * gpw) worth a concave remaining-time
// reduction, about 76 jobs over a few hundred GPUs.
Instance PaperShapedInstance(Rng& rng) {
  constexpr int kGpusPerWorker[] = {1, 2, 4, 8};
  Instance instance;
  const int num_groups = static_cast<int>(rng.UniformInt(60, 90));
  const bool integer_values = rng.NextBernoulli(0.3);
  for (int g = 0; g < num_groups; ++g) {
    MckpGroup group;
    const int gpw = kGpusPerWorker[rng.UniformInt(0, 3)];
    const int min_workers = static_cast<int>(rng.UniformInt(1, 4));
    const int extra = static_cast<int>(rng.UniformInt(1, 10));
    const double work = rng.Uniform(1e3, 1e6);
    for (int k = 1; k <= extra; ++k) {
      // Information-agnostic Lyra values a grant by its worker count alone.
      const double value = integer_values
                               ? static_cast<double>(k)
                               : work / min_workers - work / (min_workers + k);
      group.items.push_back({k * gpw, value});
    }
    instance.groups.push_back(std::move(group));
  }
  instance.capacity = static_cast<int>(rng.UniformInt(0, 600));
  return instance;
}

void ExpectSame(const MckpSolution& got, const MckpSolution& want, const std::string& label) {
  ASSERT_EQ(got.chosen, want.chosen) << label;
  ASSERT_EQ(got.total_weight, want.total_weight) << label;
  ASSERT_EQ(std::memcmp(&got.total_value, &want.total_value, sizeof(double)), 0)
      << label << ": " << got.total_value << " vs " << want.total_value;
}

// SolveMckp and every kernel width the CPU can run return the reference's
// exact answer.
void ExpectSameAsReference(const Instance& instance, const std::string& label) {
  const MckpSolution want = ReferenceSolveMckp(instance.groups, instance.capacity);
  ASSERT_NO_FATAL_FAILURE(ExpectSame(SolveMckp(instance.groups, instance.capacity), want, label));
  for (int lanes : kKernelLanes) {
    const std::optional<MckpSolution> got =
        mckp_internal::SolveMckpAtWidth(lanes, instance.groups, instance.capacity);
    if (got) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectSame(*got, want, label + " at " + std::to_string(lanes) + " lanes"));
    }
  }
}

TEST(MckpDifferential, EdgeCaseInstancesMatchReference) {
  Rng rng(2023);
  for (int n = 0; n < 100000; ++n) {
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameAsReference(EdgeInstance(rng), "edge instance " + std::to_string(n)));
  }
}

TEST(MckpDifferential, PaperShapedInstancesMatchReference) {
  Rng rng(419);
  for (int n = 0; n < 1500; ++n) {
    ASSERT_NO_FATAL_FAILURE(ExpectSameAsReference(PaperShapedInstance(rng),
                                                  "paper instance " + std::to_string(n)));
  }
}

// The kernel's boundaries: every capacity 1-17 (so every width % 8 of the
// last, partial block), items exactly as heavy as the capacity (the widest
// guard), groups whose items are all skipped (too heavy or worth <= 0) and
// single-group instances.
std::vector<Instance> BlockTailAndGuardTable() {
  std::vector<Instance> table;
  for (int cap = 1; cap <= 17; ++cap) {
    table.push_back({{Group({{cap, 5.0}})}, cap});
    table.push_back({{Group({{1, 1.0}, {cap, 5.0}, {cap, 5.0}})}, cap});
    table.push_back({{Group({{cap + 1, 9.0}, {1, 0.0}, {2, -1.0}})}, cap});
    table.push_back({{Group({{cap, 5.0}, {1, 1.0}}), Group({{cap + 1, 9.0}, {1, 0.0}, {2, -1.0}}),
                      Group({{1, 2.0}, {cap, 3.0}})},
                     cap});
    // Values equal to weights: every load ties across many item sets.
    MckpGroup linear;
    for (int w = 1; w <= cap; ++w) {
      linear.items.push_back({w, static_cast<double>(w)});
    }
    table.push_back({{linear, Group({{cap + 2, 1.0}}), linear, Group({{0, 1.0}, {cap, 0.5}})},
                     cap});
  }
  return table;
}

class MckpKernelWidth : public ::testing::TestWithParam<int> {};

TEST_P(MckpKernelWidth, BlockTailAndGuardTableMatchesReference) {
  const int lanes = GetParam();
  if (!mckp_internal::SolveMckpAtWidth(lanes, {}, 0)) {
    GTEST_SKIP() << "this CPU cannot run the " << lanes << "-lane kernel";
  }
  const std::vector<Instance> table = BlockTailAndGuardTable();
  for (std::size_t n = 0; n < table.size(); ++n) {
    const Instance& instance = table[n];
    const std::string label = "table row " + std::to_string(n) + " capacity " +
                              std::to_string(instance.capacity);
    const MckpSolution want = ReferenceSolveMckp(instance.groups, instance.capacity);
    ASSERT_NO_FATAL_FAILURE(ExpectSame(
        *mckp_internal::SolveMckpAtWidth(lanes, instance.groups, instance.capacity), want,
        label));
    ASSERT_NO_FATAL_FAILURE(
        ExpectSame(SolveMckp(instance.groups, instance.capacity), want, label));
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, MckpKernelWidth, ::testing::ValuesIn(kKernelLanes));

}  // namespace
}  // namespace lyra
