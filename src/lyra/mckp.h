// Multiple-choice knapsack solver (§5.2).
//
// Lyra's phase-two allocation packs "grow job j by k workers" items into the
// knapsack of remaining GPUs, taking at most one item per job. The problem is
// NP-hard but pseudo-polynomial via dynamic programming over capacity; the
// paper reports sub-hundredth-second solve times at production scale (354
// items, 245 GPUs), which bench_micro_algorithms reproduces.
#ifndef SRC_LYRA_MCKP_H_
#define SRC_LYRA_MCKP_H_

#include <optional>
#include <vector>

namespace lyra {

struct MckpItem {
  int weight = 0;      // GPUs consumed
  double value = 0.0;  // JCT reduction (seconds)
};

// One group per elastic job; at most one item may be chosen per group.
struct MckpGroup {
  std::vector<MckpItem> items;
};

struct MckpSolution {
  double total_value = 0.0;
  int total_weight = 0;
  // Chosen item index per group, -1 when the group takes nothing.
  std::vector<int> chosen;
};

// Exact DP solution. Capacity and weights must be non-negative. Group g's
// row only spans the loads groups 0..g can reach, reach_g = min(capacity,
// sum of their largest weights), so time is O(sum over groups of items_g *
// reach_g). Space is (num_groups + 1) rows of min(capacity, reach) + 1
// doubles, each padded to whole blocks of 8 and preceded by a guard as wide
// as the heaviest item (at most the capacity), in a per-thread arena reused
// across calls. An item is taken only if it strictly beats the best without
// it, and of equal items the lowest index wins.
//
// The DP fill is one column-blocked kernel. Row g+1 is computed eight
// columns at a time: a step loads prev[c..c+7] into registers as the running
// best, folds in every item of group g as best = cand > best ? cand : best
// with cand = prev[c - w] + v, and stores the block once. The guard holds
// -inf, so for c < w the candidate is -inf (or NaN for an infinite value)
// and loses, and every column runs the same branch-free code. The kernel is
// one template over a GCC/Clang vector type, compiled twice: 2 lanes x 4
// accumulators in the baseline instruction set, and 4 lanes x 2 accumulators
// in a target("avx2") function. SolveMckp picks the AVX2 instance once per
// process when __builtin_cpu_supports("avx2") says so (x86-64 only); other
// CPUs run the 2-lane one.
//
// Every instance returns the same bits. The kernel only adds and compares:
// each row value is prev[c] folded with the same candidates, in the same
// item order and with the same strict >, as a plain scalar loop would fold
// them, and a lane computes exactly the double sum a scalar add would. The
// guard's candidates never win a comparison. So the rows, and with them the
// backtracked choices, total value and weight, do not depend on the width.
MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity);

namespace mckp_internal {

// For tests only: SolveMckp with the kernel instance of the given vector
// width, 2 or 4 lanes. Returns nullopt without solving when this CPU cannot
// run that instance (4 lanes needs AVX2 on x86-64).
std::optional<MckpSolution> SolveMckpAtWidth(int lanes, const std::vector<MckpGroup>& groups,
                                             int capacity);

}  // namespace mckp_internal
}  // namespace lyra

#endif  // SRC_LYRA_MCKP_H_
