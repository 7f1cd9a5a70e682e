// Multiple-choice knapsack solver (§5.2).
//
// Lyra's phase-two allocation packs "grow job j by k workers" items into the
// knapsack of remaining GPUs, taking at most one item per job. The problem is
// NP-hard but pseudo-polynomial via dynamic programming over capacity; the
// paper reports sub-hundredth-second solve times at production scale (354
// items, 245 GPUs), which bench_micro_algorithms reproduces.
#ifndef SRC_LYRA_MCKP_H_
#define SRC_LYRA_MCKP_H_

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
// doubles in a per-thread arena reused across calls. An item is taken only
// if it strictly beats the best without it, and of equal items the lowest
// index wins.
MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity);

}  // namespace lyra

#endif  // SRC_LYRA_MCKP_H_
