#include "src/lyra/mckp.h"

#include <algorithm>
#include <cstddef>

#include "src/common/check.h"

namespace lyra {

MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity) {
  LYRA_CHECK_GE(capacity, 0);
  MckpSolution solution;
  solution.chosen.assign(groups.size(), -1);
  if (groups.empty() || capacity == 0) {
    return solution;
  }

  // reach[g]: the heaviest load groups 0..g can reach, before clamping to the
  // capacity. Never allocate DP columns beyond what all items could use.
  thread_local std::vector<std::size_t> reach;
  reach.resize(groups.size());
  std::size_t useful_capacity = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    int max_weight = 0;
    for (const MckpItem& item : groups[g].items) {
      LYRA_CHECK_GE(item.weight, 0);
      max_weight = std::max(max_weight, item.weight);
    }
    useful_capacity += static_cast<std::size_t>(max_weight);
    reach[g] = useful_capacity;
  }
  const std::size_t cap = std::min(static_cast<std::size_t>(capacity), useful_capacity);
  if (cap == 0) {
    return solution;
  }
  for (std::size_t& r : reach) {
    r = std::min(r, cap);
  }

  // Row g+1 of the arena holds the best value over groups 0..g at every load
  // up to the column index; row 0 is the empty selection. No item set from
  // groups 0..g weighs more than reach[g], so columns past it repeat
  // row[reach[g]] and are filled in only when the next row reads them.
  const std::size_t width = cap + 1;
  thread_local std::vector<double> arena;
  if (arena.size() < (groups.size() + 1) * width) {
    arena.resize((groups.size() + 1) * width);
  }
  arena[0] = 0.0;
  std::size_t filled = 0;  // last column of the previous row written so far
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t r = reach[g];
    double* __restrict prev = arena.data() + g * width;
    double* __restrict row = prev + width;
    std::fill(prev + filled + 1, prev + r + 1, prev[filled]);
    std::copy(prev, prev + r + 1, row);
    for (const MckpItem& item : groups[g].items) {
      const auto w = static_cast<std::size_t>(item.weight);
      if (w > r || item.value <= 0.0) {
        continue;
      }
      const double v = item.value;
      for (std::size_t c = w; c <= r; ++c) {
        const double cand = prev[c - w] + v;
        row[c] = cand > row[c] ? cand : row[c];
      }
    }
    filled = r;
  }

  // The first load reaching the best value, then walk the rows back. A group
  // took an item where its row beats the previous one, and that item is the
  // first one (in index order) whose candidate equals the row value: the one
  // the forward pass's strict > kept. The walk only visits loads where the
  // current row rises strictly (true of the first best load, and kept by each
  // step back), and rows are flat past reach[g], so it stays within the
  // columns written.
  const double* last = arena.data() + groups.size() * width;
  std::size_t c = static_cast<std::size_t>(std::max_element(last, last + width) - last);
  solution.total_value = last[c];
  for (std::size_t g = groups.size(); g-- > 0;) {
    const double* prev = arena.data() + g * width;
    const double* row = prev + width;
    LYRA_CHECK_LE(c, reach[g]);
    if (!(row[c] > prev[c])) {
      continue;
    }
    const std::vector<MckpItem>& items = groups[g].items;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto w = static_cast<std::size_t>(items[i].weight);
      if (w <= c && items[i].value > 0.0 && prev[c - w] + items[i].value == row[c]) {
        solution.chosen[g] = static_cast<int>(i);
        solution.total_weight += items[i].weight;
        c -= w;
        break;
      }
    }
  }
  return solution;
}

}  // namespace lyra
