#include "src/lyra/mckp.h"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>

#include "src/common/check.h"

namespace lyra {
namespace {

// Columns per kernel step: the block a step keeps in registers.
constexpr std::size_t kBlock = 8;

typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));

// An item the DP folds in: its weight fits the row and its value is not <= 0.
struct Candidate {
  std::size_t weight = 0;
  double value = 0.0;
};

// Row = prev folded with every candidate, over columns [0, blocks * kBlock).
// prev[-w] must be readable for every candidate weight w (the -inf guard).
// Each step loads eight columns of prev as kBlock / lanes accumulators, folds
// in every candidate, and stores the block once.
template <typename Vec>
[[gnu::always_inline]] inline void FoldGroup(const double* prev, double* row,
                                             std::size_t blocks,
                                             const Candidate* items,
                                             std::size_t num_items) {
  constexpr std::size_t kLanes = sizeof(Vec) / sizeof(double);
  constexpr std::size_t kAcc = kBlock / kLanes;
  for (std::size_t c = 0; c < blocks * kBlock; c += kBlock) {
    Vec best[kAcc];
#pragma GCC unroll 4
    for (std::size_t a = 0; a < kAcc; ++a) {
      std::memcpy(&best[a], prev + c + a * kLanes, sizeof(Vec));
    }
    for (std::size_t i = 0; i < num_items; ++i) {
      const double* src = prev + c - items[i].weight;
#pragma GCC unroll 4
      for (std::size_t a = 0; a < kAcc; ++a) {
        Vec cand;
        std::memcpy(&cand, src + a * kLanes, sizeof cand);
        cand += items[i].value;
        best[a] = cand > best[a] ? cand : best[a];
      }
    }
#pragma GCC unroll 4
    for (std::size_t a = 0; a < kAcc; ++a) {
      std::memcpy(row + c + a * kLanes, &best[a], sizeof(Vec));
    }
  }
}

using FoldFn = void (*)(const double*, double*, std::size_t, const Candidate*, std::size_t);

// 2 lanes x 4 accumulators: the baseline instruction set of every target.
void FoldGroup2(const double* prev, double* row, std::size_t blocks,
                const Candidate* items, std::size_t num_items) {
  FoldGroup<Vec2>(prev, row, blocks, items, num_items);
}

#if defined(__x86_64__)
// 4 lanes x 2 accumulators, for CPUs with AVX2.
[[gnu::target("avx2")]] void FoldGroup4Avx2(const double* prev, double* row,
                                            std::size_t blocks, const Candidate* items,
                                            std::size_t num_items) {
  FoldGroup<Vec4>(prev, row, blocks, items, num_items);
}
#endif

bool CpuHasAvx2() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// The instance of the given width, or nullptr when this CPU cannot run it.
FoldFn FoldAtWidth(int lanes) {
  LYRA_CHECK(lanes == 2 || lanes == 4);
  if (lanes == 2) {
    return FoldGroup2;
  }
#if defined(__x86_64__)
  if (CpuHasAvx2()) {
    return FoldGroup4Avx2;
  }
#endif
  return nullptr;
}

MckpSolution Solve(const std::vector<MckpGroup>& groups, int capacity, FoldFn fold) {
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
  int heaviest = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    int max_weight = 0;
    for (const MckpItem& item : groups[g].items) {
      LYRA_CHECK_GE(item.weight, 0);
      max_weight = std::max(max_weight, item.weight);
    }
    heaviest = std::max(heaviest, max_weight);
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
  // No row folds in an item heavier than the capacity.
  const std::size_t guard = std::min(cap, static_cast<std::size_t>(heaviest));

  // Row g+1 of the arena holds the best value over groups 0..g at every load
  // up to the column index; row 0 is the empty selection. No item set from
  // groups 0..g weighs more than reach[g], so columns past it repeat
  // row[reach[g]] and are filled in only when the next row reads them. Each
  // row is padded to whole blocks (the last block of a row writes past
  // reach[g] into columns nothing reads before the fill) and preceded by
  // `guard` columns of -inf, so prev[c - w] exists for every column and
  // loses every comparison where c < w.
  const std::size_t width = cap + 1;
  const std::size_t padded = (width + kBlock - 1) / kBlock * kBlock;
  const std::size_t stride = guard + padded;
  thread_local std::vector<double> arena;
  if (arena.size() < (groups.size() + 1) * stride) {
    arena.resize((groups.size() + 1) * stride);
  }
  const auto row_at = [&](std::size_t g) { return arena.data() + guard + g * stride; };
  thread_local std::vector<Candidate> items;
  row_at(0)[0] = 0.0;
  std::size_t filled = 0;  // last column of the previous row written so far
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t r = reach[g];
    double* prev = row_at(g);
    std::fill(prev - guard, prev, -std::numeric_limits<double>::infinity());
    std::fill(prev + filled + 1, prev + r + 1, prev[filled]);
    items.clear();
    for (const MckpItem& item : groups[g].items) {
      const auto w = static_cast<std::size_t>(item.weight);
      if (!(w > r || item.value <= 0.0)) {
        items.push_back({w, item.value});
      }
    }
    fold(prev, row_at(g + 1), (r + kBlock) / kBlock, items.data(), items.size());
    filled = r;
  }

  // The first load reaching the best value, then walk the rows back. A group
  // took an item where its row beats the previous one, and that item is the
  // first one (in index order) whose candidate equals the row value: the one
  // the forward pass's strict > kept. The walk only visits loads where the
  // current row rises strictly (true of the first best load, and kept by each
  // step back), and rows are flat past reach[g], so it stays within the
  // columns written.
  const double* last = row_at(groups.size());
  std::size_t c = static_cast<std::size_t>(std::max_element(last, last + width) - last);
  solution.total_value = last[c];
  for (std::size_t g = groups.size(); g-- > 0;) {
    const double* prev = row_at(g);
    const double* row = row_at(g + 1);
    LYRA_CHECK_LE(c, reach[g]);
    if (!(row[c] > prev[c])) {
      continue;
    }
    const std::vector<MckpItem>& group_items = groups[g].items;
    for (std::size_t i = 0; i < group_items.size(); ++i) {
      const auto w = static_cast<std::size_t>(group_items[i].weight);
      if (w <= c && group_items[i].value > 0.0 &&
          prev[c - w] + group_items[i].value == row[c]) {
        solution.chosen[g] = static_cast<int>(i);
        solution.total_weight += group_items[i].weight;
        c -= w;
        break;
      }
    }
  }
  return solution;
}

}  // namespace

MckpSolution SolveMckp(const std::vector<MckpGroup>& groups, int capacity) {
  // The widest instance this CPU runs, picked once per process.
  static const FoldFn fold = FoldAtWidth(CpuHasAvx2() ? 4 : 2);
  return Solve(groups, capacity, fold);
}

namespace mckp_internal {

std::optional<MckpSolution> SolveMckpAtWidth(int lanes, const std::vector<MckpGroup>& groups,
                                             int capacity) {
  const FoldFn fold = FoldAtWidth(lanes);
  if (fold == nullptr) {
    return std::nullopt;
  }
  return Solve(groups, capacity, fold);
}

}  // namespace mckp_internal
}  // namespace lyra
