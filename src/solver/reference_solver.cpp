#include "solver/reference_solver.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace nowsched::solver {

ValueTable solve_reference(int max_p, Ticks max_lifespan, const Params& params) {
  ValueTable table(max_p, max_lifespan, params);
  const Ticks c = params.c;

  std::vector<Ticks> prev(static_cast<std::size_t>(max_lifespan) + 1);
  std::vector<Ticks> cur(prev.size());
  for (Ticks l = 0; l <= max_lifespan; ++l) {
    prev[static_cast<std::size_t>(l)] = positive_sub(l, c);
  }
  table.assign_level(0, prev);

  for (int p = 1; p <= max_p; ++p) {
    cur[0] = 0;
    for (Ticks l = 1; l <= max_lifespan; ++l) {
      Ticks best = 0;
      for (Ticks t = 1; t <= l; ++t) {
        const auto rest = static_cast<std::size_t>(l - t);
        const Ticks no_interrupt = positive_sub(t, c) + cur[rest];
        const Ticks interrupted = prev[rest];
        best = std::max(best, std::min(no_interrupt, interrupted));
      }
      cur[static_cast<std::size_t>(l)] = best;
    }
    table.assign_level(p, cur);
    std::swap(prev, cur);
  }
  return table;
}

}  // namespace nowsched::solver
