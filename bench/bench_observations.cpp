// E7 — §4.1 Observations (a), (b), (c), verified exhaustively on small grids
// and illustrated against the optimal policy.
#include <algorithm>
#include <memory>
#include <string>

#include "harness/harness.h"

#include "solver/extract.h"
#include "solver/policy_eval.h"
#include "solver/reference_solver.h"

namespace nowsched::bench {
namespace {

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Params params{flags.get_int("c", 8)};
  const Ticks max_l = flags.get_int("max_l", ctx.quick() ? 160 : 320);
  const int max_p = static_cast<int>(flags.get_int("max_p", 2));

  ctx.csv({"observation", "checked", "violations"});
  const auto table = solver::solve_reference(max_p, max_l, params);

  // (a) last-instant interrupts: allowing mid-period interrupts changes no
  // game value (computed exhaustively).
  std::size_t states = 0, changed = 0;
  for (int p = 1; p <= max_p; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      Ticks best = 0;
      for (Ticks t = 1; t <= l; ++t) {
        Ticks worst = table.value(p - 1, l - t);  // last instant
        for (Ticks x = 1; x < t; ++x) {           // interior ticks
          worst = std::min(worst, table.value(p - 1, l - x));
        }
        best = std::max(best,
                        std::min(positive_sub(t, params.c) + table.value(p, l - t),
                                 worst));
      }
      ++states;
      changed += (best != table.value(p, l));
    }
  }
  ctx.text("(a) last-instant dominance: " + std::to_string(states) +
           " states checked with interior-tick interrupts allowed; " +
           std::to_string(changed) + " game values changed (expected 0)");
  ctx.write_csv_row({std::string("last_instant_dominance"),
                     std::to_string(states), std::to_string(changed)});

  // (b) the adversary interrupts every episode while p > 0 and U > c.
  auto shared = std::make_shared<solver::ValueTable>(table);
  solver::OptimalPolicy policy(shared);
  std::size_t opportunities = 0, full_use = 0;
  for (Ticks l = 4 * params.c * (max_p + 1); l <= max_l; l += 17) {
    const auto br = solver::best_response(policy, l, max_p, params);
    int used = 0;
    for (const auto& move : br.moves) used += move.killed.has_value();
    ++opportunities;
    full_use += (used == max_p);
  }
  ctx.text("(b) always-interrupt: " + std::to_string(full_use) + "/" +
           std::to_string(opportunities) + " opportunities used all p=" +
           std::to_string(max_p) +
           " interrupts (expected all, for U above the threshold)");
  ctx.write_csv_row({std::string("always_interrupt"), std::to_string(opportunities),
                     std::to_string(opportunities - full_use)});

  // (c) interrupted periods begin before residual − p·c.
  std::size_t interrupts = 0, inside_window = 0;
  for (Ticks l = 4 * params.c * (max_p + 1); l <= max_l; l += 17) {
    Ticks residual = l;
    int q = max_p;
    const auto br = solver::best_response(policy, l, max_p, params);
    for (const auto& move : br.moves) {
      if (!move.killed) break;
      const auto episode = policy.episode(residual, q, params);
      if (residual > (static_cast<Ticks>(q) + 1) * params.c) {
        ++interrupts;
        inside_window += (episode.start(*move.killed) <
                          residual - static_cast<Ticks>(q) * params.c);
      }
      residual = positive_sub(residual, episode.end(*move.killed));
      --q;
    }
  }
  ctx.text("(c) early-window interrupts: " + std::to_string(inside_window) + "/" +
           std::to_string(interrupts) +
           " optimal-play interrupts began before residual − p·c (expected all)");
  ctx.write_csv_row({std::string("early_window_interrupts"),
                     std::to_string(interrupts),
                     std::to_string(interrupts - inside_window)});

  // Illustrative table: one optimal episode with the adversary's options.
  const Ticks demo_l = std::min<Ticks>(max_l, 40 * params.c);
  const auto episode = solver::extract_episode(table, 1, demo_l);
  util::Table out({"period", "t_k", "starts", "kill option value"});
  for (std::size_t k = 0; k < episode.size(); ++k) {
    const Ticks option = episode.banked_work(k, params) +
                         table.value(0, positive_sub(demo_l, episode.end(k)));
    out.add_row({util::Table::fmt(static_cast<long long>(k + 1)),
                 util::Table::fmt(static_cast<long long>(episode.period(k))),
                 util::Table::fmt(static_cast<long long>(episode.start(k))),
                 util::Table::fmt(static_cast<long long>(option))});
  }
  ctx.table(out, "optimal 1-interrupt episode at U = " + std::to_string(demo_l) +
                     " — note the equalized kill-option column (Thm 4.3)");
}

}  // namespace

const harness::Experiment& experiment_observations() {
  static const harness::Experiment e{
      "E7", "observations", "§4.1 Observations (a)–(c) verified exhaustively",
      "Exhaustive small-grid verification of the three §4.1 observations — "
      "last-instant interrupt dominance, the adversary always spending its "
      "interrupts, and interrupts landing in the early window — plus one "
      "optimal episode with its equalized kill-option column (Thm 4.3).",
      run};
  return e;
}

}  // namespace nowsched::bench
