// E1 — regenerates Table 1: "The consequences of the adversary's options".
//
// For a concrete cycle-stealing opportunity (U, p) and the episode-schedule
// S(p)[U] actually played (DP-optimal by default), enumerate the adversary's
// m(p)+1 options and print, per option:
//   episode work-output   T_{k−1} − (k−1)c
//   residual lifespan     U − T_k          (last-instant interrupts)
//   opportunity work      episode output + W(p−1)[U − T_k]
// The no-interrupt row produces U − mc with residual 0.
//
// The paper's Table 1 is symbolic; this bench instantiates it numerically
// and verifies the row identities hold exactly on the tick grid.
#include <vector>

#include "harness/harness.h"

#include "core/equalized.h"
#include "solver/extract.h"
#include "solver/fast_solver.h"

namespace nowsched::bench {
namespace {

void emit_instance(harness::Context& ctx, Ticks u, int p, const Params& params,
                   bool use_equalized) {
  const auto table = solver::solve_fast(p, u, params);
  const EpisodeSchedule episode =
      use_equalized ? equalized_episode(u, p, params)
                    : solver::extract_episode(table, p, u);
  const std::size_t m = episode.size();

  util::Table out({"option", "interrupt time", "episode work", "residual lifespan",
                   "opportunity work"},
                  {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                   util::Align::kRight, util::Align::kRight});

  // No-interrupt row: work U − mc, residual 0.
  const Ticks no_int = episode.work_if_uninterrupted(params);
  out.add_row({"no interrupt", "-", util::Table::fmt(static_cast<long long>(no_int)),
               "0", util::Table::fmt(static_cast<long long>(no_int))});
  out.add_rule();

  Ticks worst = no_int;
  const std::size_t head = 4, tail = 4;
  for (std::size_t k = 0; k < m; ++k) {
    const Ticks episode_work = episode.banked_work(k, params);
    const Ticks residual = positive_sub(u, episode.end(k));
    const Ticks total = episode_work + table.value(p - 1, residual);
    worst = std::min(worst, total);
    ctx.write_csv_row({static_cast<double>(u), static_cast<double>(p),
                       static_cast<double>(k + 1), static_cast<double>(episode.end(k)),
                       static_cast<double>(episode_work), static_cast<double>(residual),
                       static_cast<double>(total)});
    if (m > head + tail + 1 && k == head) {
      out.add_row({"...", "...", "...", "...", "..."});
    }
    if (m > head + tail + 1 && k >= head && k + tail < m) continue;
    out.add_row({"interrupt period " + std::to_string(k + 1),
                 util::Table::fmt(static_cast<long long>(episode.end(k))),
                 util::Table::fmt(static_cast<long long>(episode_work)),
                 util::Table::fmt(static_cast<long long>(residual)),
                 util::Table::fmt(static_cast<long long>(total))});
  }

  ctx.table(out, "U = " + std::to_string(u) + " (U/c = " +
                     std::to_string(u / params.c) + "), p = " + std::to_string(p) +
                     ", schedule " + (use_equalized ? "equalized" : "dp-optimal") +
                     " with m = " + std::to_string(m) + " periods");
  ctx.text("adversary's best option value = " +
           util::Table::fmt(static_cast<long long>(worst)) + "   (exact W(p)[U] = " +
           util::Table::fmt(static_cast<long long>(table.value(p, u))) + ")");
}

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const Params params{flags.get_int("c", 16)};
  const bool use_equalized = flags.get_bool("equalized", false);

  ctx.csv({"U", "p", "period", "interrupt_time", "episode_work", "residual",
           "opportunity_work"});

  const std::vector<Ticks> ratios =
      ctx.quick() ? std::vector<Ticks>{64} : std::vector<Ticks>{256, 1024};
  const int max_p = ctx.quick() ? 2 : 3;
  for (Ticks ratio : ratios) {
    for (int p = 1; p <= max_p; ++p) {
      emit_instance(ctx, ratio * params.c, p, params, use_equalized);
    }
  }
}

}  // namespace

const harness::Experiment& experiment_table1() {
  static const harness::Experiment e{
      "E1", "table1", "Table 1: the consequences of the adversary's options",
      "For each opportunity (U, p) and the DP-optimal episode schedule, every "
      "adversary option (interrupt period k, or never) is enumerated with its "
      "episode work, residual lifespan, and total opportunity work. The paper's "
      "Table 1 is symbolic; these instances make it numeric and check that the "
      "adversary's best option equals the exact game value W(p)[U].",
      run};
  return e;
}

}  // namespace nowsched::bench
