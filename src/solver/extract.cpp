#include "solver/extract.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

namespace nowsched::solver {

namespace {

/// Shared by both period finders: the two branches of the DP minimum at
/// period length t from state (p, l). `cur`/`prev` read levels p and p−1
/// unchecked: branches_at checks (p, l) once, and every read is at a
/// residual in [0, l].
struct Branches {
  ValueTable::LevelReader cur, prev;
  Ticks l, c;

  /// V_p(l): the recurrence is the max of min(A, B) over t in [1, l].
  Ticks target() const { return cur[l]; }
  /// A(t) = (t ⊖ c) + V_p(l−t): non-increasing on [1, c] (pure table read),
  /// non-decreasing on [c, l] (V_p is 1-Lipschitz).
  Ticks a(Ticks t) const { return positive_sub(t, c) + cur[l - t]; }
  /// B(t) = V_{p−1}(l−t): non-increasing on all of [1, l].
  Ticks b(Ticks t) const { return prev[l - t]; }
  Ticks min_ab(Ticks t) const { return std::min(a(t), b(t)); }
};

/// The branches at state (p, l), or std::out_of_range outside the
/// documented range 1 <= p <= max_p, 1 <= l <= max_lifespan.
Branches branches_at(const ValueTable& table, int p, Ticks l) {
  if (p < 1 || p > table.max_interrupts()) {
    throw std::out_of_range("best_period_length: p outside [1, max_p]");
  }
  if (l < 1 || l > table.max_lifespan()) {
    throw std::out_of_range("best_period_length: lifespan outside [1, max_lifespan]");
  }
  return Branches{table.reader(p), table.reader(p - 1), l, table.params().c};
}

/// Largest t in [lo, hi] where `pred` holds, for a `pred` that holds up to
/// some point of [lo, hi] and fails after it; lo − 1 when pred(lo) fails.
/// With a hint, the search gallops out from the hint (clamped into
/// [lo, hi]) in steps of 1, 2, 4, … until it brackets that point, then
/// bisects the bracket: O(log d) probes when the answer is d ticks from the
/// hint. Without one it bisects all of [lo, hi]. The hint changes only the
/// cost, never the answer.
template <class Pred>
NOWSCHED_INLINE_INTO_CLONES Ticks last_true(const Pred& pred, Ticks lo, Ticks hi,
                                            std::optional<Ticks> hint) {
  Ticks yes = lo - 1;  // pred holds at every t in [lo, yes]
  Ticks no = hi + 1;   // pred fails at every t in [no, hi]
  if (hint && lo <= hi) {
    const Ticks h = std::clamp(*hint, lo, hi);
    if (pred(h)) {
      yes = h;
      for (Ticks step = 1; yes < hi; step *= 2) {
        const Ticks t = std::min(hi, yes + step);
        if (!pred(t)) {
          no = t;
          break;
        }
        yes = t;
      }
    } else {
      no = h;
      for (Ticks step = 1; no > lo; step *= 2) {
        const Ticks t = std::max(lo, no - step);
        if (pred(t)) {
          yes = t;
          break;
        }
        no = t;
      }
    }
  }
  while (no - yes > 1) {
    const Ticks mid = yes + (no - yes) / 2;
    if (pred(mid)) yes = mid;
    else no = mid;
  }
  return yes;
}

/// Longest t in [1, f.l] attaining V_p(l); `hint` seeds the crossover
/// search (extraction passes the previous period's length).
NOWSCHED_INLINE_INTO_CLONES Ticks best_period(const Branches& f,
                                              std::optional<Ticks> hint) {
  const Ticks c = f.c, l = f.l;
  const Ticks target = f.target();

  // Suffix region t in [c, l]: A non-decreasing, B non-increasing — the
  // crossover structure. Any attaining t here is >= c, hence longer than
  // every prefix (t < c) candidate, so search it first.
  if (l > c) {
    // "A(t) < B(t)" holds up to the crossover x and fails after it; x is
    // c − 1 when min == B on the whole suffix and l when min == A.
    const Ticks x = last_true([&f](Ticks t) { return f.a(t) < f.b(t); }, c, l, hint);
    // Past the crossover min == B, non-increasing: the longest attaining t
    // overall is the end of B's plateau at target, galloping up from x + 1.
    if (x < l) {
      const Ticks t = last_true([&f, target](Ticks t) { return f.b(t) >= target; },
                                x + 1, l, x + 1);
      if (t > x && f.b(t) == target) return t;
    }
    // Before it min == A, non-decreasing: its plateau of maxima ends at x.
    if (x >= c && f.a(x) == target) return x;
  }

  // Prefix region t in [1, min(c, l)]: t ⊖ c == 0, so A == V_p(l−t) and both
  // branches are non-increasing — one monotone search finds the longest
  // attaining t. Reached only when no suffix t attains (e.g. the carry case
  // V_p(l) == V_p(l−1), attained at t = 1 because V_{p−1} >= V_p pointwise).
  const Ticks t = last_true([&f, target](Ticks t) { return f.min_ab(t) >= target; },
                            1, std::min(c, l), std::nullopt);
  if (t == 0) {
    throw std::logic_error(
        "best_period_length: no attaining period — value table is inconsistent");
  }
  return t;
}

}  // namespace

Ticks best_period_length_linear(const ValueTable& table, int p, Ticks l) {
  const Branches f = branches_at(table, p, l);
  const Ticks target = f.target();
  Ticks best_t = 1;
  for (Ticks t = 1; t <= l; ++t) {
    if (f.min_ab(t) >= target) best_t = t;  // never exceeds target; >= is a tie
  }
  return best_t;
}

Ticks best_period_length(const ValueTable& table, int p, Ticks l) {
  return best_period(branches_at(table, p, l), std::nullopt);
}

Ticks best_period_length(const ValueTable& table, int p, Ticks l, Ticks hint) {
  return best_period(branches_at(table, p, l), hint);
}

NOWSCHED_POPCNT_CLONES
EpisodeSchedule extract_episode(const ValueTable& table, int p, Ticks lifespan,
                                Ticks until) {
  if (lifespan < 0 || lifespan > table.max_lifespan()) {
    throw std::out_of_range("extract_episode: lifespan outside the table");
  }
  if (p < 0 || p > table.max_interrupts()) {
    throw std::out_of_range("extract_episode: p outside the table");
  }
  if (lifespan == 0) return EpisodeSchedule{};
  if (p == 0) return EpisodeSchedule({lifespan});  // Prop 4.1(d)

  // Consecutive periods of an optimal episode differ by a few ticks, so
  // each period's search gallops out from the one before it. The first
  // period ending at or past `until` is the last one built.
  Branches f = branches_at(table, p, lifespan);
  std::vector<Ticks> periods;
  while (f.l > 0 && lifespan - f.l < until) {
    const Ticks t = best_period(f, periods.empty() ? std::nullopt
                                                   : std::optional(periods.back()));
    periods.push_back(t);
    f.l -= t;
  }
  return EpisodeSchedule(std::move(periods));
}

std::vector<Ticks> equalization_residuals(const ValueTable& table,
                                          const EpisodeSchedule& episode, int p,
                                          Ticks lifespan) {
  if (p < 1) throw std::invalid_argument("equalization_residuals: need p >= 1");
  const Ticks c = table.params().c;
  std::vector<Ticks> residuals;
  residuals.reserve(episode.size());
  // Thm 4.3 writes t_k = c + W(p−1)[U − T_k] − W(p−1)[U − T_{k+1}] where T_k
  // is the END of (1-based) period k — equivalently, killing period k versus
  // killing period k+1 must cost the adversary the same. The final period
  // has no successor; its residual is reported as 0.
  for (std::size_t k = 0; k + 1 < episode.size(); ++k) {
    const Ticks w_k = table.value(p - 1, positive_sub(lifespan, episode.end(k)));
    const Ticks w_next = table.value(p - 1, positive_sub(lifespan, episode.end(k + 1)));
    residuals.push_back(episode.period(k) - (c + w_k - w_next));
  }
  if (!episode.empty()) residuals.push_back(0);
  return residuals;
}

OptimalPolicy::OptimalPolicy(std::shared_ptr<const ValueTable> table)
    : table_(std::move(table)) {
  if (!table_) throw std::invalid_argument("OptimalPolicy: null table");
}

EpisodeSchedule OptimalPolicy::episode(Ticks residual, int interrupts_left,
                                       const Params& params) const {
  return episode_prefix(residual, interrupts_left, params, residual);
}

EpisodeSchedule OptimalPolicy::episode_prefix(Ticks residual, int interrupts_left,
                                              const Params& params, Ticks until) const {
  if (params.c != table_->params().c) {
    throw std::invalid_argument("OptimalPolicy: params mismatch with table");
  }
  const int p = std::min(interrupts_left, table_->max_interrupts());
  return extract_episode(*table_, p, residual, until);
}

}  // namespace nowsched::solver
