#include "solver/policy_eval.h"

#include <algorithm>
#include <stdexcept>

namespace nowsched::solver {

namespace {

/// Adversary value of one committed episode given the next level's values.
Ticks episode_value(const EpisodeSchedule& sched, Ticks lifespan, const Params& params,
                    const std::vector<Ticks>* next_level) {
  Ticks best = sched.work_if_uninterrupted(params);
  if (next_level != nullptr) {
    Ticks banked = 0;
    for (std::size_t k = 0; k < sched.size(); ++k) {
      const Ticks rest = positive_sub(lifespan, sched.end(k));
      best = std::min(best, banked + (*next_level)[static_cast<std::size_t>(rest)]);
      banked += positive_sub(sched.period(k), params.c);
    }
  }
  return best;
}

std::vector<Ticks> compute_level(const SchedulingPolicy& policy, Ticks max_lifespan,
                                 int q, const Params& params,
                                 const std::vector<Ticks>* next_level,
                                 util::ThreadPool* pool) {
  std::vector<Ticks> level(static_cast<std::size_t>(max_lifespan) + 1, 0);
  auto body = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t l = lo; l < hi; ++l) {
      const auto lifespan = static_cast<Ticks>(l);
      const EpisodeSchedule sched = policy.episode(lifespan, q, params);
      if (sched.total() != lifespan) {
        throw std::logic_error("policy '" + policy.name() +
                               "' produced an episode not spanning the lifespan");
      }
      level[l] = episode_value(sched, lifespan, params, next_level);
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for_chunks(1, static_cast<std::size_t>(max_lifespan) + 1, body);
  } else {
    body(1, static_cast<std::size_t>(max_lifespan) + 1);
  }
  return level;
}

}  // namespace

std::vector<Ticks> evaluate_policy_grid(const SchedulingPolicy& policy,
                                        Ticks max_lifespan, int p, const Params& params,
                                        util::ThreadPool* pool) {
  require_valid(params);
  if (max_lifespan < 0) throw std::invalid_argument("evaluate_policy_grid: bad lifespan");
  if (p < 0) throw std::invalid_argument("evaluate_policy_grid: bad p");

  std::vector<Ticks> level = compute_level(policy, max_lifespan, 0, params,
                                           /*next_level=*/nullptr, pool);
  for (int q = 1; q <= p; ++q) {
    level = compute_level(policy, max_lifespan, q, params, &level, pool);
  }
  return level;
}

Ticks evaluate_policy(const SchedulingPolicy& policy, Ticks lifespan, int p,
                      const Params& params, util::ThreadPool* pool) {
  const auto grid = evaluate_policy_grid(policy, lifespan, p, params, pool);
  return grid[static_cast<std::size_t>(lifespan)];
}

BestResponse best_response(const SchedulingPolicy& policy, Ticks lifespan, int p,
                           const Params& params) {
  require_valid(params);
  // Keep all levels so the optimal play can be walked forward.
  std::vector<std::vector<Ticks>> levels;  // levels[q]
  levels.push_back(compute_level(policy, lifespan, 0, params, nullptr, /*pool=*/nullptr));
  for (int q = 1; q <= p; ++q) {
    levels.push_back(
        compute_level(policy, lifespan, q, params, &levels.back(), /*pool=*/nullptr));
  }

  BestResponse out;
  out.value = levels[static_cast<std::size_t>(p)][static_cast<std::size_t>(lifespan)];

  Ticks l = lifespan;
  int q = p;
  while (l > 0) {
    const EpisodeSchedule sched = policy.episode(l, q, params);
    AdversaryMove move;
    move.episode_lifespan = l;
    move.interrupts_left = q;

    const Ticks target = levels[static_cast<std::size_t>(q)][static_cast<std::size_t>(l)];
    const Ticks uninterrupted = sched.work_if_uninterrupted(params);

    // Prefer interrupting (the paper's Observation (b): the adversary always
    // interrupts while it can); fall back to letting the episode run.
    bool placed = false;
    if (q > 0) {
      const auto& next = levels[static_cast<std::size_t>(q - 1)];
      Ticks banked = 0;
      for (std::size_t k = 0; k < sched.size() && !placed; ++k) {
        const Ticks rest = positive_sub(l, sched.end(k));
        if (banked + next[static_cast<std::size_t>(rest)] == target) {
          move.killed = k;
          move.banked = banked;
          out.moves.push_back(move);
          l = rest;
          --q;
          placed = true;
        }
        banked += positive_sub(sched.period(k), params.c);
      }
    }
    if (!placed) {
      // No interrupt achieves the minimum: the episode runs to completion.
      if (uninterrupted != target) {
        throw std::logic_error("best_response: no adversary option attains the value");
      }
      move.banked = uninterrupted;
      out.moves.push_back(move);
      break;
    }
  }
  return out;
}

}  // namespace nowsched::solver
