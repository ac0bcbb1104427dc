#include "solver/extract.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/closed_form.h"
#include "solver/fast_solver.h"
#include "solver/reference_solver.h"
#include "util/rng.h"

namespace nowsched::solver {
namespace {

class ExtractFixture : public ::testing::Test {
 protected:
  static constexpr Ticks kC = 8;
  static constexpr Ticks kMaxL = 600;
  static constexpr int kMaxP = 3;
  ExtractFixture()
      : table_(std::make_shared<ValueTable>(solve_reference(kMaxP, kMaxL, Params{kC}))) {}
  std::shared_ptr<ValueTable> table_;
};

TEST_F(ExtractFixture, EpisodeSpansLifespan) {
  for (Ticks l : {Ticks{1}, Ticks{50}, Ticks{333}, kMaxL}) {
    for (int p = 0; p <= kMaxP; ++p) {
      EXPECT_EQ(extract_episode(*table_, p, l).total(), l);
    }
  }
}

TEST_F(ExtractFixture, ZeroLifespanIsEmpty) {
  EXPECT_TRUE(extract_episode(*table_, 2, 0).empty());
}

TEST_F(ExtractFixture, PZeroIsSinglePeriod) {
  const auto s = extract_episode(*table_, 0, 500);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s.period(0), 500);
}

TEST_F(ExtractFixture, ExtractedEpisodeAchievesTableValueP1) {
  // For p = 1 the episode's guaranteed work can be evaluated in closed form
  // (optimal continuation = single long period): it must equal W(1)[L].
  const Params params{kC};
  for (Ticks l = 1; l <= kMaxL; l += 7) {
    const auto episode = extract_episode(*table_, 1, l);
    EXPECT_EQ(guaranteed_work_p1(episode, l, params), table_->value(1, l)) << "l=" << l;
  }
}

TEST_F(ExtractFixture, ExtractedEpisodeAchievesTableValueGeneralP) {
  // General p: evaluate min over adversary options using level p−1 values.
  const Params params{kC};
  for (int p = 1; p <= kMaxP; ++p) {
    for (Ticks l = 1; l <= kMaxL; l += 11) {
      const auto episode = extract_episode(*table_, p, l);
      Ticks value = episode.work_if_uninterrupted(params);
      Ticks banked = 0;
      for (std::size_t k = 0; k < episode.size(); ++k) {
        const Ticks rest = positive_sub(l, episode.end(k));
        value = std::min(value, banked + table_->value(p - 1, rest));
        banked += positive_sub(episode.period(k), params.c);
      }
      EXPECT_EQ(value, table_->value(p, l)) << "p=" << p << " l=" << l;
    }
  }
}

TEST_F(ExtractFixture, EqualizationResidualsSmallOnEarlyPeriods) {
  // Thm 4.3: early periods satisfy t_k = c + ΔW(p−1) exactly (up to grid
  // effects). The last few ("immune tail") periods are exempt.
  const Ticks l = 555;
  for (int p = 1; p <= 2; ++p) {
    const auto episode = extract_episode(*table_, p, l);
    const auto residuals = equalization_residuals(*table_, episode, p, l);
    ASSERT_EQ(residuals.size(), episode.size());
    // Count how many early periods deviate by more than 2 ticks.
    std::size_t late_zone = std::min<std::size_t>(episode.size(), 3);
    for (std::size_t k = 0; k + late_zone < episode.size(); ++k) {
      EXPECT_LE(std::llabs(residuals[k]), 2)
          << "p=" << p << " period " << k << " of " << episode.size();
    }
  }
}

TEST_F(ExtractFixture, OptimalPolicyWrapsTable) {
  OptimalPolicy policy(table_);
  EXPECT_EQ(policy.name(), "dp-optimal");
  const auto s = policy.episode(400, 2, Params{kC});
  EXPECT_EQ(s.total(), 400);
  // Clamps p above table range.
  EXPECT_EQ(policy.episode(400, 99, Params{kC}).total(), 400);
  // Rejects mismatched params.
  EXPECT_THROW(policy.episode(400, 1, Params{kC + 1}), std::invalid_argument);
}

TEST_F(ExtractFixture, BoundsChecked) {
  EXPECT_THROW(extract_episode(*table_, 0, kMaxL + 1), std::out_of_range);
  EXPECT_THROW(extract_episode(*table_, kMaxP + 1, 10), std::out_of_range);
  EXPECT_THROW(extract_episode(*table_, -1, 10), std::out_of_range);
  EXPECT_THROW(equalization_residuals(*table_, EpisodeSchedule({10}), 0, 10),
               std::invalid_argument);
}

TEST_F(ExtractFixture, BestPeriodLengthRangeChecked) {
  // Documented range: 1 <= p <= max_p and 1 <= L <= max_lifespan. L = 0 once
  // read cur[-1] (fast search) or answered 1 > L (linear scan).
  for (Ticks l : {Ticks{0}, Ticks{-1}, kMaxL + 1}) {
    EXPECT_THROW(best_period_length(*table_, 1, l), std::out_of_range) << "l=" << l;
    EXPECT_THROW(best_period_length(*table_, 1, l, 5), std::out_of_range) << "l=" << l;
    EXPECT_THROW(best_period_length_linear(*table_, 1, l), std::out_of_range) << "l=" << l;
  }
  for (int p : {-1, 0, kMaxP + 1}) {
    EXPECT_THROW(best_period_length(*table_, p, 10), std::out_of_range) << "p=" << p;
    EXPECT_THROW(best_period_length(*table_, p, 10, 5), std::out_of_range) << "p=" << p;
    EXPECT_THROW(best_period_length_linear(*table_, p, 10), std::out_of_range) << "p=" << p;
  }
  // The range ends themselves are valid states.
  EXPECT_EQ(best_period_length(*table_, 1, 1), 1);
  EXPECT_EQ(best_period_length(*table_, kMaxP, kMaxL),
            best_period_length_linear(*table_, kMaxP, kMaxL));
}

TEST(OptimalPolicyStandalone, NullTableRejected) {
  EXPECT_THROW(OptimalPolicy(nullptr), std::invalid_argument);
}

// Walks extract_episode(table, p, L) and checks every period against the
// O(L) scan at the state it was chosen from. Every period after the first
// comes from the search seeded with the previous period's length.
void expect_every_period_linear(const ValueTable& table, int p, Ticks lifespan) {
  const EpisodeSchedule episode = extract_episode(table, p, lifespan);
  Ticks l = lifespan;
  for (std::size_t k = 0; k < episode.size(); ++k) {
    ASSERT_GT(l, 0) << "p=" << p << " L=" << lifespan << " period " << k;
    ASSERT_EQ(episode.period(k), best_period_length_linear(table, p, l))
        << "c=" << table.params().c << " p=" << p << " L=" << lifespan << " period " << k
        << " at l=" << l;
    l -= episode.period(k);
  }
  EXPECT_EQ(l, 0);
}

// The O(log L) crossover search must pick the bit-identical (longest
// attaining) period the O(L) scan picks on EVERY state — extraction feeds
// committed schedules, so a different tie-break would silently change
// simulation results. Exhaustive over several c regimes, including c = 1
// (no prefix region) and c > L (prefix only). The hint changes only the
// cost: any hint — inside the crossover range [c, L], at its ends, past
// them, or around the answer — returns the same period, and so does every
// period extract_episode chooses with the previous period as its hint.
TEST(BestPeriodLength, FastMatchesLinearScanExhaustively) {
  for (Ticks c : {Ticks{1}, Ticks{2}, Ticks{7}, Ticks{16}, Ticks{33}, Ticks{250}}) {
    constexpr int kMaxP = 3;
    constexpr Ticks kMaxL = 200;
    const ValueTable table = solve_reference(kMaxP, kMaxL, Params{c});
    for (int p = 1; p <= kMaxP; ++p) {
      for (Ticks l = 1; l <= kMaxL; ++l) {
        const Ticks want = best_period_length_linear(table, p, l);
        ASSERT_EQ(best_period_length(table, p, l), want)
            << "c=" << c << " p=" << p << " l=" << l;
        for (Ticks hint : {Ticks{-7}, Ticks{0}, Ticks{1}, c - 1, c, c + 1, l / 2, l - 1, l,
                           l + 1, 4 * l + 100, want - 2, want - 1, want, want + 1,
                           want + 2}) {
          ASSERT_EQ(best_period_length(table, p, l, hint), want)
              << "c=" << c << " p=" << p << " l=" << l << " hint=" << hint;
        }
        ASSERT_NO_FATAL_FAILURE(expect_every_period_linear(table, p, l));
      }
    }
  }
}

TEST(ExtractEpisode, EveryPeriodMatchesLinearScanAtLargeU) {
  // Sampled states on solve_fast tables at U ≈ 2^14, where episodes run to
  // dozens of periods and consecutive periods differ by more than a tick.
  struct Grid {
    Ticks c, max_l;
    int max_p;
  };
  for (const Grid g : {Grid{16, 16384, 4}, Grid{3, 16001, 6}}) {
    const ValueTable table = solve_fast(g.max_p, g.max_l, Params{g.c});
    for (int p = 1; p <= g.max_p; ++p) {
      for (Ticks l : {Ticks{1}, g.c, g.c + 1, 3 * g.c + 1, Ticks{1000}, Ticks{4097},
                      Ticks{9999}, g.max_l - 1, g.max_l}) {
        ASSERT_NO_FATAL_FAILURE(expect_every_period_linear(table, p, l));
      }
    }
  }
}

// Extraction with `until` stops after the first period ending at or past
// it. Its periods are the whole episode's leading periods, bit for bit, and
// every one is the linear scan's choice at its state. The cases include
// `until` exactly at a period end (that period is the killed one, so the
// prefix ends with it), until = 1 (first period only) and until = L (the
// whole episode), through OptimalPolicy::episode_prefix as well.
TEST(ExtractEpisode, PrefixIsTheLeadingPeriodsOfTheWholeEpisode) {
  constexpr Ticks kC = 16;
  constexpr Ticks kMaxL = 4096;
  constexpr int kMaxP = 4;
  const auto table = std::make_shared<const ValueTable>(solve_fast(kMaxP, kMaxL, Params{kC}));
  const OptimalPolicy policy(table);
  util::Rng rng(0x9E1F1C);
  const int cases = 200;
  for (int i = 0; i < cases; ++i) {
    const int p = static_cast<int>(rng.uniform_int(0, kMaxP));
    const Ticks l = rng.uniform_int(1, kMaxL);
    const EpisodeSchedule whole = extract_episode(*table, p, l);
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(whole.size()) - 1));
    for (const Ticks until : {rng.uniform_int(1, l), whole.end(j), Ticks{1}, l}) {
      const EpisodeSchedule prefix = extract_episode(*table, p, l, until);
      std::size_t k = 0;
      while (whole.end(k) < until) ++k;
      ASSERT_EQ(prefix.size(), k + 1) << "p=" << p << " L=" << l << " until=" << until;
      if (until == whole.end(j)) {
        EXPECT_EQ(k, j);
      }
      Ticks rest = l;
      for (std::size_t m = 0; m <= k; ++m) {
        ASSERT_EQ(prefix.period(m), whole.period(m))
            << "p=" << p << " L=" << l << " until=" << until << " period " << m;
        if (p > 0) {
          ASSERT_EQ(prefix.period(m), best_period_length_linear(*table, p, rest))
              << "p=" << p << " L=" << l << " until=" << until << " period " << m;
        }
        rest -= prefix.period(m);
      }
      EXPECT_EQ(policy.episode_prefix(l, p, Params{kC}, until), prefix);
    }
  }
}

}  // namespace
}  // namespace nowsched::solver
