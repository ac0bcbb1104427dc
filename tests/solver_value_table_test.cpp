// Properties of the exact W(p)[L] tables — Prop 4.1 and the structural facts
// the fast solver relies on, checked on reference-solver output.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bounds.h"
#include "solver/reference_solver.h"
#include "util/rng.h"

namespace nowsched::solver {
namespace {

// Every field is a Ticks so the struct has no padding bytes: gtest names each
// case after the bytes of its parameter, and padding bytes are indeterminate.
struct GridCase {
  Ticks max_p;
  Ticks max_l;
  Ticks c;
};
static_assert(std::has_unique_object_representations_v<GridCase>);

class ValueTableProperty : public ::testing::TestWithParam<GridCase> {
 protected:
  void SetUp() override {
    const auto [max_p, max_l, c] = GetParam();
    table_ = std::make_unique<ValueTable>(solve_reference(max_p, max_l, Params{c}));
  }
  std::unique_ptr<ValueTable> table_;
};

TEST_P(ValueTableProperty, LevelZeroIsPositiveSubtraction) {
  // Prop 4.1(d): W(0)[U] = U − c (and the optimum is the single period U).
  const auto [max_p, max_l, c] = GetParam();
  for (Ticks l = 0; l <= max_l; ++l) {
    EXPECT_EQ(table_->value(0, l), positive_sub(l, c));
  }
}

TEST_P(ValueTableProperty, NonDecreasingInLifespan) {
  // Prop 4.1(a).
  const auto [max_p, max_l, c] = GetParam();
  for (int p = 0; p <= max_p; ++p) {
    for (Ticks l = 1; l <= max_l; ++l) {
      EXPECT_GE(table_->value(p, l), table_->value(p, l - 1))
          << "p=" << p << " l=" << l;
    }
  }
}

TEST_P(ValueTableProperty, OneLipschitzInLifespan) {
  // Work gained per extra tick of lifespan is at most one tick — the
  // structural fact behind the fast solver's crossover argument.
  const auto [max_p, max_l, c] = GetParam();
  for (int p = 0; p <= max_p; ++p) {
    for (Ticks l = 1; l <= max_l; ++l) {
      EXPECT_LE(table_->value(p, l) - table_->value(p, l - 1), 1)
          << "p=" << p << " l=" << l;
    }
  }
}

TEST_P(ValueTableProperty, NonIncreasingInInterrupts) {
  // Prop 4.1(b).
  const auto [max_p, max_l, c] = GetParam();
  for (int p = 1; p <= max_p; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      EXPECT_LE(table_->value(p, l), table_->value(p - 1, l))
          << "p=" << p << " l=" << l;
    }
  }
}

TEST_P(ValueTableProperty, ZeroWorkThreshold) {
  // Prop 4.1(c): W(p)[U] = 0 whenever U <= (p+1)c...
  const auto [max_p, max_l, c] = GetParam();
  for (int p = 0; p <= max_p; ++p) {
    const Ticks threshold = bounds::zero_work_threshold(p, c);
    for (Ticks l = 0; l <= std::min(threshold, max_l); ++l) {
      EXPECT_EQ(table_->value(p, l), 0) << "p=" << p << " l=" << l;
    }
    // ... and strictly positive once every one of the p+1 forced periods can
    // exceed c by a tick.
    const Ticks productive = (static_cast<Ticks>(p) + 1) * (c + 1);
    if (productive <= max_l) {
      EXPECT_GT(table_->value(p, productive), 0) << "p=" << p;
    }
  }
}

TEST_P(ValueTableProperty, WorkNeverExceedsLifespanMinusSetup) {
  const auto [max_p, max_l, c] = GetParam();
  for (int p = 0; p <= max_p; ++p) {
    for (Ticks l = 0; l <= max_l; ++l) {
      EXPECT_LE(table_->value(p, l), positive_sub(l, c));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, ValueTableProperty,
                         ::testing::Values(GridCase{3, 300, 8}, GridCase{2, 500, 16},
                                           GridCase{4, 200, 4}, GridCase{1, 800, 32},
                                           GridCase{5, 150, 2}));

TEST(ValueTable, AccessorsAndBounds) {
  const auto table = solve_reference(2, 100, Params{8});
  EXPECT_EQ(table.max_interrupts(), 2);
  EXPECT_EQ(table.max_lifespan(), 100);
  EXPECT_EQ(table.params().c, 8);
  EXPECT_EQ(table.slab().size(), 3u * 101u);
  EXPECT_THROW(table.value(3, 50), std::out_of_range);
  EXPECT_THROW(table.value(0, 101), std::out_of_range);
  EXPECT_THROW(table.value(-1, 0), std::out_of_range);
  EXPECT_THROW(table.reader(5), std::out_of_range);
  EXPECT_THROW(table.reader(-1), std::out_of_range);
}

TEST(ValueTable, RejectsInvalidConstruction) {
  EXPECT_THROW(ValueTable(-1, 10, Params{8}), std::invalid_argument);
  EXPECT_THROW(ValueTable(1, -1, Params{8}), std::invalid_argument);
  EXPECT_THROW(ValueTable(1, 10, Params{0}), std::invalid_argument);
  EXPECT_THROW(ValueTable::storage_bytes(-1, 20, Params{4}), std::invalid_argument);
  EXPECT_THROW(ValueTable::storage_bytes(1, 20, Params{0}), std::invalid_argument);
}

TEST(ValueTable, HandComputedTinyInstance) {
  // c=2, p=1. V_1(L) = max_t min((t⊖2)+V_1(L−t), L−t⊖2).
  // V_1(6): split 3+3: adversary kills one 3 → residual 3 run long = 1;
  // no-interrupt = 1+1 = 2 → min 1. Check the solver agrees.
  const auto table = solve_reference(1, 12, Params{2});
  EXPECT_EQ(table.value(1, 6), 1);
  // V_1(4) = 0 (threshold (p+1)c = 4).
  EXPECT_EQ(table.value(1, 4), 0);
  EXPECT_GT(table.value(1, 6), table.value(1, 5));
}

TEST(ValueTable, FreshLevelsHaveNoFlatsUntilAssigned) {
  // Before a level is assigned it has no flats, W(p)[L] = L, across word
  // boundaries and at a lifespan that ends mid-word; assigning one level
  // leaves the others alone.
  for (const Ticks n : {Ticks{0}, Ticks{1}, Ticks{31}, Ticks{32}, Ticks{33}, Ticks{100}}) {
    ValueTable table(2, n, Params{3});
    table.assign_level(1, std::vector<Ticks>(static_cast<std::size_t>(n) + 1, 0));
    for (Ticks l = 0; l <= n; ++l) {
      ASSERT_EQ(table.value(0, l), l) << "n=" << n;
      ASSERT_EQ(table.value(1, l), 0) << "n=" << n;
      ASSERT_EQ(table.value(2, l), l) << "n=" << n;
    }
  }
}

TEST(ValueTable, AssignedSlabReadsLikeTheSolvedTable) {
  // The store's load path: a table assigned level by level from another
  // table's dense slab reads identically and costs the same bytes.
  const auto owner = solve_reference(2, 60, Params{8});
  const std::vector<Ticks> slab = owner.slab();
  ValueTable copy(2, 60, Params{8});
  for (int p = 0; p <= 2; ++p) {
    copy.assign_level(p, std::span<const Ticks>(slab).subspan(
                             static_cast<std::size_t>(p) * 61, 61));
  }
  EXPECT_EQ(copy.bytes(), owner.bytes());
  EXPECT_EQ(copy.bytes(), ValueTable::storage_bytes(2, 60, Params{8}));
  EXPECT_EQ(copy.slab(), slab);
  for (int p = 0; p <= 2; ++p) {
    for (Ticks l = 0; l <= 60; ++l) {
      ASSERT_EQ(copy.value(p, l), owner.value(p, l));
    }
  }
  EXPECT_THROW(copy.value(3, 0), std::out_of_range);  // bounds still apply
}

TEST(ValueTable, AssignLevelRejectsLengthMismatch) {
  ValueTable table(1, 20, Params{4});
  EXPECT_THROW(table.assign_level(0, std::vector<Ticks>(20, 0)), std::invalid_argument);
  EXPECT_THROW(table.assign_level(0, std::vector<Ticks>(22, 0)), std::invalid_argument);
  EXPECT_THROW(table.assign_level(0, std::vector<Ticks>{}), std::invalid_argument);
  EXPECT_THROW(table.assign_level(2, std::vector<Ticks>(21, 0)), std::out_of_range);
  EXPECT_THROW(table.assign_level(-1, std::vector<Ticks>(21, 0)), std::out_of_range);
}

TEST(ValueTable, ViewRejectsInvalidParamsAndNegativeLevels) {
  // Reading a dense slab into a table (the store's load path) and reading a
  // level through its view both refuse invalid params and negative levels.
  EXPECT_THROW(ValueTable::storage_bytes(-1, 20, Params{4}), std::invalid_argument);
  EXPECT_THROW(ValueTable::storage_bytes(1, 20, Params{0}), std::invalid_argument);
  EXPECT_THROW(ValueTable(-1, 20, Params{4}), std::invalid_argument);
  EXPECT_THROW(ValueTable(1, 20, Params{0}), std::invalid_argument);
  // An empty slab matches no dimensions: even (0, 0) needs one entry.
  ValueTable tiny(0, 0, Params{4});
  EXPECT_THROW(tiny.assign_level(0, std::vector<Ticks>{}), std::invalid_argument);
  EXPECT_NO_THROW(tiny.assign_level(0, std::vector<Ticks>{0}));
  EXPECT_EQ(tiny.value(0, 0), 0);
  EXPECT_THROW(tiny.assign_level(-1, std::vector<Ticks>{0}), std::out_of_range);
  EXPECT_THROW(tiny.reader(-1), std::out_of_range);
  EXPECT_THROW(tiny.value(-1, 0), std::out_of_range);
}

TEST(ValueTable, AssignLevelRejectsIllegalLevels) {
  // A legal level starts at 0 and steps by 0 or 1; anything else is not a
  // W level and cannot be held as flats.
  ValueTable table(0, 6, Params{1});
  EXPECT_NO_THROW(table.assign_level(0, std::vector<Ticks>{0, 0, 1, 2, 2, 3, 4}));
  EXPECT_EQ(table.value(0, 6), 4);
  EXPECT_THROW(table.assign_level(0, std::vector<Ticks>{1, 1, 2, 3, 3, 4, 5}),
               std::invalid_argument);
  EXPECT_THROW(table.assign_level(0, std::vector<Ticks>{0, 2, 3, 4, 5, 6, 7}),
               std::invalid_argument);
  EXPECT_THROW(table.assign_level(0, std::vector<Ticks>{0, 1, 0, 1, 2, 3, 4}),
               std::invalid_argument);
  EXPECT_THROW(table.assign_level(0, std::vector<Ticks>{0, 1, 2, 3, 4, 5, -9}),
               std::invalid_argument);
}

TEST(ValueTable, AssignFlatsRejectsWhatIsNotAFlatSet) {
  ValueTable table(1, 40, Params{2});
  EXPECT_NO_THROW(table.assign_flats(1, std::vector<Ticks>{1, 2, 5, 31, 32, 40}));
  EXPECT_EQ(table.value(1, 40), 40 - 6);
  EXPECT_EQ(table.value(1, 31), 31 - 4);
  EXPECT_EQ(table.value(1, 30), 30 - 3);
  EXPECT_THROW(table.assign_flats(1, std::vector<Ticks>{0, 3}), std::invalid_argument);
  EXPECT_THROW(table.assign_flats(1, std::vector<Ticks>{3, 3}), std::invalid_argument);
  EXPECT_THROW(table.assign_flats(1, std::vector<Ticks>{4, 3}), std::invalid_argument);
  EXPECT_THROW(table.assign_flats(1, std::vector<Ticks>{1, 41}), std::invalid_argument);
  EXPECT_THROW(table.assign_flats(2, std::vector<Ticks>{1}), std::out_of_range);
}

TEST(ValueTable, DimensionCheckAllocatesNothing) {
  // Every rank a table stores is at most its max_lifespan, held in a u32,
  // so the largest lifespan accepted is the largest u32 and the next one is
  // refused before anything is allocated. storage_bytes runs the same check
  // the constructor does without allocating, so this test builds no large
  // table.
  static_assert(ValueTable::kMaxLifespan == std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(ValueTable::storage_bytes(0, ValueTable::kMaxLifespan, Params{4}),
            ((std::size_t{1} << 27)) * sizeof(std::uint64_t));
  EXPECT_EQ(ValueTable::storage_bytes(6, 131072, Params{4}), 7u * 4097u * 8u);
  EXPECT_THROW(ValueTable::storage_bytes(0, ValueTable::kMaxLifespan + 1, Params{4}),
               std::invalid_argument);
  EXPECT_THROW(ValueTable(1, ValueTable::kMaxLifespan + 1, Params{4}),
               std::invalid_argument);
  EXPECT_THROW(ValueTable(std::numeric_limits<int>::max(),
                          std::numeric_limits<Ticks>::max(), Params{4}),
               std::invalid_argument);
}

TEST(ValueTable, OwningConstructorSharesTheDimensionCheck) {
  // The constructor rejects what storage_bytes rejects, before allocating.
  for (const auto& [max_p, max_l] : std::vector<std::pair<int, Ticks>>{
           {-1, 10}, {1, -1}, {0, ValueTable::kMaxLifespan + 1},
           {std::numeric_limits<int>::max(), std::numeric_limits<Ticks>::max()}}) {
    EXPECT_THROW(ValueTable::storage_bytes(max_p, max_l, Params{4}),
                 std::invalid_argument);
    EXPECT_THROW(ValueTable(max_p, max_l, Params{4}), std::invalid_argument);
  }
}

TEST(ValueTable, AssignedTableOutlivesItsSource) {
  // A table owns its storage: the dense buffer it was assigned from can go,
  // and copies of the table read the same values.
  const auto owner = solve_reference(1, 30, Params{4});
  auto backing = std::make_unique<std::vector<Ticks>>(owner.slab());
  ValueTable table(1, 30, Params{4});
  for (int p = 0; p <= 1; ++p) {
    table.assign_level(p, std::span<const Ticks>(*backing).subspan(
                              static_cast<std::size_t>(p) * 31, 31));
  }
  const Ticks expect = owner.value(1, 30);
  backing.reset();
  const ValueTable copy = table;
  EXPECT_EQ(table.value(1, 30), expect);
  EXPECT_EQ(copy.value(1, 30), expect);
}

TEST(ValueTable, P1AgreesWithDirectMinimaxScan) {
  // Independent O(N^2) check of level 1 against a from-scratch formula:
  // V_1(L) = max_t min( (t⊖c) + V_1(L−t), (L−t) ⊖ c ) computed here without
  // reusing the solver's code path (guards against shared-bug blindness).
  const Ticks c = 8, max_l = 400;
  const auto table = solve_reference(1, max_l, Params{c});
  std::vector<Ticks> v1(static_cast<std::size_t>(max_l) + 1, 0);
  for (Ticks l = 1; l <= max_l; ++l) {
    Ticks best = 0;
    for (Ticks t = 1; t <= l; ++t) {
      const Ticks a = positive_sub(t, c) + v1[static_cast<std::size_t>(l - t)];
      const Ticks b = positive_sub(l - t, c);
      best = std::max(best, std::min(a, b));
    }
    v1[static_cast<std::size_t>(l)] = best;
    ASSERT_EQ(table.value(1, l), best) << "l=" << l;
  }
}

TEST(ValueTable, Popcount32MatchesStdPopcount) {
  // The rank reads' bit count, which the popcnt clones compile to one
  // instruction: every 16-bit pattern in the low half, the high half and
  // both, then random words.
  for (std::uint32_t v = 0; v <= 0xFFFFu; ++v) {
    for (const std::uint32_t x : {v, v << 16, v | (v << 16), v | (~v << 16)}) {
      ASSERT_EQ(popcount32(x), static_cast<std::uint32_t>(std::popcount(x))) << x;
    }
  }
  util::Rng rng(0xB17C0);
  for (int i = 0; i < 100000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next());
    ASSERT_EQ(popcount32(x), static_cast<std::uint32_t>(std::popcount(x))) << x;
  }
  static_assert(popcount32(0xFFFFFFFFu) == 32 && popcount32(0) == 0);
}

}  // namespace
}  // namespace nowsched::solver
