// Properties of the exact W(p)[L] tables — Prop 4.1 and the structural facts
// the fast solver relies on, checked on reference-solver output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/bounds.h"
#include "solver/reference_solver.h"

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
  EXPECT_EQ(table.level(0).size(), 101u);
  EXPECT_THROW(table.value(3, 50), std::out_of_range);
  EXPECT_THROW(table.value(0, 101), std::out_of_range);
  EXPECT_THROW(table.value(-1, 0), std::out_of_range);
  EXPECT_THROW(table.level(5), std::out_of_range);
}

TEST(ValueTable, RejectsInvalidConstruction) {
  EXPECT_THROW(ValueTable(-1, 10, Params{8}), std::invalid_argument);
  EXPECT_THROW(ValueTable(1, -1, Params{8}), std::invalid_argument);
  EXPECT_THROW(ValueTable(1, 10, Params{0}), std::invalid_argument);
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

TEST(ValueTable, ViewReadsExternalSlabWithoutCopying) {
  // The mapped-store read path: a view over an externally owned slab must
  // be indistinguishable from the owning table on every read accessor.
  const auto owner = solve_reference(2, 60, Params{8});
  const auto slab = owner.slab();
  const ValueTable view =
      ValueTable::view(2, 60, Params{8}, slab, nullptr);
  EXPECT_FALSE(view.owns_storage());
  EXPECT_TRUE(owner.owns_storage());
  EXPECT_EQ(view.bytes(), owner.bytes());
  EXPECT_EQ(view.slab().data(), slab.data());  // zero-copy: same memory
  for (int p = 0; p <= 2; ++p) {
    for (Ticks l = 0; l <= 60; ++l) {
      ASSERT_EQ(view.value(p, l), owner.value(p, l));
    }
  }
  EXPECT_THROW(view.value(3, 0), std::out_of_range);  // bounds still apply
}

TEST(ValueTable, ViewIsImmutableByConstruction) {
  const auto owner = solve_reference(1, 20, Params{4});
  ValueTable view = ValueTable::view(1, 20, Params{4}, owner.slab(), nullptr);
  EXPECT_THROW(view.mutable_level(0), std::logic_error);
}

TEST(ValueTable, ViewRejectsDimensionMismatch) {
  const auto owner = solve_reference(1, 20, Params{4});
  EXPECT_THROW(ValueTable::view(2, 20, Params{4}, owner.slab(), nullptr),
               std::invalid_argument);
  EXPECT_THROW(ValueTable::view(1, 21, Params{4}, owner.slab(), nullptr),
               std::invalid_argument);
  EXPECT_THROW(ValueTable::view(1, -1, Params{4}, owner.slab(), nullptr),
               std::invalid_argument);
}

TEST(ValueTable, ViewChecksDimensionsWithoutAllocatingThem) {
  // Dimensions implying a slab far larger than memory are a size mismatch,
  // not an allocation: view never materializes a table of its dimensions.
  const auto owner = solve_reference(1, 20, Params{4});
  EXPECT_THROW(ValueTable::view(1 << 20, Ticks{1} << 40, Params{4}, owner.slab(),
                                nullptr),
               std::invalid_argument);
  // Dimensions whose entry count overflows size_t are rejected outright.
  EXPECT_THROW(ValueTable::view(std::numeric_limits<int>::max(),
                                std::numeric_limits<Ticks>::max(), Params{4},
                                owner.slab(), nullptr),
               std::invalid_argument);
}

TEST(ValueTable, OwningConstructorSharesTheDimensionCheck) {
  // The owning constructors reject what view rejects, before allocating:
  // an entry count that overflows size_t is invalid_argument, not bad_alloc.
  EXPECT_THROW(ValueTable(std::numeric_limits<int>::max(),
                          std::numeric_limits<Ticks>::max(), Params{4}),
               std::invalid_argument);
  EXPECT_THROW(ValueTable(std::numeric_limits<int>::max(),
                          std::numeric_limits<Ticks>::max(), Params{4},
                          ValueTable::kUninitialized),
               std::invalid_argument);
  EXPECT_THROW(ValueTable(-1, 10, Params{8}, ValueTable::kUninitialized),
               std::invalid_argument);
  EXPECT_THROW(ValueTable(1, 10, Params{0}, ValueTable::kUninitialized),
               std::invalid_argument);
}

TEST(ValueTable, ViewRejectsInvalidParamsAndNegativeLevels) {
  const auto owner = solve_reference(1, 20, Params{4});
  EXPECT_THROW(ValueTable::view(-1, 20, Params{4}, owner.slab(), nullptr),
               std::invalid_argument);
  EXPECT_THROW(ValueTable::view(1, 20, Params{0}, owner.slab(), nullptr),
               std::invalid_argument);
  // An empty slab matches no dimensions: even (0, 0) needs one entry.
  EXPECT_THROW(ValueTable::view(0, 0, Params{4}, {}, nullptr), std::invalid_argument);
}

TEST(ValueTable, UninitializedTableHasTheOwningLayout) {
  // kUninitialized skips only the zero pass: dimensions, byte size and the
  // level-major layout of adjacent, disjoint level spans are the owning
  // table's.
  ValueTable table(3, 50, Params{8}, ValueTable::kUninitialized);
  const ValueTable zeroed(3, 50, Params{8});
  EXPECT_TRUE(table.owns_storage());
  EXPECT_EQ(table.max_interrupts(), 3);
  EXPECT_EQ(table.max_lifespan(), 50);
  EXPECT_EQ(table.bytes(), zeroed.bytes());
  EXPECT_EQ(table.slab().size(), 4u * 51u);
  for (int p = 0; p <= 3; ++p) {
    const auto level = table.mutable_level(p);
    ASSERT_EQ(level.size(), 51u);
    EXPECT_EQ(level.data(), table.slab().data() + static_cast<std::ptrdiff_t>(p) * 51);
    for (Ticks l = 0; l <= 50; ++l) level[static_cast<std::size_t>(l)] = 100 * p + l;
  }
  for (int p = 0; p <= 3; ++p) {
    for (Ticks l = 0; l <= 50; ++l) ASSERT_EQ(table.value(p, l), 100 * p + l);
  }
  EXPECT_TRUE(std::all_of(zeroed.slab().begin(), zeroed.slab().end(),
                          [](Ticks v) { return v == 0; }));
}

TEST(ValueTable, ViewKeepaliveOutlivesTheSource) {
  // The keepalive is the view's ONLY lifetime anchor: hand it a buffer
  // owned by a shared_ptr, drop every other reference, and the view (and
  // its copies) must keep reading valid data.
  const auto owner = solve_reference(1, 30, Params{4});
  auto backing = std::make_shared<std::vector<Ticks>>(
      owner.slab().begin(), owner.slab().end());
  ValueTable view = ValueTable::view(
      1, 30, Params{4}, std::span<const Ticks>(*backing), backing);
  const Ticks expect = owner.value(1, 30);
  backing.reset();                  // view's keepalive is now the only owner
  ValueTable copy = view;           // copies share the keepalive
  EXPECT_EQ(view.value(1, 30), expect);
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

}  // namespace
}  // namespace nowsched::solver
