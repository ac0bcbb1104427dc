// W(p)[L] value tables — the paper's optimal guaranteed work, computed
// exactly on the integer tick grid.
//
// Game semantics (§2.2, sequentialized): with residual lifespan L and p
// potential interrupts, A picks the next period length t; the adversary
// either lets it complete (A banks t ⊖ c, continues with (p, L−t)) or kills
// it at its last instant (A banks nothing, continues with (p−1, L−t)).
// Committing a whole episode-schedule is equivalent: the tail of an episode
// is exactly A's continuation in the no-interrupt branch, and no other
// information arrives at period boundaries.
//
//   V_0(L) = L ⊖ c                                   (Prop 4.1(d))
//   V_p(L) = max_{1<=t<=L} min( (t ⊖ c) + V_p(L−t),  V_{p−1}(L−t) )
//
// Values are exact integers; `solve_reference` is the O(P·N²) oracle and
// `solve_fast` the O(P·N) production solver (they agree bit-for-bit;
// see tests/solver_cross_check_test.cpp).
//
// Storage is one contiguous slab of (max_p+1) × (max_lifespan+1) Ticks in
// level-major order, so level(p) / mutable_level(p) are zero-copy spans into
// adjacent memory — the level fill walks level p and level p−1 together and
// wants both streams prefetch-friendly.
//
// Two storage modes share one read interface:
//   * OWNING  — the constructor allocates the slab; the solvers fill it via
//     mutable_level. This is every freshly solved table.
//   * VIEW    — ValueTable::view wraps an externally owned, already-final
//     slab (in practice: the payload of a memory-mapped store file, see
//     solver/table_store.h) without copying a byte. The view holds a
//     type-erased keepalive so the backing storage outlives every reader;
//     mutable_level on a view throws std::logic_error — a mapped table is
//     immutable BY CONSTRUCTION, which is what makes "mapped and solved
//     tables are bit-identical" a provable property rather than a
//     convention.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.h"

namespace nowsched::solver {

/// Alignment of every owning slab: one cache line, so a table never shares
/// its first line with a neighbouring allocation that another thread may be
/// writing. (Mapped-store views are page-aligned by mmap, which is
/// stricter.)
inline constexpr std::size_t kSlabAlignment = 64;

/// Minimal aligned allocator for the slab vector. Stateless: all instances
/// are interchangeable, so vector moves/swaps behave exactly as with
/// std::allocator.
template <class T>
struct SlabAllocator {
  using value_type = T;
  SlabAllocator() = default;
  template <class U>
  SlabAllocator(const SlabAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kSlabAlignment}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kSlabAlignment});
  }
  /// Default-initializes rather than value-initializes, so resize() leaves
  /// cells unwritten (what ValueTable's kUninitialized constructor relies
  /// on); construct(p, args...) — assign, copies — behaves as usual.
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  template <class U>
  friend bool operator==(const SlabAllocator&, const SlabAllocator<U>&) noexcept {
    return true;
  }
};

/// The owning storage type for a level-major table slab.
using TableSlab = std::vector<Ticks, SlabAllocator<Ticks>>;

class ValueTable {
 public:
  /// A zero-initialized owning table; filled by the solvers.
  ValueTable(int max_p, Ticks max_lifespan, const Params& params);

  struct UninitializedTag {};
  static constexpr UninitializedTag kUninitialized{};

  /// An owning table whose cells hold indeterminate values until written.
  /// For a solver that writes every cell before anything reads one
  /// (solve_fast): it saves the zero pass over the whole slab.
  ValueTable(int max_p, Ticks max_lifespan, const Params& params,
             UninitializedTag);

  /// A non-owning, read-only table over an externally owned slab. `slab`
  /// must hold exactly (max_p+1) × (max_lifespan+1) entries in level-major
  /// order and must stay valid for as long as `keepalive` is held (the view
  /// and every copy of it hold `keepalive` for their whole lifetime).
  /// Throws std::invalid_argument on a dimension/size mismatch.
  static ValueTable view(int max_p, Ticks max_lifespan, const Params& params,
                         std::span<const Ticks> slab,
                         std::shared_ptr<const void> keepalive);

  /// W(p)[L]; requires 0 <= p <= max_p and 0 <= L <= max_lifespan.
  Ticks value(int p, Ticks lifespan) const;

  /// The whole level p as a span over L = 0..max_lifespan.
  std::span<const Ticks> level(int p) const;

  int max_interrupts() const noexcept { return max_p_; }
  Ticks max_lifespan() const noexcept { return max_l_; }
  const Params& params() const noexcept { return params_; }

  /// True when this table owns its slab (and mutable_level is usable);
  /// false for views over external storage.
  bool owns_storage() const noexcept { return view_data_ == nullptr; }

  /// The full level-major slab — what the table store serializes and what
  /// the bit-identity tests compare. Valid for owning tables and views.
  std::span<const Ticks> slab() const noexcept { return {data(), entries()}; }

  /// Slab size in bytes — what a resident table costs a cache (the
  /// (max_p+1) × (max_lifespan+1) value storage; the struct header is
  /// negligible against any real table). Identical for an owning table and
  /// a view of it: byte budgets meter logical table size, not which tier's
  /// memory currently backs it.
  std::size_t bytes() const noexcept { return entries() * sizeof(Ticks); }

  /// Mutable level access for the solvers. Owning tables only: a view is
  /// immutable by construction and throws std::logic_error.
  ///
  /// Distinct levels are disjoint element ranges of one slab. The spans are
  /// stable: no member function invalidates them after construction.
  std::span<Ticks> mutable_level(int p);

 private:
  /// The view constructor: no slab of its own, `view_data` is the base.
  ValueTable(int max_p, Ticks max_lifespan, const Params& params,
             const Ticks* view_data, std::shared_ptr<const void> keepalive);

  std::size_t stride() const noexcept { return static_cast<std::size_t>(max_l_) + 1; }
  std::size_t entries() const noexcept {
    return (static_cast<std::size_t>(max_p_) + 1) * stride();
  }
  /// The slab base, whichever storage mode backs it. Owning tables resolve
  /// through owned_ on every call (not a cached pointer), so copies and
  /// moves need no special member functions to stay correct.
  const Ticks* data() const noexcept {
    return view_data_ != nullptr ? view_data_ : owned_.data();
  }

  int max_p_;
  Ticks max_l_;
  Params params_;
  TableSlab owned_;                  // level-major: data()[p * stride() + L],
                                     // kSlabAlignment-aligned base
  const Ticks* view_data_ = nullptr; // non-null IFF this is a view
  std::shared_ptr<const void> keepalive_;  // pins a view's backing storage
};

}  // namespace nowsched::solver
