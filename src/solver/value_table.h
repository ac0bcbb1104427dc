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
// `solve_fast` the production solver (they agree bit-for-bit; see
// tests/solver_cross_check_test.cpp).
//
// ## Storage: one flat bitset with a rank directory per level
//
// Every level starts at 0 and steps by 0 or 1 (non-decreasing and
// 1-Lipschitz, Prop 4.1(a)), so it is fixed by its FLATS
//   Z_p = { L >= 1 : W(p)[L] = W(p)[L−1] },
// and W(p)[L] = L − rank_p(L) with rank_p(L) = |Z_p ∩ [1, L]|. A level is
// stored as one 64-bit word per 32 lifespans: the low half holds the flat
// bits of L = 32b .. 32b + 31, the high half the number of flats below 32b.
// A read is one load, one mask and one popcount; a table costs 2 bits per
// cell instead of a dense slab's 64. The rank half is a u32, so a table
// accepts lifespans up to kMaxLifespan, where every rank still fits.
//
// Levels are written once, by assign_flats (the loss-set solver) or
// assign_level (the dense oracles and the table store's loader, which
// compress a dense level and reject one that is not a legal W level).
// Everything else only reads: a published table is a
// shared_ptr<const ValueTable>.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/types.h"

namespace nowsched::solver {

/// Bit count of a 32-bit word without a library call: the portable x86-64
/// baseline has no popcnt instruction, and std::popcount then calls into
/// libgcc, which costs more than this whole sequence. GCC recognises the
/// sequence and emits one popcnt where the target has it, so the two
/// rank-reading kernels get the instruction from NOWSCHED_POPCNT_CLONES.
constexpr std::uint32_t popcount32(std::uint32_t x) noexcept {
  x = x - ((x >> 1) & 0x55555555u);
  x = (x & 0x33333333u) + ((x >> 2) & 0x33333333u);
  x = (x + (x >> 4)) & 0x0F0F0F0Fu;
  return (x * 0x01010101u) >> 24;
}

// The loops that read ranks (the loss-set solve and episode extraction) are
// built twice on x86-64: for the baseline, and with popcnt. The loader
// picks the copy the CPU can run (an ifunc), so the baseline build stays
// portable. The readers they call must inline into both copies, hence
// NOWSCHED_INLINE_INTO_CLONES on those helpers.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NOWSCHED_POPCNT_CLONES [[gnu::target_clones("popcnt", "default")]]
#define NOWSCHED_INLINE_INTO_CLONES [[gnu::always_inline]] inline
#else
#define NOWSCHED_POPCNT_CLONES
#define NOWSCHED_INLINE_INTO_CLONES inline
#endif

class ValueTable {
 public:
  /// The largest max_lifespan a table accepts: every rank it stores is at
  /// most max_lifespan and must fit the u32 rank half of a word.
  static constexpr Ticks kMaxLifespan = std::numeric_limits<std::uint32_t>::max();

  /// Validates dimensions and returns the storage a table of them costs,
  /// without allocating anything: (max_p + 1) levels of
  /// (max_lifespan / 32 + 1) words. Throws std::invalid_argument on invalid
  /// params, max_p < 0, max_lifespan outside [0, kMaxLifespan], or a size
  /// that overflows size_t.
  static std::size_t storage_bytes(int max_p, Ticks max_lifespan, const Params& params);

  /// A table of these dimensions whose levels have no flats yet
  /// (W(p)[L] = L) until the solver assigns each one. Runs the dimension
  /// check of storage_bytes before allocating.
  ValueTable(int max_p, Ticks max_lifespan, const Params& params);

  /// Sets level p from its flats: the lifespans L >= 1 with
  /// W(p)[L] = W(p)[L−1], strictly increasing within [1, max_lifespan].
  /// Throws std::out_of_range for a bad p and std::invalid_argument for a
  /// list that is not such a set; level p then holds unspecified (but
  /// in-bounds) words and the table should be dropped.
  void assign_flats(int p, std::span<const Ticks> flats);

  /// Sets level p from the dense W(p)[0..max_lifespan]. Throws
  /// std::out_of_range for a bad p and std::invalid_argument when `level`
  /// has the wrong length or is not a legal W level (it must start at 0 and
  /// step by 0 or 1); after an illegal level, level p is unspecified as
  /// for assign_flats.
  void assign_level(int p, std::span<const Ticks> level);

  /// Unchecked reads of one level: operator[] requires
  /// 0 <= L <= max_lifespan and does not check it. For inner loops that
  /// validated their range once (solver/extract.cpp); everyone else reads
  /// through value().
  class LevelReader {
   public:
    Ticks operator[](Ticks lifespan) const noexcept {
      const auto l = static_cast<std::uint64_t>(lifespan);
      const std::uint64_t word = words_[l >> 5];
      const auto flats_to_l =
          static_cast<std::uint32_t>(word) & (std::uint32_t{0xFFFFFFFF} >> (31 - (l & 31)));
      return lifespan - static_cast<Ticks>((word >> 32) + popcount32(flats_to_l));
    }

   private:
    friend class ValueTable;
    explicit LevelReader(const std::uint64_t* words) noexcept : words_(words) {}
    const std::uint64_t* words_;
  };

  /// The reader of level p; throws std::out_of_range unless 0 <= p <= max_p.
  LevelReader reader(int p) const;

  /// W(p)[L]; requires 0 <= p <= max_p and 0 <= L <= max_lifespan.
  Ticks value(int p, Ticks lifespan) const;

  int max_interrupts() const noexcept { return max_p_; }
  Ticks max_lifespan() const noexcept { return max_l_; }
  const Params& params() const noexcept { return params_; }

  /// A dense level-major copy of the table, (max_p+1) × (max_lifespan+1)
  /// values, W(p)[L] at index p·(max_lifespan+1) + L. What the table store
  /// writes and what the bit-identity tests compare; it allocates and
  /// writes the whole dense slab on every call.
  std::vector<Ticks> slab() const;

  /// What a resident table costs a cache: its compact storage
  /// (storage_bytes of its dimensions; the struct header is negligible).
  std::size_t bytes() const noexcept { return words_.size() * sizeof(std::uint64_t); }

 private:
  std::size_t words_per_level() const noexcept {
    return static_cast<std::size_t>(max_l_ >> 5) + 1;
  }
  std::uint64_t* level_words(int p);
  /// Turns level p's high halves from per-word flat counts into ranks
  /// (flats below the word).
  void finish_ranks(std::uint64_t* level) const noexcept;

  int max_p_;
  Ticks max_l_;
  Params params_;
  std::vector<std::uint64_t> words_;  // level-major: level p at p·words_per_level()
};

}  // namespace nowsched::solver
