#include "solver/value_table.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace nowsched::solver {

namespace {

constexpr std::uint64_t kFlatHalf = 0xFFFFFFFF;

/// What a flat at lifespan L adds to its word: its bit, and one to the
/// word's high half, which counts the word's flats until finish_ranks turns
/// the counts into ranks.
constexpr std::uint64_t flat_in_word(std::uint64_t l) noexcept {
  return (std::uint64_t{1} << 32) + (std::uint64_t{1} << (l & 31));
}

}  // namespace

std::size_t ValueTable::storage_bytes(int max_p, Ticks max_lifespan,
                                      const Params& params) {
  require_valid(params);
  if (max_p < 0) throw std::invalid_argument("ValueTable: max_p must be >= 0");
  if (max_lifespan < 0 || max_lifespan > kMaxLifespan) {
    throw std::invalid_argument("ValueTable: max_lifespan outside [0, " +
                                std::to_string(kMaxLifespan) + "]");
  }
  const std::size_t levels = static_cast<std::size_t>(max_p) + 1;
  const std::size_t words = static_cast<std::size_t>(max_lifespan >> 5) + 1;
  if (words > std::numeric_limits<std::size_t>::max() / sizeof(std::uint64_t) / levels) {
    throw std::invalid_argument("ValueTable: dimensions overflow size_t");
  }
  return levels * words * sizeof(std::uint64_t);
}

ValueTable::ValueTable(int max_p, Ticks max_lifespan, const Params& params)
    : max_p_(max_p),
      max_l_(max_lifespan),
      params_(params),
      words_(storage_bytes(max_p, max_lifespan, params) / sizeof(std::uint64_t), 0) {}

std::uint64_t* ValueTable::level_words(int p) {
  if (p < 0 || p > max_p_) throw std::out_of_range("ValueTable: p outside [0, max_p]");
  return words_.data() + static_cast<std::size_t>(p) * words_per_level();
}

void ValueTable::finish_ranks(std::uint64_t* level) const noexcept {
  const std::size_t words = words_per_level();
  std::uint64_t rank = 0;
  for (std::size_t b = 0; b < words; ++b) {
    const std::uint64_t in_word = level[b] >> 32;
    level[b] = (level[b] & kFlatHalf) | (rank << 32);
    rank += in_word;
  }
}

void ValueTable::assign_flats(int p, std::span<const Ticks> flats) {
  std::uint64_t* const level = level_words(p);
  std::fill(level, level + words_per_level(), std::uint64_t{0});
  // One pass over the flats. They arrive in order, so each word's content
  // builds up in a register and is stored whole after every flat: no load
  // waits on the previous flat's store to the same word. An out-of-range
  // flat is clamped into the level before it is stored and fails the check
  // after the loop.
  const auto max_l = static_cast<std::uint64_t>(max_l_);
  std::uint64_t word = 0;
  std::size_t at = 0;
  Ticks last = 0;
  bool rising = true;
  for (const Ticks flat : flats) {
    rising &= flat > last;
    last = flat;
    const std::uint64_t l = std::min(static_cast<std::uint64_t>(flat), max_l);
    word = ((l >> 5) == at ? word : 0) + flat_in_word(l);
    at = static_cast<std::size_t>(l >> 5);
    level[at] = word;
  }
  if (!rising || last > max_l_) {
    throw std::invalid_argument(
        "ValueTable::assign_flats: flats must rise strictly within [1, max_lifespan]");
  }
  finish_ranks(level);
}

void ValueTable::assign_level(int p, std::span<const Ticks> values) {
  std::uint64_t* const level = level_words(p);
  if (values.size() != static_cast<std::size_t>(max_l_) + 1) {
    throw std::invalid_argument("ValueTable::assign_level: level has " +
                                std::to_string(values.size()) + " values, table needs " +
                                std::to_string(max_l_ + 1));
  }
  if (values[0] != 0) {
    throw std::invalid_argument("ValueTable::assign_level: W(p)[0] must be 0");
  }
  // Branch-free, one word at a time: a flat sets its bit and counts itself
  // in the word's high half, and any step outside {0, 1} (negative ones
  // wrap to huge unsigned values) marks the level illegal.
  std::uint64_t illegal = 0;
  const std::size_t cells = values.size();
  for (std::size_t b = 0; b < words_per_level(); ++b) {
    std::uint64_t word = 0;
    for (std::size_t l = std::max<std::size_t>(32 * b, 1); l < std::min(32 * b + 32, cells);
         ++l) {
      const auto step = static_cast<std::uint64_t>(values[l] - values[l - 1]);
      word += static_cast<std::uint64_t>(step == 0) * flat_in_word(l);
      illegal |= static_cast<std::uint64_t>(step > 1);
    }
    level[b] = word;
  }
  if (illegal != 0) {
    throw std::invalid_argument(
        "ValueTable::assign_level: a W level steps by 0 or 1 at every lifespan");
  }
  finish_ranks(level);
}

ValueTable::LevelReader ValueTable::reader(int p) const {
  if (p < 0 || p > max_p_) throw std::out_of_range("ValueTable::reader: bad p");
  return LevelReader(words_.data() + static_cast<std::size_t>(p) * words_per_level());
}

Ticks ValueTable::value(int p, Ticks lifespan) const {
  if (p < 0 || p > max_p_ || lifespan < 0 || lifespan > max_l_) {
    throw std::out_of_range("ValueTable::value: (p, L) outside the table");
  }
  return reader(p)[lifespan];
}

std::vector<Ticks> ValueTable::slab() const {
  const std::size_t stride = static_cast<std::size_t>(max_l_) + 1;
  std::vector<Ticks> dense((static_cast<std::size_t>(max_p_) + 1) * stride);
  for (int p = 0; p <= max_p_; ++p) {
    const std::uint64_t* const level =
        words_.data() + static_cast<std::size_t>(p) * words_per_level();
    Ticks* const out = dense.data() + static_cast<std::size_t>(p) * stride;
    Ticks v = 0;
    out[0] = 0;
    for (std::size_t l = 1; l < stride; ++l) {
      v += 1 - static_cast<Ticks>((level[l >> 5] >> (l & 31)) & 1);
      out[l] = v;
    }
  }
  return dense;
}

}  // namespace nowsched::solver
