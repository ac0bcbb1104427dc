#include "solver/value_table.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace nowsched::solver {

namespace {

/// Validates table dimensions and returns the slab's entry count,
/// (max_p + 1) × (max_lifespan + 1), without allocating anything.
std::size_t checked_entries(int max_p, Ticks max_lifespan, const Params& params) {
  require_valid(params);
  if (max_p < 0) throw std::invalid_argument("ValueTable: max_p must be >= 0");
  if (max_lifespan < 0) throw std::invalid_argument("ValueTable: max_lifespan >= 0");
  const std::size_t levels = static_cast<std::size_t>(max_p) + 1;
  const std::size_t stride = static_cast<std::size_t>(max_lifespan) + 1;
  if (stride > std::numeric_limits<std::size_t>::max() / levels) {
    throw std::invalid_argument("ValueTable: dimensions overflow size_t");
  }
  return levels * stride;
}

}  // namespace

ValueTable::ValueTable(int max_p, Ticks max_lifespan, const Params& params)
    : ValueTable(max_p, max_lifespan, params, kUninitialized) {
  std::fill(owned_.begin(), owned_.end(), Ticks{0});
}

ValueTable::ValueTable(int max_p, Ticks max_lifespan, const Params& params,
                       UninitializedTag)
    : max_p_(max_p), max_l_(max_lifespan), params_(params) {
  owned_.resize(checked_entries(max_p, max_lifespan, params));
}

ValueTable::ValueTable(int max_p, Ticks max_lifespan, const Params& params,
                       const Ticks* view_data, std::shared_ptr<const void> keepalive)
    : max_p_(max_p),
      max_l_(max_lifespan),
      params_(params),
      view_data_(view_data),
      keepalive_(std::move(keepalive)) {}

ValueTable ValueTable::view(int max_p, Ticks max_lifespan, const Params& params,
                            std::span<const Ticks> slab,
                            std::shared_ptr<const void> keepalive) {
  const std::size_t entries = checked_entries(max_p, max_lifespan, params);
  if (slab.size() != entries) {
    throw std::invalid_argument(
        "ValueTable::view: slab has " + std::to_string(slab.size()) +
        " entries, dims require " + std::to_string(entries));
  }
  return ValueTable(max_p, max_lifespan, params, slab.data(), std::move(keepalive));
}

Ticks ValueTable::value(int p, Ticks lifespan) const {
  if (p < 0 || p > max_p_ || lifespan < 0 || lifespan > max_l_) {
    throw std::out_of_range("ValueTable::value: (p, L) outside the table");
  }
  return data()[static_cast<std::size_t>(p) * stride() +
                static_cast<std::size_t>(lifespan)];
}

std::span<const Ticks> ValueTable::level(int p) const {
  if (p < 0 || p > max_p_) throw std::out_of_range("ValueTable::level: bad p");
  return {data() + static_cast<std::size_t>(p) * stride(), stride()};
}

std::span<Ticks> ValueTable::mutable_level(int p) {
  if (!owns_storage()) {
    throw std::logic_error(
        "ValueTable::mutable_level: table is a read-only view over external "
        "storage (a mapped store table is immutable by construction)");
  }
  if (p < 0 || p > max_p_) throw std::out_of_range("ValueTable::mutable_level: bad p");
  return {owned_.data() + static_cast<std::size_t>(p) * stride(), stride()};
}

}  // namespace nowsched::solver
