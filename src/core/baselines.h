// Baseline policies the paper's introduction argues against, plus the naive
// strategies of the related work (§1.3): auctioning off "large identical
// chunks" [Atallah et al. 1992] is modelled by FixedChunkPolicy.
#pragma once

#include "core/policy.h"

namespace nowsched {

/// One long period spanning the whole residual lifespan. Optimal iff p = 0
/// (Prop 4.1(d)); guarantees zero work whenever an interrupt may occur.
class SingleBlockPolicy final : public SchedulingPolicy {
 public:
  std::string name() const override { return "single-block"; }
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override;
};

/// Identical chunks of a fixed size (the last chunk takes the remainder).
/// Chunk size is expressed as a multiple of c (the only scale in the model).
class FixedChunkPolicy final : public SchedulingPolicy {
 public:
  explicit FixedChunkPolicy(double chunk_in_c);
  std::string name() const override;
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override;

 private:
  double chunk_in_c_;
};

/// Geometric back-off: first period residual/divisor, then shrink by the
/// divisor each period, never below `floor_in_c * c`; the tail is merged
/// into one final period. A common folk strategy for uncertain deadlines.
class GeometricPolicy final : public SchedulingPolicy {
 public:
  explicit GeometricPolicy(double divisor = 2.0, double floor_in_c = 2.0);
  std::string name() const override;
  EpisodeSchedule episode(Ticks residual, int interrupts_left,
                          const Params& params) const override;

 private:
  double divisor_;
  double floor_in_c_;
};

}  // namespace nowsched
