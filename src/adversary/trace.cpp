#include "adversary/trace.h"

#include <stdexcept>

namespace nowsched::adversary {

InterruptTrace::InterruptTrace(std::vector<Ticks> times_abs)
    : times_(std::move(times_abs)) {
  for (std::size_t i = 0; i < times_.size(); ++i) {
    if (times_[i] < 1 || (i > 0 && times_[i] <= times_[i - 1])) {
      throw std::invalid_argument("InterruptTrace: times must be strictly increasing");
    }
  }
}

void InterruptTrace::append(Ticks time_abs) {
  if (time_abs < 1 || (!times_.empty() && time_abs <= times_.back())) {
    throw std::invalid_argument("InterruptTrace::append: non-increasing time");
  }
  times_.push_back(time_abs);
}

std::optional<Ticks> RecordingAdversary::plan_interrupt(const EpisodeSchedule& episode,
                                                        const EpisodeContext& ctx) {
  const auto planned = inner_.plan_interrupt(episode, ctx);
  if (planned) trace_.append(ctx.episode_start + *planned);
  return planned;
}

void RecordingAdversary::reset(std::uint64_t seed) {
  inner_.reset(seed);
  trace_ = InterruptTrace{};
}

}  // namespace nowsched::adversary
