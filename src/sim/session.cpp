#include "sim/session.h"

#include <algorithm>
#include <stdexcept>

namespace nowsched::sim {

SessionActor::SessionActor(const SchedulingPolicy& policy,
                           adversary::Adversary& adversary, Opportunity opportunity,
                           Params params, TaskBag* bag,
                           std::optional<Checkpointing> checkpointing)
    : policy_(policy),
      adversary_(adversary),
      oblivious_(dynamic_cast<adversary::ObliviousAdversary*>(&adversary)),
      opportunity_(opportunity),
      params_(params),
      bag_(bag),
      checkpointing_(checkpointing) {
  require_valid(params_);
  require_valid(opportunity_);
  if (checkpointing_ && !checkpointing_->valid()) {
    throw std::invalid_argument("SessionActor: invalid checkpointing parameters");
  }
}

void SessionActor::start(Ticks now) {
  opportunity_start_ = now;
  residual_ = opportunity_.lifespan;
  interrupts_left_ = opportunity_.max_interrupts;
  if (residual_ == 0) {
    finished_ = true;
    return;
  }
  begin_episode(now);
}

void SessionActor::step() {
  if (!next_event_) throw std::logic_error("SessionActor: step() with no pending event");
  next_event_.reset();
  if (next_is_interrupt_) {
    handle_interrupt();
  } else {
    finish_period();
  }
}

void SessionActor::begin_episode(Ticks now) {
  episode_start_abs_ = now;
  metrics_.episodes += 1;
  current_period_ = 0;
  interrupt_tick_.reset();

  adversary::EpisodeContext ctx;
  ctx.episode_start = episode_start_abs_ - opportunity_start_;
  ctx.residual = residual_;
  ctx.interrupts_left = interrupts_left_;
  ctx.params = params_;
  const auto plan = [this](std::optional<Ticks> planned) {
    if (planned && (*planned < 1 || *planned > residual_)) {
      throw std::logic_error("SessionActor: adversary interrupt outside episode");
    }
    interrupt_tick_ = planned;
  };

  // An oblivious owner plans first, so an interrupted episode is built only
  // through the period the interrupt kills.
  if (oblivious_ != nullptr && interrupts_left_ > 0) {
    plan(oblivious_->plan_interrupt(ctx));
  }
  if (interrupt_tick_) {
    episode_ =
        policy_.episode_prefix(residual_, interrupts_left_, params_, *interrupt_tick_);
    if (episode_.total() < *interrupt_tick_ || episode_.total() > residual_) {
      throw std::logic_error(
          "SessionActor: policy episode prefix does not reach the interrupt");
    }
  } else {
    episode_ = policy_.episode(residual_, interrupts_left_, params_);
    if (episode_.total() != residual_) {
      throw std::logic_error("SessionActor: policy episode does not span the residual");
    }
    if (oblivious_ == nullptr && interrupts_left_ > 0) {
      plan(adversary_.plan_interrupt(episode_, ctx));
    }
  }
  begin_period();
}

void SessionActor::begin_period() {
  const std::size_t k = current_period_;

  // Pack a batch into the productive capacity of this period.
  in_flight_capacity_ = positive_sub(episode_.period(k), params_.c);
  if (bag_ != nullptr && in_flight_capacity_ > 0) {
    in_flight_ = bag_->take_batch(in_flight_capacity_);
  } else {
    in_flight_.clear();
  }

  // Does the planned interrupt land inside this period?
  next_is_interrupt_ = interrupt_tick_ && *interrupt_tick_ <= episode_.end(k);
  next_event_ =
      episode_start_abs_ + (next_is_interrupt_ ? *interrupt_tick_ : episode_.end(k));
}

void SessionActor::finish_period() {
  const std::size_t k = current_period_;
  Ticks produced = positive_sub(episode_.period(k), params_.c);
  if (checkpointing_) {
    produced = checkpointed_period_work(produced, *checkpointing_);
  }

  metrics_.periods_completed += 1;
  metrics_.banked_work += produced;
  metrics_.comm_overhead += std::min(episode_.period(k), params_.c);
  if (bag_ != nullptr) {
    const Ticks batch = TaskBag::batch_work(in_flight_);
    bag_->mark_completed(in_flight_);
    metrics_.tasks_completed += in_flight_.size();
    metrics_.task_work += batch;
    metrics_.fragmentation += in_flight_capacity_ - batch;
    in_flight_.clear();
  }

  ++current_period_;
  if (current_period_ < episode_.size()) {
    begin_period();
    return;
  }
  // Episode ran to completion: the lifespan is exhausted (episodes span the
  // entire residual by construction).
  metrics_.lifespan_used += episode_.total();
  residual_ = 0;
  finished_ = true;
}

void SessionActor::handle_interrupt() {
  const Ticks tick = *interrupt_tick_;
  metrics_.interrupts += 1;
  metrics_.periods_killed += 1;
  metrics_.lifespan_used += tick;

  Ticks salvaged = 0;
  if (checkpointing_) {
    // Productive capacity elapsed in the killed period when the owner hit:
    // the setup prefix of length c produces nothing.
    const Ticks in_period = tick - episode_.start(current_period_);
    const Ticks elapsed =
        std::min(positive_sub(in_period, params_.c), in_flight_capacity_);
    salvaged = checkpoint_salvage(elapsed, *checkpointing_);
    metrics_.salvaged_work += salvaged;
    metrics_.banked_work += salvaged;
  }
  metrics_.lost_work += in_flight_capacity_ - salvaged;
  if (bag_ != nullptr && !in_flight_.empty()) {
    bag_->return_batch(in_flight_);
    in_flight_.clear();
  }

  residual_ -= tick;
  interrupts_left_ -= 1;

  if (residual_ <= 0) {
    finished_ = true;
    return;
  }
  begin_episode(episode_start_abs_ + tick);
}

SessionMetrics run_session(const SchedulingPolicy& policy,
                           adversary::Adversary& adversary, Opportunity opportunity,
                           Params params, TaskBag* bag,
                           std::optional<Checkpointing> checkpointing) {
  SessionActor actor(policy, adversary, opportunity, params, bag, checkpointing);
  actor.start(0);
  while (actor.next_event()) actor.step();
  return actor.metrics();
}

}  // namespace nowsched::sim
