#include "sim/farm.h"

#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

namespace nowsched::sim {

FarmResult run_farm(const std::vector<WorkstationConfig>& stations, TaskBag& bag) {
  if (stations.empty()) throw std::invalid_argument("run_farm: no workstations");
  for (const auto& st : stations) {
    if (!st.policy || !st.owner) {
      throw std::invalid_argument("run_farm: station '" + st.name +
                                  "' missing policy or owner");
    }
    if (st.start_time < 0) {
      throw std::invalid_argument("run_farm: negative start time");
    }
  }

  std::vector<SessionActor> actors;
  actors.reserve(stations.size());
  for (const auto& st : stations) {
    actors.emplace_back(*st.policy, *st.owner, st.opportunity, st.params, &bag);
  }

  // Station events in (time, scheduling order): each start, then each event
  // an actor plans, takes the next sequence number. An actor has at most one
  // event pending, so one queue entry per station suffices.
  struct Event {
    Ticks time;
    std::uint64_t seq;
    std::size_t station;
    bool start;
    bool operator>(const Event& o) const noexcept {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < stations.size(); ++i) {
    queue.push(Event{stations[i].start_time, seq++, i, true});
  }

  FarmResult result;
  while (!queue.empty()) {
    const Event ev = queue.top();
    queue.pop();
    SessionActor& actor = actors[ev.station];
    if (ev.start) {
      actor.start(ev.time);
    } else {
      actor.step();
    }
    ++result.events;
    result.makespan = ev.time;
    if (const auto next = actor.next_event()) {
      queue.push(Event{*next, seq++, ev.station, false});
    }
  }
  for (const auto& actor : actors) {
    result.per_workstation.push_back(actor.metrics());
    result.aggregate.merge(actor.metrics());
  }
  result.tasks_left = bag.pending();
  result.task_work_left = bag.pending_work();
  return result;
}

}  // namespace nowsched::sim
