// Metrics collected by the simulator.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>

#include "core/types.h"
#include "util/text_record.h"

namespace nowsched::sim {

struct SessionMetrics {
  /// Model-level work banked: Σ over completed periods of (t ⊖ c).
  Ticks banked_work = 0;
  /// Task ticks actually completed (<= banked_work when tasks fragment).
  Ticks task_work = 0;
  /// Setup cost paid on completed periods.
  Ticks comm_overhead = 0;
  /// Period capacity destroyed by interrupts (work in progress when killed).
  Ticks lost_work = 0;
  /// Work rescued by intra-period checkpoints (0 under the paper's model).
  Ticks salvaged_work = 0;
  /// Capacity no task fit into (indivisible-task fragmentation).
  Ticks fragmentation = 0;
  /// Lifespan ticks consumed (== U when the opportunity runs out).
  Ticks lifespan_used = 0;

  int interrupts = 0;
  std::size_t episodes = 0;
  std::size_t periods_completed = 0;
  std::size_t periods_killed = 0;
  std::size_t tasks_completed = 0;

  void merge(const SessionMetrics& other) noexcept {
    banked_work += other.banked_work;
    task_work += other.task_work;
    comm_overhead += other.comm_overhead;
    lost_work += other.lost_work;
    salvaged_work += other.salvaged_work;
    fragmentation += other.fragmentation;
    lifespan_used += other.lifespan_used;
    interrupts += other.interrupts;
    episodes += other.episodes;
    periods_completed += other.periods_completed;
    periods_killed += other.periods_killed;
    tasks_completed += other.tasks_completed;
  }

  std::string to_string() const;
};

/// The one field table of SessionMetrics, in declaration order: the rpc
/// JobResultReply reads and writes it positionally.
inline constexpr util::Field<SessionMetrics> kSessionMetricsFields[] = {
    util::field<&SessionMetrics::banked_work>("banked_work"),
    util::field<&SessionMetrics::task_work>("task_work"),
    util::field<&SessionMetrics::comm_overhead>("comm_overhead"),
    util::field<&SessionMetrics::lost_work>("lost_work"),
    util::field<&SessionMetrics::salvaged_work>("salvaged_work"),
    util::field<&SessionMetrics::fragmentation>("fragmentation"),
    util::field<&SessionMetrics::lifespan_used>("lifespan_used"),
    util::field<&SessionMetrics::interrupts>("interrupts"),
    util::field<&SessionMetrics::episodes>("episodes"),
    util::field<&SessionMetrics::periods_completed>("periods_completed"),
    util::field<&SessionMetrics::periods_killed>("periods_killed"),
    util::field<&SessionMetrics::tasks_completed>("tasks_completed"),
};

inline std::string SessionMetrics::to_string() const {
  std::ostringstream os;
  os << "banked=" << banked_work << " tasks=" << tasks_completed
     << " task_work=" << task_work << " comm=" << comm_overhead
     << " lost=" << lost_work << " salvaged=" << salvaged_work
     << " frag=" << fragmentation
     << " interrupts=" << interrupts << " episodes=" << episodes
     << " periods=" << periods_completed << "+" << periods_killed << "killed";
  return os.str();
}

}  // namespace nowsched::sim
