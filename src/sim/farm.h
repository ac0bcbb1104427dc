// A network of workstations: several borrowed machines draining one shared
// data-parallel task bag on a common simulated clock — the setting the
// paper's introduction motivates (§1: "the use of a network of workstations
// as a parallel computer").
//
// Each workstation has its own contract (U_i, p_i), link cost c_i, owner
// model, and scheduling policy. The farm steps all sessions in event order —
// by time, then by scheduling order (stations' starts in listing order
// first, then each event in the order it was planned) — so batches are
// packed from the shared bag in true time order, and same-time ties never
// depend on anything but the station list.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "core/policy.h"
#include "sim/metrics.h"
#include "sim/session.h"
#include "sim/taskbag.h"

namespace nowsched::sim {

struct WorkstationConfig {
  std::string name;
  Opportunity opportunity;
  Params params;
  PolicyPtr policy;
  std::shared_ptr<adversary::Adversary> owner;
  Ticks start_time = 0;  ///< when the contract begins (absolute sim time)
};

struct FarmResult {
  std::vector<SessionMetrics> per_workstation;
  SessionMetrics aggregate;
  Ticks makespan = 0;            ///< last event time
  std::size_t events = 0;        ///< starts + period ends + interrupts
  std::size_t tasks_left = 0;    ///< bag residue
  Ticks task_work_left = 0;
};

/// Runs every workstation against the shared bag until all sessions finish.
FarmResult run_farm(const std::vector<WorkstationConfig>& stations, TaskBag& bag);

}  // namespace nowsched::sim
