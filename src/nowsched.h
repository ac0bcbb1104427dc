// Umbrella header for the nowsched library.
//
// nowsched reproduces and extends:
//   A. L. Rosenberg, "Guidelines for Data-Parallel Cycle-Stealing in
//   Networks of Workstations, II: On Maximizing Guaranteed Output",
//   IPPS/SPDP 1999.
//
// Layers (see DESIGN.md §2):
//   nowsched           — model types, schedules, published guidelines
//   nowsched::solver   — exact minimax solvers for W(p)[L], policy evaluation
//   nowsched::adversary— owner/interrupt models
//   nowsched::sim      — discrete-event NOW simulator
//   nowsched::service  — resident multi-tenant scheduler service
//   nowsched::rpc      — nowsched-rpc v1 wire protocol (daemon + client)
//   nowsched::race     — statistical policy racing / best-arm identification
//   nowsched::util     — support (RNG, stats, tables, threads)
#pragma once

#include "core/baselines.h"
#include "core/bounds.h"
#include "core/closed_form.h"
#include "core/analysis.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "core/policy.h"
#include "core/schedule.h"
#include "core/transforms.h"
#include "core/types.h"

#include "solver/extract.h"
#include "solver/fast_solver.h"
#include "solver/solve_cache.h"
#include "solver/solve_key.h"
#include "solver/table_store.h"
#include "solver/nonadaptive_eval.h"
#include "solver/nonadaptive_opt.h"
#include "solver/policy_eval.h"
#include "solver/reference_solver.h"
#include "solver/value_table.h"

#include "adversary/adversary.h"
#include "adversary/heuristics.h"
#include "adversary/processes.h"
#include "adversary/stochastic.h"
#include "adversary/trace.h"

#include "sim/batch_runner.h"
#include "sim/checkpoint.h"
#include "sim/farm.h"
#include "sim/metrics.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "sim/taskbag.h"

#include "service/job.h"
#include "service/queue_policy.h"
#include "service/scheduler_service.h"
#include "service/service_stats.h"
#include "service/stats_format.h"

#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/protocol.h"
#include "rpc/server.h"

#include "race/bounds.h"
#include "race/policy_race.h"
#include "race/race.h"
#include "race/regret_hunt.h"

#include "util/csv.h"
#include "util/flags.h"
#include "util/hash.h"
#include "util/mmap_file.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/text_record.h"
#include "util/thread_pool.h"
