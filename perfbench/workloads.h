// The four benchmark workloads and the seed-deterministic job stream each
// one sends. WORKLOADS.md says why each exists and which layer it isolates.
//
// A job is one tenant's scenario batch. job(i) is a pure function of
// (workload, seed, i), so the correctness gate and the traced replay can
// rebuild any job without the load generator keeping its specs in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "service/scheduler_service.h"
#include "sim/batch_runner.h"
#include "sim/scenario_gen.h"
#include "solver/solve_cache.h"
#include "solver/table_store.h"

namespace perfbench {

namespace ns = nowsched;

/// What sits beneath every tenant's RAM cache.
enum class StoreMode {
  kNone,            ///< no persistent tier
  kBakedReadOnly,   ///< a store baked during set-up, mounted read-only
  kEmptyReadWrite,  ///< an empty store every fresh solve spills into
};

struct Workload {
  std::string name;
  std::size_t tenants = 1;        ///< jobs go round-robin over the tenants
  std::size_t window = 4;         ///< jobs outstanding in the closed loop
  std::size_t min_scenarios = 4;  ///< scenarios per job, drawn per job
  std::size_t max_scenarios = 4;
  ns::sim::ScenarioDomain domain;
  StoreMode store = StoreMode::kNone;
  /// kBakedReadOnly: contracts baked into the store; job specs cycle
  /// through them in order.
  std::size_t store_classes = 0;
  /// Per-tenant RAM tier; the service defaults unless a workload needs
  /// otherwise.
  std::size_t tenant_quota_bytes = ns::service::ServiceOptions{}.default_tenant_quota_bytes;
  std::size_t tenant_cache_shards = ns::service::ServiceOptions{}.tenant_cache_shards;
  /// Solve every contract the workload draws from, for every tenant,
  /// during set-up, so the timed phase never solves.
  bool warm_up = false;
};

const std::vector<Workload>& all_workloads();
/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

std::string tenant_name(std::size_t tenant);

struct Job {
  std::size_t tenant = 0;
  std::vector<ns::sim::ScenarioSpec> specs;
};

class JobSource {
 public:
  JobSource(const Workload& workload, std::uint64_t seed);

  /// The index-th job: pure in (workload, seed, index).
  Job job(std::uint64_t index) const;

  /// One dp-optimal spec per contract class the jobs draw from (empty when
  /// contracts are fresh per scenario). Set-up bakes or pre-solves these.
  const std::vector<ns::sim::ScenarioSpec>& class_specs() const noexcept {
    return class_specs_;
  }

  const Workload& workload() const noexcept { return workload_; }

 private:
  const Workload& workload_;
  std::uint64_t seed_;
  ns::sim::ScenarioGenerator generator_;
  std::vector<ns::sim::ScenarioSpec> class_specs_;
};

/// Service options of the daemon under test for one set-up of `workload`.
/// `store_dir` is the set-up's store (ignored for StoreMode::kNone).
ns::service::ServiceOptions service_options(const Workload& workload,
                                            const std::filesystem::path& store_dir);

/// The persistent tier a set-up mounts, opened the way the service opens
/// it (nullptr for StoreMode::kNone).
std::shared_ptr<ns::solver::TableStore> open_store(const Workload& workload,
                                                   const std::filesystem::path& store_dir);

/// Per-tenant caches with the service's quota, shards and store: a replica
/// of the daemon's solver tiers for the direct replays.
std::vector<std::unique_ptr<ns::solver::SolveCache>> tenant_caches(
    const Workload& workload, const std::shared_ptr<ns::solver::TableStore>& store);

/// A uniquely named directory under `parent`, removed with its contents on
/// destruction. Holds a set-up's store and daemon socket.
class ScratchDir {
 public:
  explicit ScratchDir(const std::filesystem::path& parent);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

struct BakeCounts {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// Prepares the store of one set-up inside `dir`: nothing for kNone, an
/// empty directory for kEmptyReadWrite, and a freshly solved and written
/// table per contract class for kBakedReadOnly. Returns the store path.
std::filesystem::path prepare_store(const JobSource& source,
                                    const std::filesystem::path& dir,
                                    BakeCounts& counts);

}  // namespace perfbench
