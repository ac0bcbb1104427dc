#include "workloads.h"

#include <set>
#include <stdexcept>
#include <system_error>
#include <tuple>

#include <unistd.h>

#include "util/hash.h"

namespace perfbench {

namespace {

using ns::sim::OwnerKind;
using ns::sim::PolicyKind;

// The generator and the contract classes are seeded by the workload, not
// the run: a workload's classes are part of its definition, so two seeds
// never differ in which few contracts a class-folded workload serves. The
// run seed picks the generator indices, so every spec, job size and
// adversary stream still changes with it.
constexpr std::uint64_t kContractSeed = 0x6e6f777363686564ull;  // "nowsched"
constexpr std::uint64_t kClassSeed = 0x636c61737365732dull;     // "classes-"
constexpr std::uint64_t kJobSizeTag = 0x6a6f622d73697a65ull;    // "job-size"

Workload cold_solve() {
  Workload w;
  w.name = "cold_solve";
  w.domain.policies = {PolicyKind::kDpOptimal};
  w.domain.min_lifespan = 16384;
  w.domain.max_lifespan = 131072;
  w.domain.min_interrupts = 1;
  w.domain.max_interrupts = 6;
  return w;
}

Workload warm_mix() {
  Workload w;
  w.name = "warm_mix";
  w.tenants = 8;
  w.window = 8;
  w.min_scenarios = 32;
  w.max_scenarios = 128;
  // Lifespans long enough that sessions outweigh the text codec: the
  // client and server threads then idle part of each job, and throughput
  // stops tracking how many vCPUs the host hands out at the moment.
  w.domain.min_lifespan = 16384;
  w.domain.max_lifespan = 65536;
  w.domain.contract_classes = 8;
  w.domain.class_fraction = 1.0;
  // Eight tables of at most 7 x 65537 x 8 bytes fit any one shard's slice.
  w.tenant_quota_bytes = 128u << 20;
  w.warm_up = true;
  return w;
}

Workload store_read() {
  Workload w;
  w.name = "store_read";
  w.tenants = 4;
  w.window = 4;
  w.min_scenarios = 8;
  w.max_scenarios = 8;
  w.domain.policies = {PolicyKind::kDpOptimal};
  w.domain.min_lifespan = 8192;
  w.domain.max_lifespan = 65536;
  w.domain.min_interrupts = 1;
  w.domain.max_interrupts = 6;
  w.store = StoreMode::kBakedReadOnly;
  w.store_classes = 64;
  // One table per tenant: consecutive lookups never repeat a key, so the
  // RAM tier never answers and every lookup reaches the store.
  w.tenant_quota_bytes = 0;
  w.tenant_cache_shards = 1;
  return w;
}

Workload store_spill() {
  Workload w = cold_solve();
  w.name = "store_spill";
  w.domain.min_lifespan = 4096;
  w.domain.max_lifespan = 32768;
  w.store = StoreMode::kEmptyReadWrite;
  return w;
}

using Contract = std::tuple<ns::Ticks, ns::Ticks, int>;

Contract contract_of(const ns::sim::ScenarioSpec& spec) {
  return {spec.params.c, spec.lifespan, spec.max_interrupts};
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = {cold_solve(), warm_mix(), store_read(),
                                                  store_spill()};
  return workloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string tenant_name(std::size_t tenant) { return "tenant-" + std::to_string(tenant); }

JobSource::JobSource(const Workload& workload, std::uint64_t seed)
    : workload_(workload), seed_(seed), generator_(workload.domain, kContractSeed) {
  if (workload.store == StoreMode::kBakedReadOnly) {
    // Class contracts come from their own stream so they are not also the
    // specs the generator hands out.
    const ns::sim::ScenarioGenerator classes(workload.domain, kClassSeed);
    std::set<Contract> seen;
    for (std::uint64_t i = 0; class_specs_.size() < workload.store_classes; ++i) {
      ns::sim::ScenarioSpec spec = classes.at(i);
      if (seen.insert(contract_of(spec)).second) class_specs_.push_back(spec);
    }
  } else if (workload.domain.contract_classes > 0) {
    // Every spec draws from a handful of classes; scan until all of them
    // have shown up (2^12 draws miss one of 8 classes with p < 1e-200).
    std::set<Contract> seen;
    for (std::uint64_t i = 0; i < 4096; ++i) {
      ns::sim::ScenarioSpec spec = generator_.at(i);
      if (!seen.insert(contract_of(spec)).second) continue;
      spec.policy = PolicyKind::kDpOptimal;
      class_specs_.push_back(spec);
    }
  }
}

Job JobSource::job(std::uint64_t index) const {
  const Workload& w = workload_;
  Job job;
  job.tenant = static_cast<std::size_t>(index % w.tenants);
  const std::uint64_t span = w.max_scenarios - w.min_scenarios + 1;
  const std::size_t size = w.min_scenarios + static_cast<std::size_t>(
      ns::util::hash_combine(ns::util::hash_combine(seed_, kJobSizeTag), index) % span);
  job.specs.reserve(size);
  for (std::size_t k = 0; k < size; ++k) {
    const std::uint64_t g = index * w.max_scenarios + k;
    if (w.store == StoreMode::kBakedReadOnly) {
      // Cycle the baked classes in order: consecutive lookups of a tenant
      // never repeat a key, so its one-table RAM tier always misses.
      ns::sim::ScenarioSpec spec = class_specs_[g % class_specs_.size()];
      spec.seed = ns::util::hash_combine(seed_, g);
      job.specs.push_back(spec);
    } else {
      job.specs.push_back(generator_.at(ns::util::hash_combine(seed_, g)));
    }
  }
  return job;
}

ns::service::ServiceOptions service_options(const Workload& workload,
                                            const std::filesystem::path& store_dir) {
  ns::service::ServiceOptions options;
  options.workers = 2;
  options.default_tenant_quota_bytes = workload.tenant_quota_bytes;
  options.tenant_cache_shards = workload.tenant_cache_shards;
  if (workload.store != StoreMode::kNone) {
    options.shared_store_dir = store_dir.string();
    options.shared_store_readonly = workload.store == StoreMode::kBakedReadOnly;
  }
  return options;
}

std::shared_ptr<ns::solver::TableStore> open_store(const Workload& workload,
                                                   const std::filesystem::path& store_dir) {
  if (workload.store == StoreMode::kNone) return nullptr;
  ns::solver::MappedTableStore::Options options;
  options.dir = store_dir.string();
  options.read_only = workload.store == StoreMode::kBakedReadOnly;
  return std::make_shared<ns::solver::MappedTableStore>(options);
}

std::vector<std::unique_ptr<ns::solver::SolveCache>> tenant_caches(
    const Workload& workload, const std::shared_ptr<ns::solver::TableStore>& store) {
  std::vector<std::unique_ptr<ns::solver::SolveCache>> caches;
  for (std::size_t t = 0; t < workload.tenants; ++t) {
    caches.push_back(std::make_unique<ns::solver::SolveCache>(ns::solver::SolveCache::Options{
        workload.tenant_cache_shards, workload.tenant_quota_bytes, store}));
  }
  return caches;
}

ScratchDir::ScratchDir(const std::filesystem::path& parent) {
  static unsigned counter = 0;
  std::string name = std::to_string(::getpid());
  name += '-';
  name += std::to_string(counter++);
  path_ = parent / name;
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::filesystem::path prepare_store(const JobSource& source, const std::filesystem::path& dir,
                                    BakeCounts& counts) {
  const Workload& w = source.workload();
  if (w.store == StoreMode::kNone) return {};
  const std::filesystem::path store_dir = dir / "store";
  std::filesystem::create_directories(store_dir);
  if (w.store != StoreMode::kBakedReadOnly) return store_dir;

  ns::solver::MappedTableStore store({store_dir.string(), false, true});
  std::set<std::tuple<int, ns::Ticks, ns::Ticks>> baked;
  for (const ns::sim::ScenarioSpec& spec : source.class_specs()) {
    const ns::solver::SolveRequest req{spec.max_interrupts, spec.lifespan, spec.params};
    const ns::solver::SolveKey key = ns::solver::canonical_key(req);
    if (!baked.insert({key.max_p, key.max_lifespan, key.c}).second) continue;
    ++counts.attempted;
    try {
      if (!store.store(key, ns::solver::solve_shared(req))) ++counts.failed;
    } catch (const std::exception&) {
      ++counts.failed;
    }
  }
  return store_dir;
}

}  // namespace perfbench
