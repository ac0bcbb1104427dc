// Composable, seed-deterministic scenario generation — the workload opener
// of DESIGN.md §8.
//
// A ScenarioGenerator samples ScenarioSpecs from a declared domain (policy
// mix, owner-process mix, contract ranges, contract-class structure,
// correlated-farm groups) and feeds them straight into sim::BatchRunner or
// the conformance suite. Its determinism contract is stronger than "same
// seed, same sequence": spec generation is RANDOM-ACCESS pure —
//
//     at(i) == f(domain, seed, i)
//
// with a private RNG stream derived per index (util::hash_combine of the
// generator seed and i), so the i-th scenario is identical no matter how
// many specs were drawn before it, from which thread, or in which batch
// grouping. That is what makes a replay file a complete repro: the spec
// alone rebuilds the session bit-for-bit (see tests/conformance/).
//
// Contract classes: real batch workloads are cache-friendly — thousands of
// contracts drawn from a handful of (c, U, p) classes. With
// contract_classes > 0, a class_fraction slice of scenarios draws its
// contract from one of that many canonical contracts (themselves derived
// from the generator seed) instead of sampling fresh, so generated batches
// sweep the cache-affinity axis from fully heterogeneous to fully folded.
//
// Correlated farms: farm_group(n) emits n stations sharing one
// kCorrelatedShock group_seed and shock gap — a heterogeneous farm whose
// owners fail together (adversary/processes.h).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/batch_runner.h"

namespace nowsched::sim {

/// The workload space a generator samples. Defaults describe a broad mixed
/// domain; narrow it per use (the conformance suite caps lifespans so the
/// O(P·N²) reference solver stays affordable).
struct ScenarioDomain {
  /// Candidate mixes; empty means "all kinds".
  std::vector<PolicyKind> policies;
  std::vector<OwnerKind> owners;

  Ticks min_c = 2;
  Ticks max_c = 64;
  Ticks min_lifespan = 64;
  Ticks max_lifespan = 8192;
  int min_interrupts = 0;
  int max_interrupts = 6;

  /// > 0 enables contract classes: class_fraction of scenarios draw their
  /// (c, U, p) from one of this many canonical contracts instead of fresh.
  std::size_t contract_classes = 0;
  double class_fraction = 0.75;

  /// Stations per farm_group() call (also the implicit group width that
  /// at() uses to assign kCorrelatedShock group seeds: indices i with equal
  /// i / farm_size share a group).
  std::size_t farm_size = 4;

  /// Throws std::invalid_argument on an unsatisfiable domain.
  void validate() const;
};

class ScenarioGenerator {
 public:
  /// Validates the domain up front (throws std::invalid_argument).
  ScenarioGenerator(ScenarioDomain domain, std::uint64_t seed);

  /// The i-th scenario of this (domain, seed) — pure and random-access.
  ScenarioSpec at(std::uint64_t index) const;

  /// at(cursor), advancing the cursor.
  ScenarioSpec next();

  /// The next n scenarios as one batch (cursor advances by n).
  std::vector<ScenarioSpec> batch(std::size_t n);

  /// A correlated farm: `stations` kCorrelatedShock scenarios sharing one
  /// group seed and shock gap, with per-station contracts, policies, and
  /// response probabilities. Cursor advances by `stations`.
  std::vector<ScenarioSpec> farm_group(std::size_t stations);

 private:
  ScenarioDomain domain_;
  std::uint64_t seed_;
  std::uint64_t cursor_ = 0;
};

/// Replay-file serialization: a self-contained "nowsched-scenario v1" keyed
/// record (DESIGN §8) of one scenario. Doubles round-trip bit-exactly, so
/// parse(to_replay_string(s)) rebuilds the identical spec. The conformance suite writes failing (minimized)
/// scenarios in this format; `NOWSCHED_REPLAY=<file> conformance_test`
/// re-runs one.
std::string to_replay_string(const ScenarioSpec& spec);

/// The same record appended to `out` (the rpc submit payload writes its
/// scenarios in place this way).
void append_replay(std::string& out, const ScenarioSpec& spec);

/// Parses a replay record; throws std::invalid_argument naming the first
/// bad line. Unknown and duplicate keys are errors (typos must not silently
/// change the scenario being reproduced).
ScenarioSpec scenario_from_replay(std::string_view text);

/// Enum round-trips for the replay format ("dp-optimal", "bursty", ...).
/// Throw std::invalid_argument on unknown names.
PolicyKind policy_kind_from_string(const std::string& name);
OwnerKind owner_kind_from_string(const std::string& name);

}  // namespace nowsched::sim
