// Randomized cross-checks: every component validated against an independent
// implementation or invariant on randomly generated instances. Seeds are
// fixed, so failures reproduce.
//
// The scenario-driven suites at the bottom are tier-controlled: they run
// NOWSCHED_FUZZ_CASES generated cases (default 200 — the quick tier; the
// nightly job raises it to >= 5000), each case a ScenarioSpec drawn by the
// seed-deterministic ScenarioGenerator, so "case #173 failed" reproduces
// anywhere from the seed and index alone.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/closed_form.h"
#include "core/equalized.h"
#include "core/guidelines.h"
#include "core/transforms.h"
#include "fuzz_cases.h"
#include "race/policy_race.h"
#include "rpc/protocol.h"
#include "sim/batch_runner.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "service/stats_format.h"
#include "solver/extract.h"
#include "solver/fast_solver.h"
#include "solver/nonadaptive_eval.h"
#include "solver/policy_eval.h"
#include "solver/reference_solver.h"
#include "util/rng.h"

namespace nowsched {
namespace {

/// A policy that cuts episodes pseudo-randomly (but deterministically per
/// (L, q)) — a worst-case stress for the evaluator's assumptions.
class RandomPolicy final : public SchedulingPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : seed_(seed) {}
  std::string name() const override { return "random-policy"; }
  EpisodeSchedule episode(Ticks residual, int q, const Params&) const override {
    util::Rng rng(seed_ ^ (static_cast<std::uint64_t>(residual) * 31 +
                           static_cast<std::uint64_t>(q)));
    std::vector<Ticks> periods;
    Ticks left = residual;
    while (left > 0) {
      const Ticks t = rng.uniform_int(1, std::max<Ticks>(1, left / 2 + 1));
      periods.push_back(t);
      left -= t;
      if (periods.size() > 40) {  // cap length; dump the rest in one period
        if (left > 0) periods.push_back(left);
        break;
      }
    }
    return EpisodeSchedule(std::move(periods));
  }

 private:
  std::uint64_t seed_;
};

/// Independent, memoized game-tree evaluation of a policy (plain recursion,
/// no level tables) — the oracle for evaluate_policy.
Ticks game_tree_value(const SchedulingPolicy& policy, Ticks lifespan, int q,
                      const Params& params,
                      std::map<std::pair<Ticks, int>, Ticks>& memo) {
  if (lifespan <= 0) return 0;
  const auto key = std::make_pair(lifespan, q);
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  const auto episode = policy.episode(lifespan, q, params);
  Ticks best = episode.work_if_uninterrupted(params);
  if (q > 0) {
    Ticks banked = 0;
    for (std::size_t k = 0; k < episode.size(); ++k) {
      const Ticks rest = positive_sub(lifespan, episode.end(k));
      best = std::min(best,
                      banked + game_tree_value(policy, rest, q - 1, params, memo));
      banked += positive_sub(episode.period(k), params.c);
    }
  }
  memo[key] = best;
  return best;
}

TEST(Fuzz, PolicyEvaluatorMatchesGameTreeOnRandomPolicies) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 24; ++trial) {
    const Params params{static_cast<Ticks>(rng.uniform_int(2, 24))};
    const Ticks u = rng.uniform_int(20, 400);
    const int p = static_cast<int>(rng.uniform_int(0, 3));
    const RandomPolicy policy(rng.next());
    std::map<std::pair<Ticks, int>, Ticks> memo;
    const Ticks expected = game_tree_value(policy, u, p, params, memo);
    EXPECT_EQ(solver::evaluate_policy(policy, u, p, params), expected)
        << "trial " << trial << " c=" << params.c << " u=" << u << " p=" << p;
  }
}

TEST(Fuzz, SolversAgreeOnRandomParameters) {
  util::Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    const Params params{static_cast<Ticks>(rng.uniform_int(1, 40))};
    const Ticks max_l = rng.uniform_int(50, 500);
    const int max_p = static_cast<int>(rng.uniform_int(0, 4));
    const auto ref = solver::solve_reference(max_p, max_l, params);
    const auto fast = solver::solve_fast(max_p, max_l, params);
    for (int p = 0; p <= max_p; ++p) {
      for (Ticks l = 0; l <= max_l; ++l) {
        ASSERT_EQ(fast.value(p, l), ref.value(p, l))
            << "trial " << trial << " c=" << params.c << " p=" << p << " l=" << l;
      }
    }
  }
}

TEST(Fuzz, FromRealAlwaysSpansTotal) {
  util::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const Ticks total = rng.uniform_int(1, 100000);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 30));
    std::vector<double> lengths(n);
    for (auto& x : lengths) x = rng.uniform(-2.0, 50.0);
    const auto sched = EpisodeSchedule::from_real(lengths, total);
    ASSERT_EQ(sched.total(), total) << "trial " << trial;
    for (std::size_t i = 0; i < sched.size(); ++i) ASSERT_GE(sched.period(i), 1);
  }
}

TEST(Fuzz, MakeProductiveNeverDecreasesCommittedValue) {
  util::Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    const Params params{static_cast<Ticks>(rng.uniform_int(2, 20))};
    std::vector<Ticks> periods;
    Ticks total = 0;
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 14));
    for (std::size_t i = 0; i < m; ++i) {
      const Ticks t = rng.uniform_int(1, 3 * params.c);
      periods.push_back(t);
      total += t;
    }
    const EpisodeSchedule raw(std::move(periods));
    const auto productive = make_productive(raw, params);
    for (int p = 0; p <= 3; ++p) {
      ASSERT_GE(solver::nonadaptive_guaranteed_work(productive, total, p, params),
                solver::nonadaptive_guaranteed_work(raw, total, p, params))
          << "trial " << trial << " p=" << p;
    }
  }
}

TEST(Fuzz, GuidelinePoliciesNeverBeatTheTable) {
  util::Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const Params params{static_cast<Ticks>(rng.uniform_int(4, 32))};
    const Ticks u = rng.uniform_int(200, 1500);
    const int p = static_cast<int>(rng.uniform_int(1, 3));
    const auto table = solver::solve_reference(p, u, params);
    const AdaptiveGuidelinePolicy printed;
    const EqualizedGuidelinePolicy equalized;
    const NonAdaptiveGuidelinePolicy restart;
    for (const SchedulingPolicy* policy :
         {static_cast<const SchedulingPolicy*>(&printed),
          static_cast<const SchedulingPolicy*>(&equalized),
          static_cast<const SchedulingPolicy*>(&restart)}) {
      ASSERT_LE(solver::evaluate_policy(*policy, u, p, params), table.value(p, u))
          << policy->name() << " trial " << trial;
    }
  }
}

TEST(Fuzz, SplitImmuneTailPreservesTotalAndBand) {
  util::Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    const Params params{static_cast<Ticks>(rng.uniform_int(2, 30))};
    std::vector<Ticks> periods;
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 10));
    for (std::size_t i = 0; i < m; ++i) {
      periods.push_back(rng.uniform_int(1, 8 * params.c));
    }
    const EpisodeSchedule raw(std::move(periods));
    const auto immune = static_cast<std::size_t>(rng.uniform_int(0, 12));
    const auto out = split_immune_tail(raw, immune, params);
    ASSERT_EQ(out.total(), raw.total());
    // Every split piece in the immune region obeys the band where feasible:
    // pieces longer than 2c may only appear among non-immune prefix periods.
    const std::size_t kept_prefix = raw.size() - std::min(immune, raw.size());
    std::size_t j = 0;
    for (std::size_t i = 0; i < kept_prefix; ++i, ++j) {
      ASSERT_EQ(out.period(j), raw.period(i));
    }
    for (; j < out.size(); ++j) ASSERT_LE(out.period(j), 2 * params.c);
  }
}

// ---------------------------------------------------------------------------
// Scenario-driven, tier-controlled properties (NOWSCHED_FUZZ_CASES).
// ---------------------------------------------------------------------------

using nowsched::testing::fuzz_cases;

TEST(Fuzz, GeneratedScenarioSolversAgreeAndExtractionMatchesOracle) {
  // Per generated scenario: solve_fast vs the O(P·N²) reference, every
  // table entry, plus best_period_length (O(log L) crossover search) vs
  // best_period_length_linear (O(L) oracle scan) on sampled states.
  // Contracts are capped so the quadratic oracle stays affordable.
  sim::ScenarioDomain domain;
  domain.min_c = 1;
  domain.max_c = 48;
  domain.min_lifespan = 8;
  domain.max_lifespan = 288;
  domain.max_interrupts = 3;
  sim::ScenarioGenerator gen(domain, 0xFA22);

  const int cases = fuzz_cases(200);
  util::Rng sample_rng(0x5A);
  for (int i = 0; i < cases; ++i) {
    const sim::ScenarioSpec spec = gen.next();
    const int p = spec.max_interrupts;
    const Ticks u = spec.lifespan;
    const auto fast = solver::solve_fast(p, u, spec.params);
    const auto ref = solver::solve_reference(p, u, spec.params);
    for (int q = 0; q <= p; ++q) {
      for (Ticks l = 0; l <= u; ++l) {
        ASSERT_EQ(fast.value(q, l), ref.value(q, l))
            << "case " << i << " c=" << spec.params.c << " q=" << q << " l=" << l;
      }
    }
    if (p >= 1) {
      for (int s = 0; s < 8; ++s) {
        const int q = static_cast<int>(sample_rng.uniform_int(1, p));
        const Ticks l = sample_rng.uniform_int(1, u);
        ASSERT_EQ(solver::best_period_length(fast, q, l),
                  solver::best_period_length_linear(fast, q, l))
            << "case " << i << " q=" << q << " l=" << l;
      }
    }
  }
}

TEST(Fuzz, ScenarioGeneratorIsRandomAccessDeterministic) {
  sim::ScenarioDomain domain;
  domain.contract_classes = 4;
  domain.class_fraction = 0.5;
  sim::ScenarioGenerator a(domain, 0x1234);
  sim::ScenarioGenerator b(domain, 0x1234);
  sim::ScenarioGenerator other(domain, 0x9999);

  // next() is at(cursor): sequences from equal seeds agree element-wise,
  // and at(i) is independent of how the cursor got there.
  const auto batch = a.batch(64);
  bool any_difference_from_other_seed = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const sim::ScenarioSpec direct = b.at(i);
    EXPECT_EQ(batch[i].seed, direct.seed) << i;
    EXPECT_EQ(batch[i].lifespan, direct.lifespan) << i;
    EXPECT_EQ(batch[i].owner, direct.owner) << i;
    EXPECT_EQ(batch[i].owner_a, direct.owner_a) << i;
    EXPECT_EQ(batch[i].params.c, direct.params.c) << i;
    const sim::ScenarioSpec foreign = other.at(i);
    any_difference_from_other_seed =
        any_difference_from_other_seed || foreign.seed != direct.seed;
  }
  EXPECT_TRUE(any_difference_from_other_seed);

  // Replay strings round-trip every spec bit-exactly.
  for (const auto& spec : batch) {
    const sim::ScenarioSpec back = sim::scenario_from_replay(to_replay_string(spec));
    EXPECT_EQ(back.owner_a, spec.owner_a);
    EXPECT_EQ(back.owner_d, spec.owner_d);
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.group_seed, spec.group_seed);
  }
}

TEST(Fuzz, GeneratedSpecsAlwaysPassBatchValidationAndRun) {
  // Every generated spec must be runnable as-is: the batch layer's
  // validation throws on none of them, and a small batch through
  // BatchRunner completes with the lifespan fully consumed per session.
  sim::ScenarioDomain domain;
  domain.max_lifespan = 2048;
  domain.contract_classes = 5;
  domain.farm_size = 4;
  sim::ScenarioGenerator gen(domain, 0xABCD);
  const int cases = std::max(32, fuzz_cases(200) / 4);

  auto specs = gen.batch(static_cast<std::size_t>(cases) / 2);
  while (specs.size() < static_cast<std::size_t>(cases)) {
    for (auto& spec : gen.farm_group(domain.farm_size)) specs.push_back(spec);
  }
  sim::BatchRunner runner;
  const auto result = runner.run(specs);
  ASSERT_EQ(result.per_scenario.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(result.per_scenario[i].lifespan_used, specs[i].lifespan) << i;
    EXPECT_LE(result.per_scenario[i].interrupts, specs[i].max_interrupts) << i;
  }
}

TEST(Fuzz, EqualizedEpisodeAlwaysFeasible) {
  util::Rng rng(23);
  for (int trial = 0; trial < 120; ++trial) {
    const Params params{static_cast<Ticks>(rng.uniform_int(1, 64))};
    const Ticks u = rng.uniform_int(1, 60000);
    const int p = static_cast<int>(rng.uniform_int(0, 6));
    const auto sched = equalized_episode(u, p, params);
    ASSERT_EQ(sched.total(), u) << "c=" << params.c << " u=" << u << " p=" << p;
    ASSERT_GE(sched.size(), 1u);
  }
}

TEST(Fuzz, OneInterruptEvaluatorsAgreeOnRandomSchedules) {
  // Three readings of the p = 1 kill option (kill period k at its last
  // instant, then run the residual as one long period): the §5.2 closed form,
  // the committed-schedule evaluator at p = 1, and the minimum of the
  // kill-option profile against the uninterrupted work.
  util::Rng rng(0x9E1);
  const int cases = 10 * fuzz_cases(200);
  for (int i = 0; i < cases; ++i) {
    const Params params{static_cast<Ticks>(rng.uniform_int(1, 40))};
    std::vector<Ticks> periods(static_cast<std::size_t>(rng.uniform_int(1, 30)));
    for (Ticks& t : periods) t = rng.uniform_int(1, 3 * params.c);
    const EpisodeSchedule s(std::move(periods));
    const Ticks u = s.total();
    Ticks profile_min = s.work_if_uninterrupted(params);
    for (Ticks option : kill_option_profile_p1(s, u, params)) {
      profile_min = std::min(profile_min, option);
    }
    const Ticks closed = guaranteed_work_p1(s, u, params);
    ASSERT_EQ(closed, solver::nonadaptive_guaranteed_work(s, u, 1, params))
        << "case " << i << " c=" << params.c << " s=" << s.to_string();
    ASSERT_EQ(closed, profile_min)
        << "case " << i << " c=" << params.c << " s=" << s.to_string();
  }
}

// ---------------------------------------------------------------------------
// Text-record mutation fuzz: every format and every rpc payload.
// ---------------------------------------------------------------------------

/// One codec under mutation. `identity` decodes a text into an injective
/// rendering of the value (the encoding, plus any free text the encoder
/// would flatten); `reencode` decodes and encodes back. `samples` are valid
/// encodings to mutate.
struct MutationTarget {
  std::string name;
  std::function<std::string(const std::string&)> identity;
  std::function<std::string(const std::string&)> reencode;
  std::vector<std::string> samples;
};

/// Flip one byte, delete a line, duplicate a line, or truncate. The empty
/// payload (a stats request) gains one random byte instead.
std::string mutate(const std::string& text, util::Rng& rng) {
  std::string out = text;
  if (out.empty()) return std::string(1, static_cast<char>(rng.next_below(256)));
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  // Line boundaries: line k spans [starts[k], starts[k+1]).
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] == '\n' && i + 1 < out.size()) starts.push_back(i + 1);
  }
  starts.push_back(out.size());
  const std::size_t line = pick(starts.size() - 1);
  const std::size_t begin = starts[line];
  const std::size_t len = starts[line + 1] - begin;
  switch (rng.next_below(4)) {
    case 0: {
      // Half the flips land on a byte the grammar gives meaning to.
      static constexpr char kSyntax[] = "\r\n=#- 09";
      char& c = out[pick(out.size())];
      c = rng.next_below(2) == 0 ? kSyntax[pick(sizeof(kSyntax) - 1)]
                                 : static_cast<char>(c ^ (1 + rng.next_below(255)));
      break;
    }
    case 1:
      out.erase(begin, len);
      break;
    case 2:
      out.insert(begin + len, out.substr(begin, len));
      break;
    default:
      out.resize(pick(out.size()));
      break;
  }
  return out;
}

std::vector<MutationTarget> mutation_targets() {
  sim::ScenarioDomain domain;
  domain.contract_classes = 2;
  sim::ScenarioGenerator gen(domain, 0x7E47);
  std::vector<sim::ScenarioSpec> specs = gen.batch(5);
  for (const auto& spec : gen.farm_group(2)) specs.push_back(spec);

  std::vector<MutationTarget> targets;
  const auto add_with_text = [&targets](std::string name, auto encode, auto decode,
                                        auto values, auto free_text) {
    MutationTarget t;
    t.name = std::move(name);
    t.identity = [encode, decode, free_text](const std::string& text) {
      const auto value = decode(text);
      return encode(value) + '\0' + free_text(value);
    };
    t.reencode = [encode, decode](const std::string& text) {
      return encode(decode(text));
    };
    for (const auto& v : values) t.samples.push_back(encode(v));
    targets.push_back(std::move(t));
  };
  const auto add = [&add_with_text](std::string name, auto encode, auto decode,
                                    auto values) {
    add_with_text(std::move(name), encode, decode, values,
                  [](const auto&) { return std::string(); });
  };

  add("scenario", &sim::to_replay_string, &sim::scenario_from_replay, specs);

  race::VerdictRecord verdict;
  verdict.kind = "regret";
  verdict.policy_a = "dp-optimal";
  verdict.region_a = "small";
  verdict.policy_b = "equalized";
  verdict.region_b = "wide";
  verdict.mean_a = 0.625;
  verdict.mean_b = 0.1 + 0.2;
  verdict.gap_mean = verdict.mean_a - verdict.mean_b;
  verdict.gap_lower = -1e-3;
  verdict.gap_upper = 0.75;
  verdict.delta = 0.05;
  verdict.epsilon = 0.01;
  verdict.pulls_a = 4096;
  verdict.pulls_b = 77;
  verdict.confident = true;
  add("verdict", &race::to_verdict_string, &race::verdict_from_string,
      std::vector<race::VerdictRecord>{verdict});

  service::ServiceStats stats;
  stats.queue_policy = "drr";
  stats.workers = 2;
  stats.submitted_jobs = 9;
  stats.latency = {9, 1.5, 2.25, 4.0 + 1e-12, 8.0};
  for (const char* id : {"alpha", "beta"}) {
    service::TenantStats t;
    t.tenant = id;
    t.submitted_jobs = 4;
    t.cache = {3, 1, 1, 0, 0, 2, 4096};
    t.latency = {4, 1.0, 2.0, 3.0, 3.5};
    stats.tenants.push_back(t);
  }
  add("stats", &service::to_stats_string, &service::stats_from_string,
      std::vector<service::ServiceStats>{stats});

  rpc::SubmitBatchRequest submit;
  submit.tenant = "alpha";
  submit.specs = {specs[0], specs[5]};
  add("rpc submit-batch", &rpc::encode_submit_batch, &rpc::decode_submit_batch,
      std::vector<rpc::SubmitBatchRequest>{submit});
  add_with_text("rpc submit-reply", &rpc::encode_submit_reply,
                &rpc::decode_submit_reply,
                std::vector<rpc::SubmitReply>{
                    {service::SubmitStatus::kAccepted, "", 17},
                    {service::SubmitStatus::kInvalidScenario, "spec #1: bad c", 0}},
                [](const rpc::SubmitReply& r) { return r.reason; });
  add("rpc job-status", &rpc::encode_job_status, &rpc::decode_job_status,
      std::vector<rpc::JobStatusRequest>{{17}});
  add("rpc job-status-reply", &rpc::encode_job_status_reply,
      &rpc::decode_job_status_reply,
      std::vector<rpc::JobStatusReply>{{service::JobState::kRunning}});
  add("rpc job-result", &rpc::encode_job_result, &rpc::decode_job_result,
      std::vector<rpc::JobResultRequest>{{17, true}, {18, false}});
  rpc::JobResultReply result;
  result.state = service::JobState::kDone;
  result.tenant = "alpha";
  result.job_id = 17;
  result.completion_index = 4;
  result.latency_ms = 0.1 + 0.7;
  result.cache = {5, 2, 1, 1, 0, 3, 65536};
  result.per_scenario.resize(2);
  result.per_scenario[0].banked_work = 900;
  result.per_scenario[1].episodes = 3;
  result.aggregate = result.per_scenario[0];
  result.aggregate.merge(result.per_scenario[1]);
  rpc::JobResultReply failed;
  failed.state = service::JobState::kFailed;
  failed.error = "solver: table too large";
  add_with_text("rpc job-result-reply", &rpc::encode_job_result_reply,
                &rpc::decode_job_result_reply,
                std::vector<rpc::JobResultReply>{result, failed},
                [](const rpc::JobResultReply& r) { return r.error; });
  add("rpc stats-reply", &service::to_stats_string, &service::stats_from_string,
      std::vector<service::ServiceStats>{service::ServiceStats{}});
  add("rpc cancel", &rpc::encode_cancel, &rpc::decode_cancel,
      std::vector<rpc::CancelRequest>{{17}});
  add("rpc cancel-reply", &rpc::encode_cancel_reply, &rpc::decode_cancel_reply,
      std::vector<rpc::CancelReply>{{true}, {false}});
  add("rpc shutdown", &rpc::encode_shutdown, &rpc::decode_shutdown,
      std::vector<rpc::ShutdownRequest>{
          {service::SchedulerService::StopMode::kDrain},
          {service::SchedulerService::StopMode::kCancelQueued}});
  add_with_text("rpc error", &rpc::encode_error, &rpc::decode_error,
                std::vector<rpc::ErrorReply>{{"nowsched-rpc payload: bad input"}},
                [](const rpc::ErrorReply& r) { return r.message; });

  // The payload-free messages: a decode either accepts or throws.
  MutationTarget shutdown_reply;
  shutdown_reply.name = "rpc shutdown-reply";
  shutdown_reply.reencode = [](const std::string& text) {
    rpc::decode_shutdown_reply(text);
    return rpc::encode_shutdown_reply();
  };
  shutdown_reply.identity = shutdown_reply.reencode;
  shutdown_reply.samples = {rpc::encode_shutdown_reply()};
  targets.push_back(shutdown_reply);
  MutationTarget stats_request;
  stats_request.name = "rpc stats";
  stats_request.reencode = [](const std::string& text) {
    rpc::decode_stats_request(text);
    return rpc::encode_stats_request();
  };
  stats_request.identity = stats_request.reencode;
  stats_request.samples = {rpc::encode_stats_request()};
  targets.push_back(stats_request);
  return targets;
}

TEST(Fuzz, MutatedTextRecordsAreRejectedOrRoundTrip) {
  // A mutant either throws std::invalid_argument, or decodes to a value v
  // with decode(encode(v)) == v (compared through `identity`). Any other
  // exception fails the property; a crash kills the test.
  const int cases = fuzz_cases(200);
  util::Rng rng(0x3A7A);
  for (const MutationTarget& target : mutation_targets()) {
    for (const std::string& sample : target.samples) {
      ASSERT_EQ(target.reencode(sample), sample) << target.name;
    }
    int rejected = 0;
    for (int i = 0; i < cases; ++i) {
      const std::string& sample =
          target.samples[static_cast<std::size_t>(rng.next_below(target.samples.size()))];
      std::string mutant = mutate(sample, rng);
      if (rng.next_below(4) == 0) mutant = mutate(mutant, rng);  // stacked
      std::string value;
      try {
        value = target.identity(mutant);
      } catch (const std::invalid_argument&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        FAIL() << target.name << " case " << i << " threw a non-invalid_argument ("
               << e.what() << ") on:\n" << mutant;
      }
      std::string back;
      ASSERT_NO_THROW(back = target.identity(target.reencode(mutant)))
          << target.name << " case " << i << " mutant:\n" << mutant;
      ASSERT_EQ(back, value) << target.name << " case " << i << " mutant:\n" << mutant;
    }
    EXPECT_GT(rejected, 0) << target.name;  // the mutations do reach the checks
  }
}

}  // namespace
}  // namespace nowsched
