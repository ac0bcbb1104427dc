// The generated-case tier knob every fuzzing suite shares: the conformance
// battery, the property fuzzers, the kernel differential, the race battery
// and the rpc frame fuzzer all scale with NOWSCHED_FUZZ_CASES, so a nightly
// run deepens each of them at once.
#pragma once

#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/parse.h"

namespace nowsched::testing {

/// Number of generated cases for this process: NOWSCHED_FUZZ_CASES when set
/// (>= 1, strictly parsed — a malformed value throws rather than silently
/// shrinking coverage), else `fallback`.
inline int fuzz_cases(int fallback) {
  const char* env = std::getenv("NOWSCHED_FUZZ_CASES");
  if (env == nullptr || *env == '\0') return fallback;
  const auto v = util::parse_int64(env);
  if (!v || *v < 1 || *v > std::numeric_limits<int>::max()) {
    throw std::runtime_error(
        "NOWSCHED_FUZZ_CASES must be a positive int-range integer, got '" +
        std::string(env) + "'");
  }
  return static_cast<int>(*v);
}

}  // namespace nowsched::testing
