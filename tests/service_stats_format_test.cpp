// `nowsched-stats v1` text serialization: strict round-trips (the format
// the Stats RPC and sched_service both serve), and hard rejection of
// malformed snapshots — unknown keys, duplicates, missing fields, tenant
// count mismatches. Same contract style as the `nowsched-scenario v1`
// replay format.
#include "service/stats_format.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "service/scheduler_service.h"
#include "service/service_stats.h"

namespace nowsched::service {
namespace {

ServiceStats sample_stats() {
  ServiceStats stats;
  stats.queue_policy = "drr";
  stats.workers = 4;
  stats.queued_jobs = 2;
  stats.inflight_jobs = 1;
  stats.submitted_jobs = 40;
  stats.accepted_jobs = 37;
  stats.rejected_jobs = 3;
  stats.completed_jobs = 30;
  stats.failed_jobs = 1;
  stats.cancelled_jobs = 3;
  stats.completed_scenarios = 240;
  stats.latency = {30, 1.5, 4.0, 9.0 + 1e-13, 12.5};

  TenantStats a;
  a.tenant = "alpha";
  a.quota_bytes = 4 << 20;
  a.submitted_jobs = 25;
  a.accepted_jobs = 23;
  a.rejected_tenant_full = 1;
  a.rejected_throttled = 1;
  a.completed_jobs = 20;
  a.failed_jobs = 1;
  a.cancelled_jobs = 1;
  a.submitted_scenarios = 184;
  a.completed_scenarios = 160;
  a.queued_jobs = 1;
  a.inflight_jobs = 0;
  a.pending_scenarios = 8;
  a.cache = {100, 20, 5, 2, 3, 17, 123456};
  a.latency = {20, 1.25, 3.5, 8.75, 12.5};

  TenantStats b;
  b.tenant = "beta";
  b.submitted_jobs = 15;
  b.accepted_jobs = 14;
  b.rejected_global_full = 1;
  b.completed_jobs = 10;
  b.cancelled_jobs = 2;
  b.submitted_scenarios = 112;
  b.completed_scenarios = 80;
  b.queued_jobs = 1;
  b.inflight_jobs = 1;
  b.pending_scenarios = 16;
  b.latency = {10, 2.0, 5.0, 9.5, 11.0};

  stats.tenants = {a, b};
  return stats;
}

TEST(StatsFormat, HeaderAndRoundTripAreExact) {
  const ServiceStats stats = sample_stats();
  const std::string text = to_stats_string(stats);
  EXPECT_EQ(text.rfind("nowsched-stats v1\n", 0), 0u);

  // Strict round-trip: parse then re-serialize reproduces the text byte for
  // byte — %.17g doubles survive, field order is canonical.
  const ServiceStats parsed = stats_from_string(text);
  EXPECT_EQ(to_stats_string(parsed), text);

  EXPECT_EQ(parsed.queue_policy, "drr");
  EXPECT_EQ(parsed.workers, 4u);
  EXPECT_EQ(parsed.submitted_jobs, 40u);
  EXPECT_EQ(parsed.latency.count, 30u);
  EXPECT_EQ(parsed.latency.p99_ms, stats.latency.p99_ms);  // bit-exact
  ASSERT_EQ(parsed.tenants.size(), 2u);
  EXPECT_EQ(parsed.tenants[0].tenant, "alpha");
  EXPECT_EQ(parsed.tenants[0].cache.resident_bytes, 123456u);
  EXPECT_EQ(parsed.tenants[0].rejected_total(), 2u);
  EXPECT_EQ(parsed.tenants[1].tenant, "beta");
  EXPECT_EQ(parsed.tenants[1].pending_scenarios, 16u);
}

TEST(StatsFormat, EncoderOutputIsPinnedByteForByte) {
  // Golden bytes: the wire/printer format is a contract, so any change to
  // key order, number formatting or section layout must show up here.
  EXPECT_EQ(to_stats_string(sample_stats()), R"(nowsched-stats v1
queue_policy=drr
workers=4
queued_jobs=2
inflight_jobs=1
submitted_jobs=40
accepted_jobs=37
rejected_jobs=3
completed_jobs=30
failed_jobs=1
cancelled_jobs=3
completed_scenarios=240
latency_count=30
latency_p50_ms=1.5
latency_p90_ms=4
latency_p99_ms=9.0000000000000995
latency_max_ms=12.5
tenants=2
tenant=alpha
quota_bytes=4194304
submitted_jobs=25
accepted_jobs=23
rejected_tenant_full=1
rejected_global_full=0
rejected_throttled=1
rejected_invalid=0
rejected_shutdown=0
completed_jobs=20
failed_jobs=1
cancelled_jobs=1
submitted_scenarios=184
completed_scenarios=160
queued_jobs=1
inflight_jobs=0
pending_scenarios=8
cache_hits=100
cache_misses=20
cache_store_hits=5
cache_spills=2
cache_evictions=3
cache_entries=17
cache_resident_bytes=123456
latency_count=20
latency_p50_ms=1.25
latency_p90_ms=3.5
latency_p99_ms=8.75
latency_max_ms=12.5
tenant=beta
quota_bytes=0
submitted_jobs=15
accepted_jobs=14
rejected_tenant_full=0
rejected_global_full=1
rejected_throttled=0
rejected_invalid=0
rejected_shutdown=0
completed_jobs=10
failed_jobs=0
cancelled_jobs=2
submitted_scenarios=112
completed_scenarios=80
queued_jobs=1
inflight_jobs=1
pending_scenarios=16
cache_hits=0
cache_misses=0
cache_store_hits=0
cache_spills=0
cache_evictions=0
cache_entries=0
cache_resident_bytes=0
latency_count=10
latency_p50_ms=2
latency_p90_ms=5
latency_p99_ms=9.5
latency_max_ms=11
)");
}

TEST(StatsFormat, ZeroTenantSnapshotRoundTrips) {
  ServiceStats stats;
  stats.queue_policy = "fifo";
  const std::string text = to_stats_string(stats);
  const ServiceStats parsed = stats_from_string(text);
  EXPECT_EQ(to_stats_string(parsed), text);
  EXPECT_TRUE(parsed.tenants.empty());
}

TEST(StatsFormat, LiveServiceSnapshotRoundTrips) {
  // Not just hand-built structs: a snapshot from a real service (manual
  // mode, one completed job) must survive the round trip too.
  ServiceOptions options;
  options.workers = 0;
  SchedulerService service(options);
  sim::ScenarioSpec spec;
  spec.policy = sim::PolicyKind::kEqualized;
  spec.owner = sim::OwnerKind::kPoisson;
  spec.owner_a = 500.0;
  spec.params = Params{16};
  spec.lifespan = 512;
  spec.max_interrupts = 2;
  spec.seed = 11;
  TicketSubmission sub = service.submit_job("gamma", {spec});
  ASSERT_TRUE(sub.accepted());
  ASSERT_TRUE(service.run_next());
  (void)service.fetch_result(sub.ticket.id);

  const std::string text = to_stats_string(service.stats());
  EXPECT_EQ(to_stats_string(stats_from_string(text)), text);
}

TEST(StatsFormat, RejectsMalformedText) {
  EXPECT_THROW(stats_from_string(""), std::invalid_argument);
  EXPECT_THROW(stats_from_string("nowsched-stats v2\n"), std::invalid_argument);
  EXPECT_THROW(stats_from_string("nowsched-stats v1"), std::invalid_argument);

  const std::string good = to_stats_string(sample_stats());

  // Unknown key.
  EXPECT_THROW(stats_from_string(good + "bogus_key=1\n"), std::invalid_argument);

  // Duplicate key: repeat the workers= line, then alpha's cache_spills=.
  for (const char* key : {"workers=", "cache_spills="}) {
    std::string dup = good;
    const std::size_t pos = dup.find(key);
    const std::size_t end = dup.find('\n', pos);
    dup.insert(end + 1, dup.substr(pos, end - pos + 1));
    EXPECT_THROW(stats_from_string(dup), std::invalid_argument) << key;
  }

  // Missing key: drop the queued_jobs= line entirely.
  {
    std::string missing = good;
    const std::size_t pos = missing.find("queued_jobs=");
    const std::size_t end = missing.find('\n', pos);
    missing.erase(pos, end - pos + 1);
    EXPECT_THROW(stats_from_string(missing), std::invalid_argument);
  }

  // Tenant count mismatch: claim one more tenant than is present.
  {
    std::string short_count = good;
    const std::size_t pos = short_count.find("tenants=2");
    ASSERT_NE(pos, std::string::npos);
    short_count.replace(pos, 9, "tenants=3");
    EXPECT_THROW(stats_from_string(short_count), std::invalid_argument);
  }

  // Non-numeric counter.
  {
    std::string bad = good;
    const std::size_t pos = bad.find("submitted_jobs=");
    const std::size_t end = bad.find('\n', pos);
    bad.replace(pos, end - pos, "submitted_jobs=many");
    EXPECT_THROW(stats_from_string(bad), std::invalid_argument);
  }
}

TEST(StatsFormat, SkipsBlankAndCommentLinesLikeEveryKeyedRecord) {
  const std::string text = to_stats_string(sample_stats());
  std::string annotated = text;
  annotated.insert(annotated.find("tenant=beta"), "\n# second tenant\n");
  annotated.insert(annotated.find('\n') + 1, "# captured by hand\n\n");
  EXPECT_EQ(to_stats_string(stats_from_string(annotated)), text);
  // Annotations go after the header, never before it.
  EXPECT_THROW(stats_from_string("# note\n" + text), std::invalid_argument);
}

}  // namespace
}  // namespace nowsched::service
