#include "service/stats_format.h"

#include <cstdint>
#include <stdexcept>

#include "util/text_record.h"

namespace nowsched::service {

namespace {

constexpr const char* kStatsHeader = "nowsched-stats v1";

constexpr util::Field<ServiceStats> kGlobalFields[] = {
    util::field<&ServiceStats::queue_policy>("queue_policy"),
    util::field<&ServiceStats::workers>("workers"),
    util::field<&ServiceStats::queued_jobs>("queued_jobs"),
    util::field<&ServiceStats::inflight_jobs>("inflight_jobs"),
    util::field<&ServiceStats::submitted_jobs>("submitted_jobs"),
    util::field<&ServiceStats::accepted_jobs>("accepted_jobs"),
    util::field<&ServiceStats::rejected_jobs>("rejected_jobs"),
    util::field<&ServiceStats::completed_jobs>("completed_jobs"),
    util::field<&ServiceStats::failed_jobs>("failed_jobs"),
    util::field<&ServiceStats::cancelled_jobs>("cancelled_jobs"),
    util::field<&ServiceStats::completed_scenarios>("completed_scenarios"),
};

constexpr util::Field<TenantStats> kTenantFields[] = {
    util::field<&TenantStats::quota_bytes>("quota_bytes"),
    util::field<&TenantStats::submitted_jobs>("submitted_jobs"),
    util::field<&TenantStats::accepted_jobs>("accepted_jobs"),
    util::field<&TenantStats::rejected_tenant_full>("rejected_tenant_full"),
    util::field<&TenantStats::rejected_global_full>("rejected_global_full"),
    util::field<&TenantStats::rejected_throttled>("rejected_throttled"),
    util::field<&TenantStats::rejected_invalid>("rejected_invalid"),
    util::field<&TenantStats::rejected_shutdown>("rejected_shutdown"),
    util::field<&TenantStats::completed_jobs>("completed_jobs"),
    util::field<&TenantStats::failed_jobs>("failed_jobs"),
    util::field<&TenantStats::cancelled_jobs>("cancelled_jobs"),
    util::field<&TenantStats::submitted_scenarios>("submitted_scenarios"),
    util::field<&TenantStats::completed_scenarios>("completed_scenarios"),
    util::field<&TenantStats::queued_jobs>("queued_jobs"),
    util::field<&TenantStats::inflight_jobs>("inflight_jobs"),
    util::field<&TenantStats::pending_scenarios>("pending_scenarios"),
};

constexpr util::Field<LatencySummary> kLatencyFields[] = {
    util::field<&LatencySummary::count>("latency_count"),
    util::field<&LatencySummary::p50_ms>("latency_p50_ms"),
    util::field<&LatencySummary::p90_ms>("latency_p90_ms"),
    util::field<&LatencySummary::p99_ms>("latency_p99_ms"),
    util::field<&LatencySummary::max_ms>("latency_max_ms"),
};

}  // namespace

std::string to_stats_string(const ServiceStats& stats) {
  std::string out = util::write_record(kStatsHeader, kGlobalFields, stats);
  util::write_fields(out, kLatencyFields, stats.latency);
  out += "tenants=" + std::to_string(stats.tenants.size()) + '\n';
  for (const TenantStats& t : stats.tenants) {
    out += "tenant=" + t.tenant + '\n';
    util::write_fields(out, kTenantFields, t);
    util::write_fields(out, solver::kSolveCacheStatsFields, t.cache);
    util::write_fields(out, kLatencyFields, t.latency);
  }
  return out;
}

ServiceStats stats_from_string(const std::string& text) {
  util::RecordReader in("nowsched-stats", text, kStatsHeader);
  ServiceStats out;
  // The global section runs until the `tenants=N` line, after which exactly
  // N sections follow, each opened by its `tenant=<id>` line.
  if (!in.section("tenants", util::bind(kGlobalFields, out),
                  util::bind(kLatencyFields, out.latency))) {
    in.fail_record("missing tenants=N count line");
  }
  const auto declared = in.value_as<std::uint64_t>();
  bool more = in.next();
  while (more) {
    if (in.key() != "tenant") in.fail("tenant field before any tenant= line");
    if (in.value().empty()) in.fail("empty tenant id");
    TenantStats& t = out.tenants.emplace_back();
    t.tenant = in.value();
    more = in.section("tenant", util::bind(kTenantFields, t),
                      util::bind(solver::kSolveCacheStatsFields, t.cache),
                      util::bind(kLatencyFields, t.latency));
  }
  if (out.tenants.size() != declared) {
    in.fail_record("tenant count mismatch (declared " + std::to_string(declared) +
                   ", found " + std::to_string(out.tenants.size()) + ")");
  }
  return out;
}

}  // namespace nowsched::service
