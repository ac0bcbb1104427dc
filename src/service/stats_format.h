// Versioned text serialization for service::ServiceStats — the
// `nowsched-stats v1` format shared by the Stats RPC (rpc::Server encodes a
// StatsReply payload with it) and the examples/sched_service printer, so
// the two surfaces can never drift apart.
//
// A keyed record (DESIGN §8, util/text_record.h) with one global section
// and one section per tenant. stats_from_string(to_stats_string(s))
// reproduces every field bit-identically.
#pragma once

#include <string>

#include "service/service_stats.h"

namespace nowsched::service {

/// Canonical `nowsched-stats v1` text for a stats snapshot. Deterministic:
/// tenants appear in the snapshot's order (SchedulerService::stats() sorts
/// them by id), doubles print round-trip exact.
std::string to_stats_string(const ServiceStats& stats);

/// Strict inverse of to_stats_string. Throws std::invalid_argument on any
/// breach of the keyed rule or a tenant-count mismatch.
ServiceStats stats_from_string(const std::string& text);

}  // namespace nowsched::service
