// nowsched-rpc v1 message vocabulary: the frozen MsgType wire codes and the
// text codecs for every request/reply payload.
//
// Payloads are versioned text records read under the ordered rule of
// util/text_record.h (DESIGN §8). Three formats are reused verbatim rather
// than re-invented:
//   - SubmitBatch embeds unmodified `nowsched-scenario v1` records, so the
//     wire path is bit-identical to replay files;
//   - StatsReply carries `nowsched-stats v1` (service/stats_format.h);
//   - status/state fields carry the frozen numeric wire codes from
//     service::SubmitStatus / service::JobState.
// Every decode_* throws std::invalid_argument on malformed input; the
// server catches and answers with an Error frame instead of dropping the
// connection (framing is intact — only the payload was bad).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/scheduler_service.h"
#include "sim/batch_runner.h"
#include "sim/metrics.h"

namespace nowsched::rpc {

/// FROZEN WIRE CODES — these bytes appear in the frame header's type field
/// and must never be renumbered or reused. Requests are odd, their replies
/// even (except the standalone Error reply).
enum class MsgType : std::uint8_t {
  kSubmitBatch = 1,
  kSubmitReply = 2,
  kJobStatus = 3,
  kJobStatusReply = 4,
  kJobResult = 5,
  kJobResultReply = 6,
  kStats = 7,
  kStatsReply = 8,
  kCancelJob = 9,
  kCancelReply = 10,
  kShutdown = 11,
  kShutdownReply = 12,
  kError = 13,  ///< reply to any request whose payload failed to decode
};

const char* to_string(MsgType type);
std::optional<MsgType> msg_type_from_wire(std::uint8_t code) noexcept;
constexpr std::uint8_t wire_code(MsgType type) noexcept {
  return static_cast<std::uint8_t>(type);
}

// ---------------------------------------------------------------------------
// SubmitBatch (tenant + scenario batch) -> SubmitReply (status + ticket id)
// ---------------------------------------------------------------------------

struct SubmitBatchRequest {
  std::string tenant;
  std::vector<sim::ScenarioSpec> specs;
};

struct SubmitReply {
  service::SubmitStatus status = service::SubmitStatus::kAccepted;
  std::string reason;           ///< rejection diagnostic; empty when accepted
  service::JobId job_id = 0;    ///< the ticket; 0 when rejected
};

std::string encode_submit_batch(const SubmitBatchRequest& req);
SubmitBatchRequest decode_submit_batch(const std::string& payload);
std::string encode_submit_reply(const SubmitReply& reply);
SubmitReply decode_submit_reply(const std::string& payload);

// ---------------------------------------------------------------------------
// JobStatus (poll) -> JobStatusReply
// ---------------------------------------------------------------------------

struct JobStatusRequest {
  service::JobId job_id = 0;
};

struct JobStatusReply {
  service::JobState state = service::JobState::kUnknown;
};

std::string encode_job_status(const JobStatusRequest& req);
JobStatusRequest decode_job_status(const std::string& payload);
std::string encode_job_status_reply(const JobStatusReply& reply);
JobStatusReply decode_job_status_reply(const std::string& payload);

// ---------------------------------------------------------------------------
// JobResult (fetch, optionally parking until terminal) -> JobResultReply
// ---------------------------------------------------------------------------

struct JobResultRequest {
  service::JobId job_id = 0;
  /// When true the server parks the request and replies once the job is
  /// terminal; when false a pending job answers immediately with its state.
  bool wait = true;
};

/// The full service::JobResult flattened for the wire. Every numeric field
/// of every sim::SessionMetrics crosses as a decimal integer and latency as
/// a round-trip-exact double, so a decoded reply is bit-identical to the
/// in-process result — the property the rpc conformance differential pins.
struct JobResultReply {
  service::JobState state = service::JobState::kUnknown;
  std::string error;  ///< set when state is kFailed or kCancelled

  // Meaningful only when state == kDone.
  std::string tenant;
  service::JobId job_id = 0;
  std::uint64_t completion_index = 0;
  double latency_ms = 0.0;
  std::vector<sim::SessionMetrics> per_scenario;
  sim::SessionMetrics aggregate;
  solver::SolveCacheStats cache;
};

std::string encode_job_result(const JobResultRequest& req);
JobResultRequest decode_job_result(const std::string& payload);
std::string encode_job_result_reply(const JobResultReply& reply);
JobResultReply decode_job_result_reply(const std::string& payload);

// ---------------------------------------------------------------------------
// Stats -> StatsReply (payload is `nowsched-stats v1` text, reused verbatim)
// ---------------------------------------------------------------------------

std::string encode_stats_request();
void decode_stats_request(const std::string& payload);  ///< throws unless empty

// ---------------------------------------------------------------------------
// CancelJob -> CancelReply
// ---------------------------------------------------------------------------

struct CancelRequest {
  service::JobId job_id = 0;
};

struct CancelReply {
  bool cancelled = false;  ///< false: unknown id or job already past queued
};

std::string encode_cancel(const CancelRequest& req);
CancelRequest decode_cancel(const std::string& payload);
std::string encode_cancel_reply(const CancelReply& reply);
CancelReply decode_cancel_reply(const std::string& payload);

// ---------------------------------------------------------------------------
// Shutdown -> ShutdownReply
// ---------------------------------------------------------------------------

struct ShutdownRequest {
  service::SchedulerService::StopMode mode = service::SchedulerService::StopMode::kDrain;
};

std::string encode_shutdown(const ShutdownRequest& req);
ShutdownRequest decode_shutdown(const std::string& payload);
std::string encode_shutdown_reply();
void decode_shutdown_reply(const std::string& payload);

// ---------------------------------------------------------------------------
// Error (server -> client, any request whose payload failed to decode)
// ---------------------------------------------------------------------------

struct ErrorReply {
  std::string message;
};

std::string encode_error(const ErrorReply& reply);
ErrorReply decode_error(const std::string& payload);

}  // namespace nowsched::rpc
