#include "rpc/protocol.h"

#include <stdexcept>
#include <string_view>

#include "sim/scenario_gen.h"
#include "util/text_record.h"

namespace nowsched::rpc {

namespace {

constexpr const char* kFormat = "nowsched-rpc payload";

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument(std::string(kFormat) + ": " + what);
}

/// status/state fields carry the frozen numeric wire codes.
template <auto Member, auto FromWire>
constexpr auto wire_code_field(const char* key) {
  using R = typename util::MemberOf<decltype(Member)>::Record;
  return util::Field<R>{
      key,
      [](std::string& out, const R& r) {
        util::append_value(out, service::wire_code(r.*Member));
      },
      [](R& r, const std::string& v) {
        const auto code = FromWire(util::parse_value<int>(v));
        if (!code) throw std::invalid_argument("unknown wire code");
        r.*Member = *code;
      }};
}

/// Free-text fields (reason/error/message) occupy the rest of one line; a
/// newline smuggled in via an exception message would corrupt the record,
/// so the encoder flattens them and the decoder refuses a stray '\r'.
template <auto Member>
constexpr auto one_line_field(const char* key) {
  using R = typename util::MemberOf<decltype(Member)>::Record;
  return util::Field<R>{
      key,
      [](std::string& out, const R& r) {
        for (const char c : r.*Member) out += (c == '\n' || c == '\r') ? ' ' : c;
      },
      [](R& r, const std::string& v) {
        if (v.find('\r') != std::string::npos) throw std::invalid_argument("stray '\\r'");
        r.*Member = v;
      }};
}

constexpr util::Field<SubmitReply> kSubmitReplyFields[] = {
    wire_code_field<&SubmitReply::status, &service::submit_status_from_wire>("status"),
    one_line_field<&SubmitReply::reason>("reason"),
    util::field<&SubmitReply::job_id>("job_id"),
};
constexpr util::Field<JobStatusRequest> kJobStatusFields[] = {
    util::field<&JobStatusRequest::job_id>("job_id"),
};
constexpr util::Field<JobStatusReply> kJobStatusReplyFields[] = {
    wire_code_field<&JobStatusReply::state, &service::job_state_from_wire>("state"),
};
constexpr util::Field<JobResultRequest> kJobResultFields[] = {
    util::field<&JobResultRequest::job_id>("job_id"),
    util::field<&JobResultRequest::wait>("wait"),
};
constexpr util::Field<JobResultReply> kResultStateFields[] = {
    wire_code_field<&JobResultReply::state, &service::job_state_from_wire>("state"),
};
constexpr util::Field<JobResultReply> kResultErrorFields[] = {
    one_line_field<&JobResultReply::error>("error"),
};
constexpr util::Field<JobResultReply> kResultDoneFields[] = {
    util::field<&JobResultReply::tenant>("tenant"),
    util::field<&JobResultReply::job_id>("job_id"),
    util::field<&JobResultReply::completion_index>("completion_index"),
    util::field<&JobResultReply::latency_ms>("latency_ms"),
};
constexpr util::Field<CancelRequest> kCancelFields[] = {
    util::field<&CancelRequest::job_id>("job_id"),
};
constexpr util::Field<CancelReply> kCancelReplyFields[] = {
    util::field<&CancelReply::cancelled>("cancelled"),
};
constexpr util::Field<ShutdownRequest> kShutdownFields[] = {
    {"mode",
     [](std::string& out, const ShutdownRequest& r) {
       out += r.mode == service::SchedulerService::StopMode::kDrain ? "drain" : "cancel";
     },
     [](ShutdownRequest& r, const std::string& v) {
       if (v != "drain" && v != "cancel") {
         throw std::invalid_argument("unknown shutdown mode (expected drain|cancel)");
       }
       r.mode = v == "drain" ? service::SchedulerService::StopMode::kDrain
                             : service::SchedulerService::StopMode::kCancelQueued;
     }},
};
constexpr util::Field<ErrorReply> kErrorFields[] = {
    one_line_field<&ErrorReply::message>("message"),
};

/// A whole single-table payload: the header, then every field in order.
template <typename R, std::size_t N>
R decode_fields(const std::string& payload, const char* header,
                const util::Field<R> (&fields)[N]) {
  util::RecordReader r(kFormat, payload, header);
  R record;
  r.expect_fields(fields, record);
  r.expect_eof();
  return record;
}

// SessionMetrics crosses as its field table's values, space-separated in
// table order — all-integer, so bit-exactness is trivial.
void append_metrics(std::string& out, const char* key, const sim::SessionMetrics& m) {
  out += key;
  out += '=';
  const char* sep = "";
  for (const auto& f : sim::kSessionMetricsFields) {
    out += sep;
    f.write(out, m);
    sep = " ";
  }
  out += '\n';
}

/// Copies the next token of `rest` into `token` and consumes it, splitting
/// at the blanks `std::istream >>` skips in the C locale (' ' and '\t'
/// through '\r'); false when only blanks are left.
bool next_token(std::string_view& rest, std::string& token) {
  const auto blank = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  std::size_t begin = 0;
  while (begin < rest.size() && blank(rest[begin])) ++begin;
  if (begin == rest.size()) return false;
  std::size_t end = begin;
  while (end < rest.size() && !blank(rest[end])) ++end;
  token.assign(rest.substr(begin, end - begin));
  rest.remove_prefix(end);
  return true;
}

/// `token` is scratch space, reused across lines.
sim::SessionMetrics expect_metrics(util::RecordReader& r, const char* key,
                                   std::string& token) {
  std::string_view rest = r.expect_value(key);
  sim::SessionMetrics m;
  for (const auto& f : sim::kSessionMetricsFields) {
    if (!next_token(rest, token)) r.fail("too few metrics fields");
    r.checked([&] { f.read(m, token); });
  }
  if (next_token(rest, token)) r.fail("too many metrics fields");
  return m;
}

}  // namespace

const char* to_string(MsgType type) {
  switch (type) {
    case MsgType::kSubmitBatch: return "submit-batch";
    case MsgType::kSubmitReply: return "submit-reply";
    case MsgType::kJobStatus: return "job-status";
    case MsgType::kJobStatusReply: return "job-status-reply";
    case MsgType::kJobResult: return "job-result";
    case MsgType::kJobResultReply: return "job-result-reply";
    case MsgType::kStats: return "stats";
    case MsgType::kStatsReply: return "stats-reply";
    case MsgType::kCancelJob: return "cancel-job";
    case MsgType::kCancelReply: return "cancel-reply";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kShutdownReply: return "shutdown-reply";
    case MsgType::kError: return "error";
  }
  return "?";
}

std::optional<MsgType> msg_type_from_wire(std::uint8_t code) noexcept {
  if (code >= 1 && code <= 13) return static_cast<MsgType>(code);
  return std::nullopt;
}

// --------------------------------------------------------------------------
// SubmitBatch
// --------------------------------------------------------------------------

std::string encode_submit_batch(const SubmitBatchRequest& req) {
  // The tenant id is a line-oriented field but, unlike reason/error/message,
  // it is an identifier (quota bucket key), so flattening would silently
  // change which tenant gets billed — reject instead.
  if (req.tenant.find_first_of("\r\n") != std::string::npos) {
    bad("tenant id must not contain newline characters");
  }
  // A scenario record is about 200 bytes; 256 leaves room for long doubles.
  std::string out;
  out.reserve(64 + req.tenant.size() + 256 * req.specs.size());
  out += "nowsched-submit v1\ntenant=";
  out += req.tenant;
  out += "\nscenarios=";
  util::append_value(out, req.specs.size());
  out += '\n';
  for (const sim::ScenarioSpec& spec : req.specs) {
    out += '\n';
    sim::append_replay(out, spec);
  }
  return out;
}

SubmitBatchRequest decode_submit_batch(const std::string& payload) {
  util::RecordReader r(kFormat, payload, "nowsched-submit v1");
  SubmitBatchRequest req;
  req.tenant = r.expect_value("tenant");
  if (req.tenant.empty() || req.tenant.find('\r') != std::string::npos) {
    r.fail("tenant id must be non-empty and free of newline characters");
  }
  // A valid scenario record is >130 bytes of key=value lines.
  const std::size_t count = r.expect_count("scenarios", 64);
  req.specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // block() consumes the blank line that terminates it, so only the first
    // record is still preceded by an unconsumed separator.
    if (i == 0) r.expect_blank();
    const std::string_view record = r.block();
    if (record.empty()) bad("missing scenario record " + std::to_string(i));
    req.specs.push_back(sim::scenario_from_replay(record));
  }
  r.expect_eof();
  return req;
}

std::string encode_submit_reply(const SubmitReply& reply) {
  return util::write_record("nowsched-submit-reply v1", kSubmitReplyFields, reply);
}

SubmitReply decode_submit_reply(const std::string& payload) {
  return decode_fields(payload, "nowsched-submit-reply v1", kSubmitReplyFields);
}

// --------------------------------------------------------------------------
// JobStatus
// --------------------------------------------------------------------------

std::string encode_job_status(const JobStatusRequest& req) {
  return util::write_record("nowsched-job-status v1", kJobStatusFields, req);
}

JobStatusRequest decode_job_status(const std::string& payload) {
  return decode_fields(payload, "nowsched-job-status v1", kJobStatusFields);
}

std::string encode_job_status_reply(const JobStatusReply& reply) {
  return util::write_record("nowsched-job-status-reply v1", kJobStatusReplyFields,
                            reply);
}

JobStatusReply decode_job_status_reply(const std::string& payload) {
  return decode_fields(payload, "nowsched-job-status-reply v1", kJobStatusReplyFields);
}

// --------------------------------------------------------------------------
// JobResult
// --------------------------------------------------------------------------

std::string encode_job_result(const JobResultRequest& req) {
  return util::write_record("nowsched-job-result v1", kJobResultFields, req);
}

JobResultRequest decode_job_result(const std::string& payload) {
  return decode_fields(payload, "nowsched-job-result v1", kJobResultFields);
}

std::string encode_job_result_reply(const JobResultReply& reply) {
  std::string out =
      util::write_record("nowsched-job-result-reply v1", kResultStateFields, reply);
  switch (reply.state) {
    case service::JobState::kFailed:
    case service::JobState::kCancelled:
      util::write_fields(out, kResultErrorFields, reply);
      return out;
    case service::JobState::kDone:
      break;
    default:
      return out;  // pending / unknown: the state line says it all
  }
  util::write_fields(out, kResultDoneFields, reply);
  util::write_fields(out, solver::kSolveCacheStatsFields, reply.cache);
  out += "scenarios=";
  util::append_value(out, reply.per_scenario.size());
  out += '\n';
  for (const sim::SessionMetrics& m : reply.per_scenario) {
    append_metrics(out, "metrics", m);
  }
  append_metrics(out, "aggregate", reply.aggregate);
  return out;
}

JobResultReply decode_job_result_reply(const std::string& payload) {
  util::RecordReader r(kFormat, payload, "nowsched-job-result-reply v1");
  JobResultReply reply;
  r.expect_fields(kResultStateFields, reply);
  switch (reply.state) {
    case service::JobState::kFailed:
    case service::JobState::kCancelled:
      r.expect_fields(kResultErrorFields, reply);
      r.expect_eof();
      return reply;
    case service::JobState::kDone:
      break;
    default:
      r.expect_eof();
      return reply;
  }
  r.expect_fields(kResultDoneFields, reply);
  r.expect_fields(solver::kSolveCacheStatsFields, reply.cache);
  // Each metrics line is at least 32 bytes ("metrics=" + 12 integers + 11
  // separators + newline).
  const std::size_t count = r.expect_count("scenarios", 32);
  reply.per_scenario.reserve(count);
  std::string token;
  for (std::size_t i = 0; i < count; ++i) {
    reply.per_scenario.push_back(expect_metrics(r, "metrics", token));
  }
  reply.aggregate = expect_metrics(r, "aggregate", token);
  r.expect_eof();
  return reply;
}

// --------------------------------------------------------------------------
// Stats
// --------------------------------------------------------------------------

std::string encode_stats_request() { return std::string(); }

void decode_stats_request(const std::string& payload) {
  if (!payload.empty()) bad("stats request carries no payload");
}

// --------------------------------------------------------------------------
// CancelJob
// --------------------------------------------------------------------------

std::string encode_cancel(const CancelRequest& req) {
  return util::write_record("nowsched-cancel v1", kCancelFields, req);
}

CancelRequest decode_cancel(const std::string& payload) {
  return decode_fields(payload, "nowsched-cancel v1", kCancelFields);
}

std::string encode_cancel_reply(const CancelReply& reply) {
  return util::write_record("nowsched-cancel-reply v1", kCancelReplyFields, reply);
}

CancelReply decode_cancel_reply(const std::string& payload) {
  return decode_fields(payload, "nowsched-cancel-reply v1", kCancelReplyFields);
}

// --------------------------------------------------------------------------
// Shutdown
// --------------------------------------------------------------------------

std::string encode_shutdown(const ShutdownRequest& req) {
  return util::write_record("nowsched-shutdown v1", kShutdownFields, req);
}

ShutdownRequest decode_shutdown(const std::string& payload) {
  return decode_fields(payload, "nowsched-shutdown v1", kShutdownFields);
}

std::string encode_shutdown_reply() { return "nowsched-shutdown-reply v1\n"; }

void decode_shutdown_reply(const std::string& payload) {
  util::RecordReader r(kFormat, payload, "nowsched-shutdown-reply v1");
  r.expect_eof();
}

// --------------------------------------------------------------------------
// Error
// --------------------------------------------------------------------------

std::string encode_error(const ErrorReply& reply) {
  return util::write_record("nowsched-error v1", kErrorFields, reply);
}

ErrorReply decode_error(const std::string& payload) {
  return decode_fields(payload, "nowsched-error v1", kErrorFields);
}

}  // namespace nowsched::rpc
