#include "daemon.h"

#include <algorithm>
#include <deque>
#include <iostream>
#include <system_error>

#include "common.h"

namespace perfbench {

namespace {

/// Backpressure replies a job may draw before it counts as failed.
constexpr int kMaxSubmitRetries = 50;
constexpr auto kRetryPause = std::chrono::microseconds(200);

std::string socket_path(const ScratchDir& dir) { return (dir.path() / "daemon.sock").string(); }

}  // namespace

Daemon::Daemon(const JobSource& source, const std::filesystem::path& work_root,
               BakeCounts& bake)
    : source_(source),
      dir_(work_root),
      service_(service_options(source.workload(), prepare_store(source, dir_.path(), bake))),
      server_(service_, {socket_path(dir_), 16}),
      serve_thread_([this] {
        try {
          server_.serve();
        } catch (const std::exception& e) {
          // The client sees the dropped connection and counts its jobs failed.
          std::cerr << "perfbench: daemon loop failed: " << e.what() << "\n";
        }
        serving_ = false;
      }) {
  try {
    client_ = std::make_unique<ns::rpc::Client>(socket_path(dir_));
  } catch (...) {
    stop();
    throw;
  }
}

Daemon::~Daemon() {
  client_.reset();
  stop();
}

void Daemon::stop() {
  // Server::serve() resets its running flag on entry, so a stop() that
  // lands before the thread reaches serve() is lost: repeat until it ends.
  while (serving_) {
    server_.stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  serve_thread_.join();
}

PhaseCounts Daemon::warm_up() {
  PhaseCounts counts;
  if (!source_.workload().warm_up) return counts;
  for (std::size_t t = 0; t < source_.workload().tenants; ++t) {
    ++counts.attempted;
    try {
      const auto reply = client_->submit_batch(tenant_name(t), source_.class_specs());
      const bool done = reply.status == ns::service::SubmitStatus::kAccepted &&
                        client_->fetch_result(reply.job_id, true).state ==
                            ns::service::JobState::kDone;
      ++(done ? counts.succeeded : counts.failed);
    } catch (const ns::rpc::RpcError&) {
      ++counts.failed;
    } catch (const std::system_error&) {
      ++counts.failed;
    }
  }
  return counts;
}

LoopResult run_closed_loop(ns::rpc::Client& client, const JobSource& source,
                           std::uint64_t job_count, double seconds, std::size_t min_jobs,
                           bool traced) {
  struct Pending {
    JobRecord record;
    ns::service::JobId id = 0;
    Clock::time_point start;
  };

  LoopResult out;
  std::deque<Pending> outstanding;
  std::uint64_t next = 0;
  bool connection_lost = false;

  auto finish = [&](JobRecord& record, bool ok) {
    record.ok = ok;
    ++(ok ? out.counts.succeeded : out.counts.failed);
    out.jobs.push_back(record);
  };
  auto note_error = [&] { connection_lost = connection_lost || !client.connected(); };

  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_seconds();
  auto keep_sending = [&] {
    if (connection_lost) return false;
    if (job_count > 0) return next < job_count;
    return seconds_between(t0, Clock::now()) < seconds ||
           out.counts.succeeded + outstanding.size() < min_jobs;
  };

  for (;;) {
    if (job_count == 0) {
      const double now = seconds_between(t0, Clock::now());
      while (out.window_marks.size() <= static_cast<std::size_t>(kWindows) &&
             now >= seconds * static_cast<double>(out.window_marks.size()) / kWindows) {
        out.window_marks.emplace_back(now, process_cpu_seconds());
      }
    }
    while (outstanding.size() < source.workload().window && keep_sending()) {
      const Job job = source.job(next);
      Pending p;
      p.record.index = next++;
      p.record.scenarios = job.specs.size();
      ++out.counts.attempted;
      p.start = Clock::now();
      bool accepted = false;
      try {
        for (int attempt = 0;; ++attempt) {
          const Clock::time_point ts = traced ? Clock::now() : Clock::time_point{};
          const auto reply = client.submit_batch(tenant_name(job.tenant), job.specs);
          if (traced) p.record.submit_us = seconds_between(ts, Clock::now()) * 1e6;
          ++out.submits;
          if (reply.status == ns::service::SubmitStatus::kAccepted) {
            p.id = reply.job_id;
            accepted = true;
            break;
          }
          if (!ns::service::is_backpressure(reply.status)) break;
          ++out.rejected;
          if (attempt == kMaxSubmitRetries) break;
          std::this_thread::sleep_for(kRetryPause);
        }
      } catch (const ns::rpc::RpcError&) {
        note_error();
      } catch (const std::system_error&) {
        note_error();
      }
      if (accepted) {
        outstanding.push_back(std::move(p));
      } else {
        finish(p.record, false);
      }
    }
    if (outstanding.empty()) break;

    Pending p = std::move(outstanding.front());
    outstanding.pop_front();
    bool ok = false;
    try {
      const auto reply = client.fetch_result(p.id, true);
      const Clock::time_point done = Clock::now();
      p.record.latency_ms = seconds_between(p.start, done) * 1e3;
      p.record.done_s = seconds_between(t0, done);
      if (reply.state == ns::service::JobState::kDone &&
          reply.per_scenario.size() == p.record.scenarios) {
        p.record.service_ms = reply.latency_ms;
        p.record.digest = digest(reply.per_scenario, reply.aggregate);
        ok = true;
      }
    } catch (const ns::rpc::RpcError&) {
      note_error();
    } catch (const std::system_error&) {
      note_error();
    }
    finish(p.record, ok);
  }

  out.cpu_s = process_cpu_seconds() - cpu0;
  std::sort(out.jobs.begin(), out.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.index < b.index; });
  return out;
}

}  // namespace perfbench
