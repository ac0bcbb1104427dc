// E17 — RPC round trip: what the nowsched-rpc v1 wire costs over the
// in-process JobTicket API. Two surfaces run the SAME workload:
//   * in-process — service::SchedulerService::submit_job / fetch_result;
//   * rpc        — rpc::Client → Unix socket → rpc::Server → an identical
//                  service instance, one daemon thread serving the socket.
// Two sections per surface: submit→result LATENCY of single-scenario jobs
// (p50/p99/max over per-call wall clocks) and batched THROUGHPUT (all jobs
// submitted before any result is fetched — the pipelined shape a real
// client uses). Banked totals are asserted bit-identical across surfaces:
// the wire moves results, it never changes them.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "harness/harness.h"

#include "rpc/client.h"
#include "rpc/server.h"
#include "service/scheduler_service.h"
#include "sim/batch_runner.h"
#include "util/stats.h"

namespace nowsched::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Cheap equalized scenarios: the session work is microseconds, so the
// measured gap between the surfaces is the wire, not the simulator.
std::vector<sim::ScenarioSpec> job_specs(std::size_t scenarios,
                                         std::uint64_t seed) {
  std::vector<sim::ScenarioSpec> specs;
  specs.reserve(scenarios);
  for (std::size_t i = 0; i < scenarios; ++i) {
    sim::ScenarioSpec spec;
    spec.policy = sim::PolicyKind::kEqualized;
    spec.owner = sim::OwnerKind::kPoisson;
    spec.owner_a = 900.0;
    spec.params = Params{24};
    spec.lifespan = 4096;
    spec.max_interrupts = 3;
    spec.seed = seed * 977 + i;
    specs.push_back(spec);
  }
  return specs;
}

service::ServiceOptions service_options(std::size_t jobs_bound) {
  service::ServiceOptions options;
  options.workers = 2;
  options.queue = service::QueueKind::kFifo;
  options.max_queued_jobs_per_tenant = jobs_bound + 1;  // admission open:
  options.max_queued_jobs_total = jobs_bound + 1;       // we bench the wire,
  options.max_pending_scenarios_per_tenant =            // not backpressure
      (jobs_bound + 1) * 64;
  return options;
}

struct SurfaceResult {
  util::Summary latency{std::vector<double>{}};  ///< per-call ms, latency section
  double throughput_wall_ms = 0.0;
  std::size_t throughput_scenarios = 0;
  Ticks banked_total = 0;  ///< across BOTH sections — the determinism pin
};

/// One submit→result call pair, abstracted over the surface. `submit`
/// returns the ticket (throws on rejection); `fetch` blocks until the job
/// is done and returns the job's banked work.
template <typename SubmitFn, typename FetchFn>
SurfaceResult run_surface(std::size_t latency_iters, std::size_t batch_jobs,
                          std::size_t batch_scenarios, SubmitFn&& submit,
                          FetchFn&& fetch) {
  SurfaceResult out;

  // Latency: one single-scenario job at a time, timed call-by-call.
  std::vector<double> samples;
  samples.reserve(latency_iters);
  for (std::size_t i = 0; i < latency_iters; ++i) {
    const auto start = Clock::now();
    const service::JobId id = submit(job_specs(1, /*seed=*/i));
    out.banked_total += fetch(id);
    samples.push_back(ms_since(start));
  }
  out.latency = util::Summary(std::move(samples));

  // Throughput: every job in flight before the first fetch.
  const auto start = Clock::now();
  std::vector<service::JobId> tickets;
  tickets.reserve(batch_jobs);
  for (std::size_t j = 0; j < batch_jobs; ++j) {
    tickets.push_back(submit(job_specs(batch_scenarios, /*seed=*/1000 + j)));
  }
  for (const service::JobId id : tickets) out.banked_total += fetch(id);
  out.throughput_wall_ms = ms_since(start);
  out.throughput_scenarios = batch_jobs * batch_scenarios;
  return out;
}

SurfaceResult run_inprocess(std::size_t latency_iters, std::size_t batch_jobs,
                            std::size_t batch_scenarios) {
  service::SchedulerService service(
      service_options(latency_iters + batch_jobs));
  SurfaceResult out = run_surface(
      latency_iters, batch_jobs, batch_scenarios,
      [&service](std::vector<sim::ScenarioSpec> specs) {
        service::TicketSubmission sub =
            service.submit_job("bench", std::move(specs));
        if (!sub.accepted()) {
          throw std::logic_error("E17: in-process submission rejected: " +
                                 sub.reason);
        }
        return sub.ticket.id;
      },
      [&service](service::JobId id) {
        service::FetchOutcome outcome = service.fetch_result(id);
        if (!outcome.done()) {
          throw std::logic_error("E17: in-process fetch not done: " +
                                 std::string(to_string(outcome.state)));
        }
        return outcome.result.batch.aggregate.banked_work;
      });
  service.shutdown(service::SchedulerService::StopMode::kDrain);
  return out;
}

SurfaceResult run_rpc(std::size_t latency_iters, std::size_t batch_jobs,
                      std::size_t batch_scenarios,
                      const std::string& socket_path) {
  service::SchedulerService service(
      service_options(latency_iters + batch_jobs));
  rpc::Server server(service, {socket_path, 16});
  std::thread serve_thread([&server] { server.serve(); });

  SurfaceResult out;
  {
    rpc::Client client(socket_path);
    out = run_surface(
        latency_iters, batch_jobs, batch_scenarios,
        [&client](std::vector<sim::ScenarioSpec> specs) {
          const rpc::SubmitReply reply = client.submit_batch("bench", specs);
          if (reply.status != service::SubmitStatus::kAccepted) {
            throw std::logic_error("E17: rpc submission rejected: " +
                                   reply.reason);
          }
          return reply.job_id;
        },
        [&client](service::JobId id) {
          const rpc::JobResultReply reply =
              client.fetch_result(id, /*wait=*/true);
          if (reply.state != service::JobState::kDone) {
            throw std::logic_error("E17: rpc fetch not done: " + reply.error);
          }
          return reply.aggregate.banked_work;
        });
    client.shutdown_server(service::SchedulerService::StopMode::kDrain);
  }
  serve_thread.join();
  return out;
}

void emit_surface(harness::Context& ctx, util::Table& out,
                  const std::string& surface, const SurfaceResult& r,
                  std::size_t batch_jobs, std::size_t batch_scenarios) {
  const double per_sec =
      r.throughput_wall_ms > 0
          ? static_cast<double>(r.throughput_scenarios) /
                (r.throughput_wall_ms / 1000.0)
          : 0.0;
  ctx.write_csv_row(
      {surface, std::to_string(r.latency.count()),
       util::Table::fmt(r.latency.quantile(0.5), 5),
       util::Table::fmt(r.latency.quantile(0.99), 5),
       util::Table::fmt(r.latency.max(), 5), std::to_string(batch_jobs),
       std::to_string(batch_scenarios),
       util::Table::fmt(r.throughput_wall_ms, 5), util::Table::fmt(per_sec, 5),
       std::to_string(static_cast<long long>(r.banked_total))});
  out.add_row({surface, util::Table::fmt(r.latency.quantile(0.5), 5),
               util::Table::fmt(r.latency.quantile(0.99), 5),
               util::Table::fmt(r.latency.max(), 5),
               util::Table::fmt(r.throughput_wall_ms, 5),
               util::Table::fmt(per_sec, 5)});
  ctx.metric(surface + "_latency_p50_ms", r.latency.quantile(0.5));
  ctx.metric(surface + "_latency_p99_ms", r.latency.quantile(0.99));
  ctx.metric(surface + "_scenarios_per_sec", per_sec);
}

void run(harness::Context& ctx) {
  const util::Flags& flags = ctx.flags();
  const std::size_t latency_iters =
      flags.get_count("latency-iters", ctx.quick() ? 48 : 400);
  const std::size_t batch_jobs = flags.get_count("batch-jobs", ctx.quick() ? 16 : 64);
  const std::size_t batch_scenarios =
      flags.get_count("batch-scenarios", ctx.quick() ? 4 : 8);

  harness::ScratchDir scratch("rpc_roundtrip");
  const std::string socket_path =
      (std::filesystem::path(scratch.path()) /
       ("e17-" + std::to_string(::getpid()) + ".sock"))
          .string();

  ctx.csv({"surface", "latency_calls", "latency_p50_ms", "latency_p99_ms",
           "latency_max_ms", "batch_jobs", "batch_scenarios", "batch_wall_ms",
           "scenarios_per_sec", "banked_total"});
  util::Table out({"surface", "p50 ms", "p99 ms", "max ms", "batch wall ms",
                   "scen/s"});

  const SurfaceResult inproc =
      run_inprocess(latency_iters, batch_jobs, batch_scenarios);
  const SurfaceResult rpc =
      run_rpc(latency_iters, batch_jobs, batch_scenarios, socket_path);
  if (inproc.banked_total != rpc.banked_total) {
    throw std::logic_error(
        "E17: rpc-mediated banked total diverged from in-process: wire "
        "protocol changed a result");
  }

  emit_surface(ctx, out, "inprocess", inproc, batch_jobs, batch_scenarios);
  emit_surface(ctx, out, "rpc", rpc, batch_jobs, batch_scenarios);
  const double overhead_p50 =
      rpc.latency.quantile(0.5) - inproc.latency.quantile(0.5);
  ctx.metric("wire_overhead_p50_ms", overhead_p50);

  ctx.table(out, std::to_string(latency_iters) +
                     " timed single-scenario submit->result calls, then " +
                     std::to_string(batch_jobs) + " jobs x " +
                     std::to_string(batch_scenarios) +
                     " scenarios submitted before any fetch");
  ctx.text(
      "Reading: both surfaces run the identical workload on identical\n"
      "service configurations; `banked_total` is asserted bit-identical, so\n"
      "every row difference is transport cost. The latency section is the\n"
      "per-call price of the socket round trip (frame encode + write +\n"
      "poll wakeup + reply); the batch section shows how pipelining many\n"
      "jobs before the first fetch amortizes it. wire_overhead_p50_ms in\n"
      "the JSON record is the headline number: rpc p50 minus in-process\n"
      "p50 for a single-scenario job.");
}

}  // namespace

const harness::Experiment& experiment_rpc_roundtrip() {
  static const harness::Experiment e{
      "E17", "rpc_roundtrip",
      "RPC round trip: wire-protocol cost over the in-process ticket API",
      "Drives the same workload through the in-process JobTicket API and "
      "through the full nowsched-rpc v1 stack (rpc::Client over a Unix "
      "socket to a one-thread rpc::Server daemon); reports p50/p99/max "
      "submit-to-result latency for single-scenario jobs, batched "
      "throughput with every job in flight before the first fetch, and "
      "asserts banked totals are bit-identical across surfaces — the wire "
      "moves results, it never changes them.",
      run};
  return e;
}

}  // namespace nowsched::bench
