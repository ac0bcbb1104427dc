// The nowsched scheduler daemon: a resident SchedulerService behind the
// nowsched-rpc v1 Unix-domain socket, plus the client verbs that talk to it.
//
// Serve (default): run the daemon until SIGINT/SIGTERM or a Shutdown RPC.
//   ./nowsched_daemon --socket=/tmp/nowsched.sock --workers=4 --queue=drr
//                     [--shared-store-dir=DIR [--store-readonly]]
//
// Client: submit a workload to a running daemon, fetch every result, audit.
//   ./nowsched_daemon --client --socket=/tmp/nowsched.sock --tenant=alpha
//                     --jobs=16 --scenarios=4 --seed=7
//
// Stats / shutdown verbs against a running daemon:
//   ./nowsched_daemon --stats    --socket=/tmp/nowsched.sock
//   ./nowsched_daemon --shutdown --socket=/tmp/nowsched.sock [--cancel-queued]
//
// Selfdrive: the whole stack in one process — daemon thread + N concurrent
// client connections through the real socket — finishing with a
// conservation-law audit as the exit status. This is the ctest smoke and
// the shape of the CI integration job.
//   ./nowsched_daemon --selfdrive --clients=3 --jobs=8 --scenarios=4
//
// Exit status: 0 = every accepted job resolved and the stats conservation
// laws balance; 1 = an invariant broke; 2 = bad usage.
#include <csignal>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "nowsched.h"

using namespace nowsched;

namespace {

rpc::Server* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // atomic store + pipe write
}

service::ServiceOptions service_options_from_flags(const util::Flags& flags) {
  service::ServiceOptions options;
  options.workers = flags.get_count("workers", 2);
  const std::string queue_name = flags.get("queue", "drr");
  try {
    options.queue = service::queue_kind_from_string(queue_name);
  } catch (const std::invalid_argument&) {
    flags.usage_error("queue", "fifo | drr | fair-share", queue_name);
  }
  options.drr_quantum = flags.get_count("quantum", 8);
  options.max_queued_jobs_per_tenant = flags.get_count("tenant-depth", 16);
  options.max_queued_jobs_total = flags.get_count("global-depth", 64);
  options.shared_store_dir = flags.get("shared-store-dir", "");
  options.shared_store_readonly = flags.get_bool("store-readonly", false);
  return options;
}

/// One client session: submit `jobs` batches, fetch every result (wait=1),
/// spot-check the exactly-once contract, and return the resolved count.
/// Throws on any protocol error; returns SIZE_MAX on a verification failure
/// already reported to stderr.
std::size_t drive_client(const std::string& socket_path, const std::string& tenant,
                         std::size_t jobs, std::size_t scenarios,
                         std::uint64_t seed) {
  sim::ScenarioDomain domain;
  domain.policies = {sim::PolicyKind::kDpOptimal};
  domain.max_lifespan = 1024;
  domain.contract_classes = 3;
  sim::ScenarioGenerator generator(domain, seed);

  rpc::Client client(socket_path);
  std::vector<service::JobId> tickets;
  tickets.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::vector<sim::ScenarioSpec> specs = generator.batch(scenarios);
    for (;;) {
      const rpc::SubmitReply reply = client.submit_batch(tenant, specs);
      if (reply.status == service::SubmitStatus::kAccepted) {
        tickets.push_back(reply.job_id);
        break;
      }
      if (!service::is_backpressure(reply.status)) {
        std::cerr << "nowsched_daemon: submit rejected: "
                  << service::to_string(reply.status) << " (" << reply.reason
                  << ")\n";
        return static_cast<std::size_t>(-1);
      }
      // Cooperative backpressure: results are ready to collect — fetch one
      // to free queue room, then retry the submit.
      if (!tickets.empty()) {
        const rpc::JobResultReply result = client.fetch_result(tickets.front());
        if (result.state != service::JobState::kDone) {
          std::cerr << "nowsched_daemon: job " << tickets.front()
                    << " ended " << service::to_string(result.state) << "\n";
          return static_cast<std::size_t>(-1);
        }
        tickets.erase(tickets.begin());
      }
    }
  }

  std::size_t resolved = jobs - tickets.size();
  for (const service::JobId id : tickets) {
    const rpc::JobResultReply result = client.fetch_result(id, /*wait=*/true);
    if (result.state != service::JobState::kDone) {
      std::cerr << "nowsched_daemon: job " << id << " ended "
                << service::to_string(result.state) << " (" << result.error
                << ")\n";
      return static_cast<std::size_t>(-1);
    }
    if (result.per_scenario.size() != scenarios) {
      std::cerr << "nowsched_daemon: job " << id
                << " returned wrong scenario count\n";
      return static_cast<std::size_t>(-1);
    }
    // Exactly-once across the wire: the fetch consumed the ticket.
    if (client.job_state(id) != service::JobState::kUnknown) {
      std::cerr << "nowsched_daemon: job " << id
                << " still known after its result was fetched\n";
      return static_cast<std::size_t>(-1);
    }
    ++resolved;
  }
  return resolved;
}

/// Global conservation-law audit over a daemon stats snapshot.
bool audit(const service::ServiceStats& stats) {
  const bool admission_ok =
      stats.submitted_jobs == stats.accepted_jobs + stats.rejected_jobs;
  const bool outcome_ok =
      stats.accepted_jobs == stats.completed_jobs + stats.failed_jobs +
                                 stats.cancelled_jobs + stats.queued_jobs +
                                 stats.inflight_jobs;
  if (!admission_ok || !outcome_ok) {
    std::cerr << "nowsched_daemon: stats conservation violated\n";
    return false;
  }
  return true;
}

int run_serve(const util::Flags& flags, const std::string& socket_path) {
  service::SchedulerService service(service_options_from_flags(flags));
  rpc::Server server(service, {socket_path, 16});
  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::cout << "nowsched_daemon: serving on " << socket_path << std::endl;
  server.serve();
  g_server = nullptr;
  std::cout << "nowsched_daemon: stopped" << std::endl;
  return 0;
}

int run_client(const util::Flags& flags, const std::string& socket_path) {
  const std::string tenant = flags.get("tenant", "tenant-0");
  const std::size_t jobs = flags.get_count("jobs", 8);
  const std::size_t scenarios = flags.get_count("scenarios", 4);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const std::size_t resolved =
      drive_client(socket_path, tenant, jobs, scenarios, seed);
  if (resolved != jobs) return 1;
  rpc::Client client(socket_path);
  if (!audit(client.stats())) return 1;
  std::cout << "nowsched_daemon: " << resolved << " jobs resolved for '"
            << tenant << "'; conservation laws hold\n";
  return 0;
}

int run_selfdrive(const util::Flags& flags, const std::string& socket_path) {
  const std::size_t clients = flags.get_count("clients", 3);
  const std::size_t jobs = flags.get_count("jobs", 8);
  const std::size_t scenarios = flags.get_count("scenarios", 4);
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  if (clients == 0) {
    std::cerr << "nowsched_daemon: --clients must be >= 1\n";
    return 2;
  }

  service::SchedulerService service(service_options_from_flags(flags));
  rpc::Server server(service, {socket_path, 16});
  std::thread serve_thread([&server] { server.serve(); });

  std::vector<std::size_t> resolved(clients, 0);
  std::vector<std::thread> drivers;
  drivers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    drivers.emplace_back([&, c] {
      resolved[c] = drive_client(socket_path, "tenant-" + std::to_string(c),
                                 jobs, scenarios, seed + c);
    });
  }
  for (std::thread& t : drivers) t.join();

  // Stats through the wire, then an RPC-initiated shutdown: the reply must
  // arrive before the daemon exits its loop.
  int rc = 0;
  service::ServiceStats stats;
  {
    rpc::Client control(socket_path);
    stats = control.stats();
    control.shutdown_server(service::SchedulerService::StopMode::kDrain);
  }
  serve_thread.join();

  for (std::size_t c = 0; c < clients; ++c) {
    if (resolved[c] != jobs) {
      std::cerr << "nowsched_daemon: client " << c << " resolved " << resolved[c]
                << "/" << jobs << " jobs\n";
      rc = 1;
    }
  }
  if (stats.completed_jobs != clients * jobs || !audit(stats)) rc = 1;
  if (rc == 0) {
    std::cout << "nowsched_daemon: " << clients << " clients x " << jobs
              << " jobs through " << socket_path
              << "; conservation laws hold\n";
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const std::string socket_path =
      flags.get("socket", "/tmp/nowsched-" + std::to_string(::getpid()) + ".sock");

  try {
    if (flags.get_bool("selfdrive", false)) return run_selfdrive(flags, socket_path);
    if (flags.get_bool("client", false)) return run_client(flags, socket_path);
    if (flags.get_bool("stats", false)) {
      rpc::Client client(socket_path);
      std::cout << client.stats_text();
      return 0;
    }
    if (flags.get_bool("shutdown", false)) {
      rpc::Client client(socket_path);
      client.shutdown_server(flags.get_bool("cancel-queued", false)
                                 ? service::SchedulerService::StopMode::kCancelQueued
                                 : service::SchedulerService::StopMode::kDrain);
      return 0;
    }
    return run_serve(flags, socket_path);
  } catch (const std::exception& e) {
    std::cerr << "nowsched_daemon: " << e.what() << "\n";
    return 1;
  }
}
