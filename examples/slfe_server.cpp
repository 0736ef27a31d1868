// slfe_server — the long-lived multi-tenant guidance job daemon: a
// JobService fed by the newline job protocol (stdin or --jobs=FILE), with
// the guidance store, its GC budgets (global and per tenant), and the
// maintenance sweep cadence configured from the shell.
//
//   slfe_server --jobs=batch.txt --workers=4 --store-dir=/var/cache/slfe
//               --maintenance-interval=30 --tenant-budget=acme:1048576:8
//   printf 'submit t1 sssp PK 0\nwait\nstats\n' | slfe_server
//   slfe_server --smoke        # CI: self-contained amortization check
//
// Protocol (see service/line_driver.h):
//   submit <tenant> <app> <graph> [root] [gas|dist] [norr]
//   wait | sweep | stats | quit
//
// Exit code: 0 when every job ran clean, non-zero otherwise — so a hung or
// misbehaving batch fails loudly under `timeout` in CI.

#include <csignal>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "slfe/api/app_registry.h"
#include "slfe/graph/generators.h"
#include "slfe/net/net_server.h"
#include "slfe/service/job_service.h"
#include "slfe/service/line_driver.h"
#include "slfe/service/line_protocol.h"

namespace {

struct ServerOptions {
  size_t workers = 2;
  size_t queue_cap = 64;
  int nodes = 2;
  int threads = 1;
  uint32_t scale_divisor = 4;
  std::string jobs_file;  // empty = stdin
  std::string store_dir;
  std::string arena_dir;
  uint64_t store_max_entries = 0;
  uint64_t store_max_bytes = 0;
  double store_ttl = 0;
  double maintenance_interval = 0;
  uint32_t gen_threads = 0;
  size_t mini_chunk = 0;
  // Observability (obs/): slow-job capture threshold, periodic Prometheus
  // export, and the flight-recorder ring size. 0 slow-job-ms = off.
  double slow_job_ms = 0;
  std::string metrics_dump;
  size_t trace_ring = 64;
  // Demand-gated store admission: threshold 0 = admit every store write.
  uint64_t hot_admit_threshold = 0;
  size_t max_tracked_tenants = 256;
  std::map<std::string, slfe::GuidanceTenantBudget> tenant_budgets;
  bool smoke = false;
  // TCP front end (net/net_server.h). listen=true switches the daemon from
  // the stdin line driver to the epoll loop.
  bool listen = false;
  uint16_t listen_port = 0;  // 0 = ephemeral, announced on stdout
  std::string bind_address = "127.0.0.1";
  std::map<std::string, std::string> auth_tokens;
  size_t max_connections = 256;
  bool allow_shutdown = false;
};

void PrintUsage() {
  // The submittable app and engine vocabularies come from the registry —
  // the same source Submit validates against, so this text cannot drift.
  std::fprintf(
      stderr,
      "usage: slfe_server [options]\n"
      "protocol: submit <tenant> <app> <graph> [root] [engine] [norr]\n"
      "  apps:    %s\n"
      "  engines: %s (default dist; see --list-apps for the pairs)\n"
      "options:\n"
      "  --jobs=FILE          read the job protocol from FILE (default: "
      "stdin)\n",
      slfe::api::AppRegistry::Global().UsageList().c_str(),
      slfe::api::AllEngineNames().c_str());
  std::fprintf(
      stderr,
      "  --workers=N          job worker threads (default 2)\n"
      "  --queue-cap=N        bounded queue depth; beyond it submissions "
      "are rejected (default 64)\n"
      "  --nodes=N            simulated cluster nodes per job (default 2)\n"
      "  --threads=N          threads per node (default 1)\n"
      "  --scale=N            dataset shrink divisor for lazily registered "
      "aliases (default 4)\n"
      "  --store-dir=PATH     persistent guidance store directory\n"
      "  --arena-dir=PATH     graph arena directory: lazily registered "
      "aliases map a saved\n"
      "                       *.sga arena instead of regenerating + "
      "re-partitioning, and\n"
      "                       write one back after a cold registration "
      "(warm restarts)\n"
      "  --store-max-entries=N / --store-max-bytes=N / --store-ttl=SECS\n"
      "                       global store GC budgets\n"
      "  --tenant-budget=T:BYTES:ENTRIES\n"
      "                       per-tenant store budget (repeatable; 0 = "
      "unlimited)\n"
      "  --maintenance-interval=SECS\n"
      "                       sweep the store every SECS from the "
      "maintenance loop\n"
      "  --gen-threads=N      guidance generation workers\n"
      "  --slow-job-ms=N      capture + WARN jobs slower than N ms "
      "end-to-end\n"
      "  --metrics-dump=PATH  write the Prometheus text exposition to PATH "
      "every\n"
      "                       maintenance sweep (requires "
      "--maintenance-interval)\n"
      "  --trace-ring=N       flight-recorder capacity: last N completed "
      "job traces\n"
      "                       (default 64; 'trace recent' reads this "
      "ring)\n"
      "  --hot-admit-threshold=N\n"
      "                       persist guidance to the store only once a "
      "graph has\n"
      "                       been requested N times (0 = always; 'hot [k]' "
      "ranks\n"
      "                       graphs by request count)\n"
      "  --max-tracked-tenants=N\n"
      "                       exact per-tenant stat rows; the tail "
      "aggregates into\n"
      "                       one untracked row (default 256, 0 = "
      "unlimited)\n"
      "  --mini-chunk=N       work-stealing mini-chunk size for the "
      "partitioned sweep\n"
      "  --listen[=PORT]      serve the job protocol over TCP instead of "
      "stdin (0 or no\n"
      "                       value = ephemeral port, announced on stdout "
      "as\n"
      "                       'listening on ADDR:PORT')\n"
      "  --bind=ADDR          TCP bind address (default 127.0.0.1)\n"
      "  --auth-token=T:SECRET\n"
      "                       require connections to open with 'auth T "
      "SECRET' and bind\n"
      "                       them to tenant T (repeatable; none = auth "
      "optional)\n"
      "  --max-connections=N  concurrent TCP connections admitted "
      "(default 256)\n"
      "  --allow-shutdown     let a TCP client's 'shutdown' stop the "
      "daemon\n"
      "  --smoke              self-contained multi-tenant amortization "
      "check (CI)\n"
      "  --list-apps          print the application registry and exit\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

bool ParseTenantBudget(const std::string& value, ServerOptions* opt) {
  size_t c1 = value.find(':');
  if (c1 == std::string::npos) return false;
  size_t c2 = value.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  std::string tenant = value.substr(0, c1);
  if (tenant.empty()) return false;
  slfe::GuidanceTenantBudget budget;
  budget.max_bytes = std::strtoull(value.substr(c1 + 1, c2 - c1 - 1).c_str(),
                                   nullptr, 10);
  budget.max_entries = std::strtoull(value.substr(c2 + 1).c_str(), nullptr, 10);
  opt->tenant_budgets[tenant] = budget;
  return true;
}

slfe::service::JobServiceOptions ServiceOptions(const ServerOptions& opt) {
  slfe::service::JobServiceOptions sopt;
  sopt.workers = opt.workers;
  sopt.queue_capacity = opt.queue_cap;
  sopt.job_nodes = opt.nodes;
  sopt.job_threads = opt.threads;
  sopt.provider.store_dir = opt.store_dir;
  sopt.provider.store_gc.max_entries = opt.store_max_entries;
  sopt.provider.store_gc.max_bytes = opt.store_max_bytes;
  sopt.provider.store_gc.ttl_seconds = opt.store_ttl;
  sopt.provider.generation_threads = opt.gen_threads;
  sopt.provider.generation_mini_chunk = opt.mini_chunk;
  sopt.tenant_budgets = opt.tenant_budgets;
  sopt.maintenance_interval_seconds = opt.maintenance_interval;
  sopt.arena_dir = opt.arena_dir;
  sopt.slow_job_ms = opt.slow_job_ms;
  sopt.trace_ring_capacity = opt.trace_ring;
  sopt.metrics_dump_path = opt.metrics_dump;
  sopt.hot_admit_threshold = opt.hot_admit_threshold;
  sopt.max_tracked_tenants = opt.max_tracked_tenants;
  return sopt;
}

/// CI smoke: 3 tenants hammer 2 graphs with concurrent guidance-using jobs
/// through one service; passes iff the shared provider generated guidance
/// exactly once per graph (singleflight + cache amortization), per-tenant
/// counters sum to the totals, nothing failed, and shutdown drains clean.
int SmokeRun() {
  slfe::service::JobServiceOptions sopt;
  sopt.workers = 4;
  sopt.queue_capacity = 64;
  sopt.job_nodes = 2;
  std::string dir =
      "/tmp/slfe_server_smoke." + std::to_string(::getpid());
  sopt.provider.store_dir = dir;
  sopt.maintenance_interval_seconds = 0.02;  // exercise the timer mid-run
  slfe::service::JobService service(sopt);

  const char* kGraphs[] = {"PK", "OK"};
  for (const char* alias : kGraphs) {
    slfe::DatasetSpec spec = slfe::FindDataset(alias).value();
    slfe::EdgeList edges = slfe::MakeDataset(spec, /*scale_divisor=*/16);
    slfe::Status s = service.RegisterGraph(alias, slfe::Graph::FromEdges(edges));
    if (!s.ok()) {
      std::fprintf(stderr, "smoke: register failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  std::vector<slfe::service::JobTicket> tickets;
  const char* kTenants[] = {"t1", "t2", "t3"};
  for (int round = 0; round < 2; ++round) {
    for (const char* tenant : kTenants) {
      for (const char* alias : kGraphs) {
        slfe::service::JobRequest request;
        request.tenant = tenant;
        request.app = "sssp";
        request.graph = alias;
        request.root = 0;
        auto ticket = service.Submit(request);
        if (!ticket.ok()) {
          std::fprintf(stderr, "smoke: submit failed: %s\n",
                       ticket.status().ToString().c_str());
          return 1;
        }
        tickets.push_back(std::move(ticket).value());
      }
    }
  }
  for (const auto& ticket : tickets) {
    if (!ticket->Wait().status.ok()) {
      std::fprintf(stderr, "smoke: job failed: %s\n",
                   ticket->Wait().status.ToString().c_str());
      return 1;
    }
  }
  service.Shutdown();

  slfe::service::JobServiceStats stats = service.Stats();
  uint64_t tenant_jobs = 0, tenant_hits = 0, tenant_misses = 0;
  for (const auto& [name, t] : stats.tenants) {
    tenant_jobs += t.jobs_completed;
    tenant_hits += t.guidance_hits;
    tenant_misses += t.guidance_misses;
  }
  bool ok = stats.provider.generations == 2 &&      // one sweep per graph
            stats.completed == tickets.size() &&    // drained clean
            stats.failed == 0 &&
            tenant_jobs == stats.completed &&       // tenant rows sum up
            tenant_hits + tenant_misses == tickets.size() &&
            tenant_misses == stats.provider.generations;
  std::printf(
      "smoke: jobs=%llu generations=%llu (want 2) hits=%llu misses=%llu "
      "sweeps=%llu -> %s\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.provider.generations),
      static_cast<unsigned long long>(tenant_hits),
      static_cast<unsigned long long>(tenant_misses),
      static_cast<unsigned long long>(stats.maintenance_sweeps),
      ok ? "OK" : "FAIL");
  // Drop the smoke store so repeated runs start cold.
  if (!dir.empty()) {
    slfe::GuidanceStore cleanup(dir);
    cleanup.RemoveAll();
    ::rmdir(dir.c_str());
  }
  return ok ? 0 : 1;
}

slfe::net::NetServer* g_net_server = nullptr;

void HandleStopSignal(int) {
  if (g_net_server != nullptr) g_net_server->Stop();
}

/// SIGUSR1 = "dump telemetry now". The handler only raises a flag; the
/// event loop's on_loop_tick does the rendering on its own thread, because
/// the registry and flight recorder take locks that a handler must not.
std::atomic<bool> g_dump_requested{false};

void HandleDumpSignal(int) {
  g_dump_requested.store(true);
  // Wake the event loop: the signal rarely lands on the loop thread, so
  // without this the dump would wait for the next connection event.
  if (g_net_server != nullptr) g_net_server->Wake();
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--jobs", &value)) {
      opt.jobs_file = value;
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      opt.workers = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--queue-cap", &value)) {
      opt.queue_cap = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--nodes", &value)) {
      opt.nodes = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--threads", &value)) {
      opt.threads = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--scale", &value)) {
      opt.scale_divisor = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--store-dir", &value)) {
      opt.store_dir = value;
    } else if (ParseFlag(argv[i], "--arena-dir", &value)) {
      opt.arena_dir = value;
    } else if (ParseFlag(argv[i], "--store-max-entries", &value)) {
      opt.store_max_entries = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--store-max-bytes", &value)) {
      opt.store_max_bytes = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--store-ttl", &value)) {
      opt.store_ttl = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--maintenance-interval", &value)) {
      opt.maintenance_interval = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--gen-threads", &value)) {
      opt.gen_threads = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--mini-chunk", &value)) {
      opt.mini_chunk = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--slow-job-ms", &value)) {
      opt.slow_job_ms = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--metrics-dump", &value)) {
      opt.metrics_dump = value;
    } else if (ParseFlag(argv[i], "--trace-ring", &value)) {
      opt.trace_ring = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--hot-admit-threshold", &value)) {
      opt.hot_admit_threshold = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--max-tracked-tenants", &value)) {
      opt.max_tracked_tenants = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--tenant-budget", &value)) {
      if (!ParseTenantBudget(value, &opt)) {
        std::fprintf(stderr, "bad --tenant-budget (want T:BYTES:ENTRIES): %s\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseFlag(argv[i], "--listen", &value)) {
      opt.listen = true;
      unsigned long port = std::strtoul(value.c_str(), nullptr, 10);
      if (port > 65535) {
        std::fprintf(stderr, "bad --listen port: %s\n", value.c_str());
        return 2;
      }
      opt.listen_port = static_cast<uint16_t>(port);
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      opt.listen = true;  // ephemeral port
    } else if (ParseFlag(argv[i], "--bind", &value)) {
      opt.bind_address = value;
    } else if (ParseFlag(argv[i], "--auth-token", &value)) {
      size_t colon = value.find(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == value.size()) {
        std::fprintf(stderr, "bad --auth-token (want TENANT:SECRET): %s\n",
                     value.c_str());
        return 2;
      }
      opt.auth_tokens[value.substr(0, colon)] = value.substr(colon + 1);
    } else if (ParseFlag(argv[i], "--max-connections", &value)) {
      opt.max_connections = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (std::strcmp(argv[i], "--allow-shutdown") == 0) {
      opt.allow_shutdown = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--list-apps") == 0) {
      std::fputs(slfe::api::AppRegistry::Global().ListApps().c_str(), stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage();
      return 2;
    }
  }
  if (opt.workers == 0 || opt.queue_cap == 0 || opt.nodes < 1 ||
      opt.threads < 1 || opt.scale_divisor < 1) {
    // A zero scale divisor would otherwise SIGABRT the daemon inside
    // MakeDataset at the first lazily registered submit, mid-batch.
    PrintUsage();
    return 2;
  }
  if (opt.smoke) return SmokeRun();
  if ((!opt.tenant_budgets.empty() || opt.store_max_entries > 0 ||
       opt.store_max_bytes > 0 || opt.store_ttl > 0) &&
      opt.store_dir.empty()) {
    std::fprintf(stderr, "store budgets require --store-dir\n");
    return 2;
  }
  if (opt.maintenance_interval > 0 && opt.store_dir.empty() &&
      opt.metrics_dump.empty()) {
    // The maintenance timer only has work when there is a store to sweep
    // or a metrics file to refresh.
    std::fprintf(stderr,
                 "--maintenance-interval requires --store-dir or "
                 "--metrics-dump\n");
    return 2;
  }
  if (!opt.metrics_dump.empty() && opt.maintenance_interval <= 0) {
    std::fprintf(stderr,
                 "--metrics-dump requires --maintenance-interval (it is "
                 "written from the maintenance timer)\n");
    return 2;
  }

  if (opt.listen) {
    if (!opt.jobs_file.empty()) {
      std::fprintf(stderr, "--jobs and --listen are mutually exclusive\n");
      return 2;
    }
    if (opt.max_connections == 0) {
      std::fprintf(stderr, "--max-connections must be positive\n");
      return 2;
    }
    slfe::service::JobService service(ServiceOptions(opt));
    slfe::net::NetServerOptions nopt;
    nopt.bind_address = opt.bind_address;
    nopt.port = opt.listen_port;
    nopt.auth_tokens = opt.auth_tokens;
    nopt.max_connections = opt.max_connections;
    nopt.allow_shutdown = opt.allow_shutdown;
    nopt.session.scale_divisor = opt.scale_divisor;
    nopt.on_loop_tick = [&service] {
      if (!g_dump_requested.exchange(false)) return;
      std::fprintf(stderr, "%s%s\n", service.RenderMetricsText().c_str(),
                   service.RenderTraceJson("recent").c_str());
      std::fflush(stderr);
    };
    slfe::net::NetServer server(service, nopt);
    slfe::Status s = server.Start();
    if (!s.ok()) {
      std::fprintf(stderr, "listen failed: %s\n", s.ToString().c_str());
      return 2;
    }
    // SIGINT/SIGTERM stop the loop gracefully (drain, then exit); Stop()
    // is async-signal-safe (atomic store + eventfd write).
    g_net_server = &server;
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    // SIGUSR1 dumps metrics + recent traces to stderr. The handler wakes
    // the event loop through the eventfd (Wake()), so the dump happens on
    // the next tick even when the daemon is idle. Listen mode only — the
    // stdin driver's blocking fgets must keep restarting across signals.
    struct sigaction dump_action;
    std::memset(&dump_action, 0, sizeof(dump_action));
    dump_action.sa_handler = HandleDumpSignal;
    sigemptyset(&dump_action.sa_mask);
    dump_action.sa_flags = 0;
    ::sigaction(SIGUSR1, &dump_action, nullptr);
    // Announced on stdout so scripts using an ephemeral port (--listen=0)
    // can read the bound address back; flushed before the loop blocks.
    std::printf("listening on %s:%u\n", nopt.bind_address.c_str(),
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    int rc = server.Serve();
    g_net_server = nullptr;
    service.Shutdown();
    std::fputs(slfe::service::FormatStats(service.Stats()).c_str(), stdout);
    return rc;
  }

  std::FILE* in = stdin;
  if (!opt.jobs_file.empty()) {
    in = std::fopen(opt.jobs_file.c_str(), "r");
    if (in == nullptr) {
      std::fprintf(stderr, "cannot open --jobs file: %s\n",
                   opt.jobs_file.c_str());
      return 2;
    }
  }

  slfe::service::JobService service(ServiceOptions(opt));
  slfe::service::LineDriverOptions dopt;
  dopt.scale_divisor = opt.scale_divisor;
  int rc = slfe::service::RunLineDriver(service, in, stdout, dopt);
  if (in != stdin) std::fclose(in);
  return rc;
}
