#include "slfe/service/job_service.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "slfe/common/logging.h"
#include "slfe/common/version.h"

namespace slfe::service {

namespace {

/// Guidance payload bytes per acquisition. Metered at the codec-
/// independent raw width (kPayloadBytesPerVertex) so a tenant's usage
/// number does not change when the store negotiates the packed codec —
/// budgets meter logical guidance volume, the file system meters disk.
uint64_t GuidanceBytes(const Graph& graph) {
  return static_cast<uint64_t>(graph.num_vertices()) *
         GuidanceStore::kPayloadBytesPerVertex;
}

/// The service is configured once at construction; normalize the knobs so
/// the rest of the code never re-checks them, and fold the convenience
/// tenant-budget map into the provider's GC options (one source of truth:
/// the store).
JobServiceOptions Normalize(JobServiceOptions o) {
  if (o.workers == 0) o.workers = 1;
  if (o.queue_capacity == 0) o.queue_capacity = 1;
  if (o.job_nodes < 1) o.job_nodes = 1;
  if (o.job_threads < 1) o.job_threads = 1;
  for (const auto& [tenant, budget] : o.tenant_budgets) {
    o.provider.store_gc.tenant_budgets[tenant] = budget;
  }
  return o;
}

/// The session all jobs run through: the service's cluster shape, its
/// shared provider configuration, and STRICT requirement checking — a
/// multi-tenant daemon rejects meaningless jobs at Submit instead of
/// burning a worker on them.
api::SessionOptions SessionOptionsFor(const JobServiceOptions& o,
                                      obs::MetricsRegistry* metrics,
                                      const JobService* service) {
  api::SessionOptions s;
  s.num_nodes = o.job_nodes;
  s.threads_per_node = o.job_threads;
  s.auto_symmetrize = o.auto_symmetrize;
  s.strict_weights = true;
  s.provider = o.provider;
  // The provider the session constructs records its generation/repair/
  // store-load durations into the service's registry.
  s.provider.metrics = metrics;
  // Store GC ranks budget-phase victims by request count (coldest
  // first) instead of raw mtime recency — a stale-but-hot graph's
  // guidance outlives a fresh one-shot's. The demand map outlives the
  // session (declaration order in JobService), so the captured pointer
  // is safe for the provider's whole lifetime.
  s.provider.store_gc.hotness = [service](uint64_t fingerprint) {
    return service->GraphRequests(fingerprint);
  };
  if (o.hot_admit_threshold > 0) {
    const uint64_t threshold = o.hot_admit_threshold;
    s.provider.store_admission = [service, threshold](uint64_t fingerprint) {
      return service->GraphRequests(fingerprint) >= threshold;
    };
  }
  s.arena_dir = o.arena_dir;
  return s;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void FillFromOutcome(const api::AppOutcome& outcome, JobResult* result) {
  result->status = outcome.status;
  result->supersteps = outcome.info.supersteps;
  result->computations = outcome.info.stats.computations;
  result->skipped = outcome.info.stats.skipped;
  result->updates = outcome.info.stats.updates;
  result->runtime_seconds = outcome.info.stats.RuntimeSeconds();
  result->guidance_acquired = outcome.info.guidance_acquired;
  result->guidance_seconds = outcome.info.guidance_seconds;
  result->guidance_cache_hit = outcome.info.guidance_cache_hit;
  result->guidance_coalesced = outcome.info.guidance_coalesced;
  result->guidance_repaired = outcome.info.guidance_repaired;
  result->summary = outcome.summary;
}

}  // namespace

api::AppRequest JobService::ToAppRequest(const JobRequest& request) {
  api::AppRequest out;
  out.app = request.app;
  out.engine = request.engine;
  out.graph = request.graph;
  out.root = request.root;
  out.max_iters = request.max_iters;
  out.enable_rr = request.enable_rr;
  return out;
}

JobService::JobService(JobServiceOptions options)
    : options_(Normalize(std::move(options))),
      recorder_(std::max<size_t>(1, options_.trace_ring_capacity),
                std::max<size_t>(8, options_.trace_ring_capacity / 2)),
      session_(std::make_unique<api::Session>(
          SessionOptionsFor(options_, &metrics_, this))),
      queue_(options_.queue_capacity),
      started_at_(std::chrono::steady_clock::now()) {
  queue_wait_hist_ = metrics_.GetHistogram(
      "slfe_job_queue_wait_seconds",
      "Seconds a job spent queued before a worker popped it");
  job_latency_hist_ = metrics_.GetHistogram(
      "slfe_job_latency_seconds",
      "Submit-to-complete seconds per job (all tenants)");
  slow_jobs_counter_ = metrics_.GetCounter(
      "slfe_slow_jobs_total",
      "Completed jobs slower than the --slow-job-ms threshold");
  workers_.reserve(options_.workers);
  for (size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.maintenance_interval_seconds > 0 &&
      (provider().store() != nullptr || !options_.metrics_dump_path.empty())) {
    maintenance_ = std::thread([this] { MaintenanceLoop(); });
  }
}

JobService::~JobService() { Shutdown(); }

Status JobService::RegisterGraph(const std::string& name, Graph graph) {
  return session_->AddGraph(name, std::move(graph));
}

Status JobService::RegisterGraph(const std::string& name, Graph graph,
                                 api::GraphTraits traits) {
  return session_->AddGraph(name, std::move(graph), traits);
}

Status JobService::RegisterGraphFromArena(const std::string& name,
                                          const std::string& path) {
  return session_->AddGraphFromArena(name, path);
}

Status JobService::SaveGraphArena(const std::string& name,
                                  const std::string& path, ArenaCodec codec) {
  return session_->SaveGraphArena(name, path, codec);
}

std::string JobService::ArenaPathFor(const std::string& stem) const {
  return session_->ArenaPath(stem);
}

bool JobService::HasGraph(const std::string& name) const {
  return session_->HasGraph(name);
}

Result<JobTicket> JobService::Submit(const JobRequest& request) {
  auto reject = [&](Status status) -> Result<JobTicket> {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected;
    ++TenantRowLocked(request.tenant).jobs_rejected;
    return status;
  };

  if (!accepting_.load()) {
    return reject(Status::FailedPrecondition("service is shutting down"));
  }
  api::AppRequest app_request = ToAppRequest(request);
  // One validation path, shared with the CLI: ResolveGraph runs the full
  // registry check (app/engine declarations, graph requirements, root
  // range) before resolving, so a job that passes here can only fail for
  // runtime reasons.
  Result<std::shared_ptr<const Graph>> resolved =
      session_->ResolveGraph(app_request);
  if (!resolved.ok()) return reject(resolved.status());

  QueuedJob job;
  job.request = request;
  job.graph = std::move(resolved).value();
  job.ticket = std::make_shared<JobHandle>();
  PrepareQueuedJob(&job);

  // Count the request before any store interaction: the admission gate
  // and the eviction order both read the count. A queue-full rejection
  // below still counts — the demand was observed.
  RecordDemand(job.graph->fingerprint(), request.graph);

  GuidanceStore* store = provider().store();
  if (store != nullptr && request.enable_rr) {
    // Pin the graph so no maintenance sweep can evict guidance between
    // now and the job's completion. The matching Unpin is in WorkerLoop —
    // every accepted job is executed, even during a drain.
    store->PinGraph(job.graph->fingerprint());
  }

  // Count the submission before the push: a worker can pop and finish the
  // job immediately, and completed must never exceed submitted in a
  // Stats() snapshot.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
    ++TenantRowLocked(request.tenant).jobs_submitted;
  }
  JobTicket ticket = job.ticket;
  uint64_t fingerprint = job.graph->fingerprint();
  if (!queue_.TryPush(request.tenant, std::move(job))) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      --stats_.submitted;
      --TenantRowLocked(request.tenant).jobs_submitted;
    }
    if (store != nullptr && request.enable_rr) store->UnpinGraph(fingerprint);
    return reject(Status::FailedPrecondition("job queue full"));
  }
  if (store != nullptr && request.enable_rr) {
    // Attribute the graph's store entries to this tenant for the
    // per-tenant budget phase, only once the job is actually accepted —
    // a rejected submission must not re-own the graph's storage ("last
    // ACCEPTED submitter owns it").
    store->AssignGraphTenant(fingerprint, request.tenant);
  }
  return ticket;
}

Result<JobTicket> JobService::SubmitMutation(const MutationRequest& request) {
  auto reject = [&](Status status) -> Result<JobTicket> {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.rejected;
    ++TenantRowLocked(request.tenant).jobs_rejected;
    return status;
  };

  if (!accepting_.load()) {
    return reject(Status::FailedPrecondition("service is shutting down"));
  }
  std::shared_ptr<const Graph> current = session_->GetGraph(request.graph);
  if (current == nullptr) {
    return reject(Status::NotFound("graph not registered: " + request.graph));
  }
  // Mutations are demand too: a tenant rewriting a graph is the clearest
  // signal the graph's guidance will be wanted again.
  RecordDemand(current->fingerprint(), request.graph);

  QueuedJob job;
  job.request.tenant = request.tenant;
  job.request.app = "mutate";
  job.request.graph = request.graph;
  job.request.engine.clear();
  job.request.enable_rr = false;  // no guidance acquisition, no pinning
  job.mutation = std::make_shared<const GraphDelta>(request.delta);
  job.ticket = std::make_shared<JobHandle>();
  PrepareQueuedJob(&job);

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
    ++TenantRowLocked(request.tenant).jobs_submitted;
  }
  JobTicket ticket = job.ticket;
  if (!queue_.TryPush(request.tenant, std::move(job))) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      --stats_.submitted;
      --TenantRowLocked(request.tenant).jobs_submitted;
    }
    return reject(Status::FailedPrecondition("job queue full"));
  }
  return ticket;
}

void JobService::RecordDemand(uint64_t fingerprint,
                              const std::string& graph_name) {
  std::lock_guard<std::mutex> lock(demand_mu_);
  GraphDemand& demand = demand_[fingerprint];
  // First name wins: a symmetrized closure or mutated version keeps
  // displaying under the name the tenant submitted against.
  if (demand.requests++ == 0) demand.name = graph_name;
}

uint64_t JobService::GraphRequests(uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(demand_mu_);
  auto it = demand_.find(fingerprint);
  return it != demand_.end() ? it->second.requests : 0;
}

TenantStats& JobService::TenantRowLocked(const std::string& tenant) {
  auto it = stats_.tenants.find(tenant);
  if (it != stats_.tenants.end()) return it->second;
  if (options_.max_tracked_tenants == 0 ||
      stats_.tenants.size() < options_.max_tracked_tenants) {
    return stats_.tenants[tenant];
  }
  // Cap reached: exact accounting folds into the shared tail row (rows
  // plus tail still sum to the service totals). A tenant tracked once is
  // tracked forever — rows are never evicted — so a row can never
  // alternate between exact and tail.
  return stats_.untracked;
}

void JobService::PrepareQueuedJob(QueuedJob* job) {
  job->id = next_job_id_.fetch_add(1);
  job->submitted_at = std::chrono::steady_clock::now();
  if (!options_.tracing) return;
  job->trace = std::make_shared<obs::JobTrace>();
  job->trace->job_id = job->id;
  job->trace->tenant = job->request.tenant;
  job->trace->app = job->request.app;
  job->trace->engine = job->request.engine;
  job->trace->graph = job->request.graph;
}

void JobService::ObserveCompletion(const QueuedJob& job, JobResult* result) {
  double e2e = SecondsSince(job.submitted_at);
  job_latency_hist_->Observe(e2e);
  // A tenant without an exact stats row shares one series, so a peer
  // naming a fresh tenant per job cannot grow the registry (and every
  // scrape) by a histogram each.
  bool tracked;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    tracked = stats_.tenants.count(job.request.tenant) > 0;
  }
  metrics_
      .GetHistogram("slfe_tenant_job_latency_seconds",
                    "Submit-to-complete seconds per job, by tenant", 1e-6,
                    {{"tenant", tracked ? job.request.tenant : "(untracked)"}})
      ->Observe(e2e);
  bool slow =
      options_.slow_job_ms > 0 && e2e * 1e3 > options_.slow_job_ms;
  if (job.trace != nullptr) {
    job.trace->MarkCompleted(result->status.ok());
    result->trace = job.trace;
    recorder_.Record(job.trace, slow);
  }
  if (!slow) return;
  slow_jobs_counter_->Inc();
  // Rate limit to one WARN per second: under overload every job crosses
  // the threshold, and a log storm would make the slowness worse.
  int64_t now_ms = static_cast<int64_t>(SecondsSince(started_at_) * 1e3);
  int64_t last = last_slow_warn_ms_.load(std::memory_order_relaxed);
  if (now_ms - last < 1000 ||
      !last_slow_warn_ms_.compare_exchange_strong(last, now_ms)) {
    return;
  }
  SLFE_LOG(Warning) << "slow job id=" << job.id << " tenant="
                    << job.request.tenant << " app=" << job.request.app
                    << " graph=" << job.request.graph << " e2e_ms="
                    << e2e * 1e3 << " spans: "
                    << (job.trace != nullptr ? job.trace->SpanSummary()
                                             : "(tracing disabled)");
}

void JobService::WorkerLoop() {
  QueuedJob job;
  while (queue_.Pop(&job)) {
    queue_wait_hist_->Observe(SecondsSince(job.submitted_at));
    if (job.trace != nullptr) {
      job.trace->AddSpan("queue_wait", 0.0, job.trace->Now());
    }
    JobResult result = Execute(job);
    result.sequence = completion_seq_.fetch_add(1) + 1;
    ObserveCompletion(job, &result);

    GuidanceStore* store = provider().store();
    if (store != nullptr && job.request.enable_rr) {
      store->UnpinGraph(job.graph->fingerprint());
    }

    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      TenantStats& tenant = TenantRowLocked(job.request.tenant);
      if (result.status.ok()) {
        ++stats_.completed;
        ++tenant.jobs_completed;
        if (job.mutation != nullptr && result.updates > 0) {
          // A no-op delta completes fine but mutated nothing.
          ++stats_.mutations;
          ++tenant.mutations;
        }
      } else {
        ++stats_.failed;
        ++tenant.jobs_failed;
      }
      if (result.guidance_acquired) {
        if (result.guidance_cache_hit || result.guidance_coalesced) {
          ++tenant.guidance_hits;
        } else {
          ++tenant.guidance_misses;
          if (result.guidance_repaired) ++tenant.guidance_repaired;
        }
        tenant.guidance_bytes += GuidanceBytes(*job.graph);
        tenant.guidance_seconds += result.guidance_seconds;
      }
    }

    job.ticket->Complete(std::move(result));
    job = QueuedJob{};  // drop the graph reference before blocking in Pop
  }
}

JobResult JobService::Execute(const QueuedJob& job) {
  JobResult result;
  result.job_id = job.id;
  result.tenant = job.request.tenant;
  result.app = job.request.app;
  result.engine = job.request.engine;
  result.graph = job.request.graph;
  if (job.mutation != nullptr) {
    double mutate_start = job.trace != nullptr ? job.trace->Now() : 0.0;
    Result<api::GraphMutationResult> mutated =
        session_->MutateGraph(job.request.graph, *job.mutation);
    if (job.trace != nullptr) {
      job.trace->AddSpanSince("engine_execute", mutate_start);
    }
    if (!mutated.ok()) {
      result.status = mutated.status();
      return result;
    }
    result.summary = mutated.value().version;
    result.updates = mutated.value().delta_stats.edges_inserted +
                     mutated.value().delta_stats.edges_deleted;
    GuidanceStore* store = provider().store();
    if (store != nullptr && mutated.value().changed) {
      // The new version's store entries belong to whoever mutated it into
      // existence (until a later submitter takes it over). The OLD
      // version's entries are deliberately NOT invalidated: in-flight
      // jobs still execute on it, and its guidance is the repair source —
      // GC ages it out once nothing pins it.
      store->AssignGraphTenant(mutated.value().new_fingerprint,
                               job.request.tenant);
    }
    return result;
  }
  // THE execution path: the same registry dispatch Session::Run does, but
  // pinned to the graph resolved at SUBMIT time — a job submitted against
  // version N computes on version N even if a mutation published N+1
  // while the job sat in the queue.
  FillFromOutcome(session_->RunOn(ToAppRequest(job.request), job.graph,
                                  job.trace.get()),
                  &result);
  return result;
}

void JobService::MaintenanceLoop() {
  const auto interval = std::chrono::duration<double>(
      options_.maintenance_interval_seconds);
  std::unique_lock<std::mutex> lock(maintenance_mu_);
  while (!stopping_.load()) {
    maintenance_cv_.wait_for(lock, interval,
                             [&] { return stopping_.load(); });
    if (stopping_.load()) break;
    if (provider().store() != nullptr) {
      RecordSweep(provider().store()->Sweep());
    }
    if (!options_.metrics_dump_path.empty()) WriteMetricsDump();
  }
}

void JobService::WriteMetricsDump() {
  const std::string& path = options_.metrics_dump_path;
  std::string tmp = path + ".tmp";
  std::string text = RenderMetricsText();
  FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    SLFE_LOG(Warning) << "metrics dump: cannot open " << tmp;
    return;
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0 ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    SLFE_LOG(Warning) << "metrics dump: write failed for " << path;
    std::remove(tmp.c_str());
  }
}

void JobService::RecordSweep(const GuidanceStoreSweepStats& sweep) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.maintenance_sweeps;
  stats_.sweep_removed +=
      sweep.ttl_removed + sweep.tenant_removed + sweep.budget_removed;
  stats_.sweep_pinned_spared += sweep.pinned_spared;
}

void JobService::RecordConnectionAccepted() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.net.accepted;
}

void JobService::RecordConnectionClosed(bool dropped) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (dropped) {
    ++stats_.net.dropped;
  } else {
    ++stats_.net.closed;
  }
}

void JobService::RecordAuthFailure() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.net.auth_failures;
}

void JobService::RecordResultStreamed() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.net.results_streamed;
}

GuidanceStoreSweepStats JobService::SweepNow() {
  GuidanceStore* store = provider().store();
  if (store == nullptr) return {};
  GuidanceStoreSweepStats sweep = store->Sweep();
  RecordSweep(sweep);
  return sweep;
}

JobServiceStats JobService::Stats() const {
  JobServiceStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    snapshot = stats_;
  }
  GuidanceProvider& provider = session_->provider();
  snapshot.provider = provider.stats();
  snapshot.cache = provider.cache_stats();
  snapshot.graphs_parsed = session_->graphs_parsed();
  snapshot.graphs_mapped = session_->graphs_mapped();
  snapshot.uptime_seconds = SecondsSince(started_at_);
  snapshot.pid = static_cast<int>(::getpid());
  snapshot.version = BuildVersionString();
  return snapshot;
}

std::string JobService::RenderHot(size_t k) const {
  if (k == 0) k = 10;
  std::vector<std::pair<uint64_t, GraphDemand>> ranked;
  {
    std::lock_guard<std::mutex> lock(demand_mu_);
    ranked.assign(demand_.begin(), demand_.end());
  }
  const size_t shown = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + shown, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second.requests != b.second.requests) {
                        return a.second.requests > b.second.requests;
                      }
                      return a.first < b.first;
                    });
  std::string out = "hot: k=" + std::to_string(k) + "\n";
  for (size_t i = 0; i < shown; ++i) {
    char fp[24];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(ranked[i].first));
    out += "hot " + std::to_string(i + 1) + " graph=" + ranked[i].second.name +
           " fp=" + fp +
           " requests=" + std::to_string(ranked[i].second.requests) + "\n";
  }
  return out;
}

void JobService::CollectMetrics() {
  JobServiceStats s = Stats();
  auto set = [&](const char* name, const char* help, uint64_t value) {
    metrics_.GetCounter(name, help)->Set(value);
  };
  set("slfe_jobs_submitted_total", "Jobs accepted into the queue",
      s.submitted);
  set("slfe_jobs_completed_total", "Jobs finished successfully", s.completed);
  set("slfe_jobs_failed_total", "Jobs finished with an error status",
      s.failed);
  set("slfe_jobs_rejected_total",
      "Submissions bounced (validation or backpressure)", s.rejected);
  set("slfe_graph_mutations_total", "Effective graph mutations executed",
      s.mutations);
  set("slfe_guidance_generations_total", "Full RR-guidance sweeps executed",
      s.provider.generations);
  set("slfe_guidance_coalesced_total",
      "Acquisitions that piggybacked on an in-flight sweep",
      s.provider.coalesced);
  set("slfe_guidance_repairs_total",
      "Misses served by incremental guidance repair", s.provider.repairs);
  set("slfe_guidance_repair_fallbacks_total",
      "Repair attempts that fell back to a full sweep",
      s.provider.repair_fallbacks);
  set("slfe_guidance_cache_hits_total", "In-memory guidance cache hits",
      s.cache.hits);
  set("slfe_guidance_store_hits_total",
      "Guidance cache misses served by the persistent store",
      s.cache.store_hits);
  set("slfe_net_connections_accepted_total",
      "TCP connections admitted past accept()", s.net.accepted);
  set("slfe_net_connections_dropped_total",
      "TCP connections dropped by the server for cause", s.net.dropped);
  set("slfe_net_auth_failures_total", "TCP handshakes with bad credentials",
      s.net.auth_failures);
  set("slfe_net_results_streamed_total",
      "Completion lines pushed to TCP peers", s.net.results_streamed);
  set("slfe_trace_recorded_total",
      "Completed job traces pushed into the flight recorder",
      recorder_.recorded());
  set("slfe_guidance_admission_skips_total",
      "Guidance store writes skipped for cold graphs", s.cache.admission_skips);
  set("slfe_guidance_admission_promotions_total",
      "Cold guidance entries persisted after turning hot",
      s.cache.admission_promotions);
  metrics_.GetGauge("slfe_uptime_seconds", "Seconds since service start")
      ->Set(s.uptime_seconds);
  metrics_.GetGauge("slfe_queue_depth", "Jobs currently queued")
      ->Set(static_cast<double>(queue_.size()));
  metrics_.GetGauge("slfe_tenants_tracked",
                    "Tenants with exact per-tenant stat rows")
      ->Set(static_cast<double>(s.tenants.size()));
  // One series per graph name, summed over every version served under it.
  std::map<std::string, uint64_t> requests_by_name;
  {
    std::lock_guard<std::mutex> lock(demand_mu_);
    for (const auto& [fingerprint, demand] : demand_) {
      requests_by_name[demand.name] += demand.requests;
    }
  }
  for (const auto& [name, requests] : requests_by_name) {
    metrics_
        .GetCounter("slfe_graph_requests_total",
                    "Submits and mutations against a graph, all versions",
                    {{"graph", name}})
        ->Set(requests);
  }
}

std::string JobService::RenderMetricsText() {
  CollectMetrics();
  return metrics_.RenderPrometheusText();
}

std::string JobService::RenderMetricsJson() {
  CollectMetrics();
  return metrics_.RenderJson();
}

std::string JobService::RenderTraceJson(const std::string& selector) const {
  auto render_list = [](std::vector<std::shared_ptr<obs::JobTrace>> traces) {
    std::string out = "{\"traces\":[";
    bool first = true;
    for (const auto& trace : traces) {
      if (!first) out.push_back(',');
      first = false;
      out += trace->ToJson();
    }
    out += "]}";
    return out;
  };
  if (selector.empty() || selector == "recent") {
    return render_list(recorder_.Recent());
  }
  if (selector == "slow") return render_list(recorder_.Slow());
  char* end = nullptr;
  uint64_t id = std::strtoull(selector.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || selector.empty()) {
    return "{\"error\":\"expected recent, slow, or a job id\"}";
  }
  std::shared_ptr<obs::JobTrace> trace = recorder_.Find(id);
  if (trace == nullptr) {
    return "{\"error\":\"no trace for job " + selector + "\"}";
  }
  return trace->ToJson();
}

void JobService::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;

  // 1. Stop admissions, then let the workers drain everything already
  //    accepted — Close() keeps queued items poppable.
  accepting_.store(false);
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();

  // 2. Stop the maintenance loop (under its mutex so the flag flip cannot
  //    slip between the loop's predicate check and its wait).
  {
    std::lock_guard<std::mutex> mlock(maintenance_mu_);
    stopping_.store(true);
  }
  maintenance_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();

  // 3. Final sweep: a stopped service leaves its store within budget, and
  //    with every job drained no pins remain to spare anything.
  if (options_.final_sweep_on_shutdown && provider().store() != nullptr) {
    RecordSweep(provider().store()->Sweep());
  }

  // 4. Leave a final metrics snapshot behind, so a scraper reading the
  //    dump file sees the service's terminal state, not a stale interval.
  if (!options_.metrics_dump_path.empty()) WriteMetricsDump();
}

}  // namespace slfe::service
