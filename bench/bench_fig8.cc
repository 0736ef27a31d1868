// Reproduces paper Fig. 8: preprocessing overhead analysis on SSSP.
// Compares Gemini's sole runtime against SLFE's runtime plus the RRG
// generation cost, all normalized to Gemini. The paper finds the overhead
// "extremely small" on the smaller graphs and an average 25.1% end-to-end
// improvement including preprocessing; the guidance is also reusable
// across jobs (~8.7 jobs per graph at Facebook), amortizing it further.
// Three follow-up sections quantify the amortization machinery itself:
// serial vs partitioned generation (with the per-iteration bookkeeping
// cost split out), cache-hit retrieval cost across repeated jobs on one
// graph, and
// warm-restart amortization through the on-disk GuidanceStore (reload vs
// resweep). Run with --smoke for the CI wiring check: a tiny graph through
// the warm-restart path only, exiting non-zero if the store did not serve
// the restarted provider.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "slfe/apps/sssp.h"
#include "slfe/common/thread_pool.h"
#include "slfe/common/timer.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/guidance_store.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/service/job_service.h"

namespace slfe {
namespace {

void OverheadSection() {
  bench::PrintHeader("Fig. 8: preprocessing overhead analysis on SSSP (8N)");
  std::printf("%-8s %-14s %-14s %-14s %-18s\n", "graph", "Gemini(s)",
              "SLFE(s)", "RRG overhead(s)", "end-to-end vs Gemini");
  bench::PrintRule();
  double sum_improvement = 0;
  int count = 0;
  for (const std::string& alias : bench::PaperGraphs()) {
    const Graph& g = bench::LoadGraph(alias);
    AppConfig gem = bench::ClusterConfig(8, false);
    AppConfig slfe = bench::ClusterConfig(8, true);
    // This section measures the per-job regeneration cost the paper plots,
    // so bypass the provider cache (section 3 measures the amortized path).
    slfe.use_guidance_cache = false;
    // Median of 3 to stabilize wall-clock numbers.
    std::vector<double> g_runs, s_runs, overhead;
    for (int i = 0; i < 3; ++i) {
      g_runs.push_back(RunSssp(g, gem).info.stats.RuntimeSeconds());
      SsspResult r = RunSssp(g, slfe);
      s_runs.push_back(r.info.stats.RuntimeSeconds());
      overhead.push_back(r.info.guidance_seconds);
    }
    double g_med = bench::Median(g_runs);
    double s_med = bench::Median(s_runs);
    double o_med = bench::Median(overhead);
    double end_to_end = s_med + o_med;
    double improvement = 100.0 * (g_med - end_to_end) / g_med;
    std::printf("%-8s %-14.4f %-14.4f %-14.4f %+-.1f%%\n", alias.c_str(),
                g_med, s_med, o_med, improvement);
    sum_improvement += improvement;
    ++count;
  }
  bench::PrintRule();
  std::printf("average end-to-end improvement: %+.1f%%  (paper: +25.1%%, "
              "overhead amortized over ~8.7 jobs/graph in practice)\n",
              sum_improvement / count);
}

void GenerationSection() {
  bench::PrintHeader(
      "Fig. 8b: guidance generation, serial vs partitioned (4-worker pool; "
      "bk = per-iteration bookkeeping share)");
  std::printf("%-8s %-8s %-12s %-12s %-12s %-10s\n", "graph", "depth",
              "serial(s)", "part4(s)", "bk-part(s)", "part vs serial");
  bench::PrintRule();
  ThreadPool pool(4);
  for (const std::string& alias : bench::PaperGraphs()) {
    const Graph& g = bench::LoadGraph(alias);
    RRGuidance reference = RRGuidance::GenerateSerial(g, {0});
    auto serial = [&] {
      return RRGuidance::GenerateSerial(g, {0}).generation_seconds();
    };
    // Medians of 3 for wall clock; the matching bookkeeping median comes
    // from the same runs so the two columns describe the same sweeps.
    std::vector<double> p_total, p_bk;
    for (int i = 0; i < 3; ++i) {
      RRGuidance p = RRGuidance::GeneratePartitioned(g, {0}, pool);
      p_total.push_back(p.generation_seconds());
      p_bk.push_back(p.bookkeeping_seconds());
    }
    double s =
        bench::Median({reference.generation_seconds(), serial(), serial()});
    double p = bench::Median(p_total);
    std::printf("%-8s %-8u %-12.5f %-12.5f %-12.5f %.2fx\n", alias.c_str(),
                reference.depth(), s, p, bench::Median(p_bk),
                p > 0 ? s / p : 0.0);
  }
  std::printf(
      "(bk isolates the per-iteration frontier-bitmap fill and merge, which "
      "folds in the frontier-edge count that drives push/pull switching; "
      "the rest is edge traversal)\n");
}

/// Warm-restart amortization: the §4.4 story across process lifetimes. A
/// provider with a store_dir pays the sweep once; a second provider over
/// the same directory — a simulated restart with a cold memory cache —
/// pays one file read. Returns false if the restarted provider did not
/// load from the store (the CI smoke check).
bool WarmRestartSection(bool smoke) {
  bench::PrintHeader(
      "Fig. 8d: warm-restart amortization via GuidanceStore (reload vs "
      "resweep)");
  std::printf("%-8s %-14s %-14s %-16s %-10s\n", "graph", "resweep(s)",
              "reload(s)", "reload cheaper by", "served-by");
  bench::PrintRule();
  bool all_from_store = true;
  // PID-suffixed so concurrent bench/CI runs on one machine cannot wipe
  // each other's entries between the first-process and restarted
  // providers; removed again at the end of the section.
  std::string dir = "/tmp/slfe_bench_guidance_store." +
                    std::to_string(::getpid());
  std::vector<std::string> graphs =
      smoke ? std::vector<std::string>{"PK"} : bench::PaperGraphs();
  for (const std::string& alias : graphs) {
    const Graph& g = bench::LoadGraph(alias);
    {
      GuidanceStore wipe(dir);  // cold start: drop any previous entries
      wipe.RemoveAll();
    }
    GuidanceProviderOptions opt;
    opt.store_dir = dir;
    // Production-shaped lifecycle: budgets generous enough to never evict
    // the live entry, but present so every bench run exercises the
    // construction-time sweep.
    opt.store_gc.max_entries = 256;
    opt.store_gc.ttl_seconds = 24 * 3600;
    double resweep = 0;
    {
      GuidanceProvider first_process(opt);
      resweep = first_process.AcquireForRoots(g, {0}).acquire_seconds;
    }
    GuidanceProvider restarted(opt);  // same dir, cold memory cache
    GuidanceAcquisition a = restarted.AcquireForRoots(g, {0});
    bool from_store = restarted.cache_stats().store_hits == 1 &&
                      restarted.stats().generations == 0;
    all_from_store = all_from_store && from_store;
    std::printf("%-8s %-14.6f %-14.6f %-16.0fx %-10s\n", alias.c_str(),
                resweep, a.acquire_seconds,
                a.acquire_seconds > 0 ? resweep / a.acquire_seconds : 0.0,
                from_store ? "store" : "RESWEEP!");
  }
  {
    GuidanceStore cleanup(dir);
    cleanup.RemoveAll();
  }
  ::rmdir(dir.c_str());
  std::printf("(reload is one checksummed sequential file read; the ratio "
              "is the §4.4 amortization that survives restarts)\n");
  return all_from_store;
}

void AmortizationSection() {
  bench::PrintHeader(
      "Fig. 8c: cache-hit amortization across repeated jobs (paper: ~8.7 "
      "jobs/graph)");
  std::printf("%-8s %-14s %-14s %-14s\n", "graph", "job1 miss(s)",
              "jobs2-5 hit(s)", "hit cheaper by");
  bench::PrintRule();
  constexpr int kJobs = 5;
  for (const std::string& alias : bench::PaperGraphs()) {
    const Graph& g = bench::LoadGraph(alias);
    GuidanceProvider provider;  // fresh cache per graph
    AppConfig cfg = bench::ClusterConfig(8, true);
    cfg.guidance_provider = &provider;
    double miss_cost = 0, hit_cost = 0;
    for (int job = 0; job < kJobs; ++job) {
      SsspResult r = RunSssp(g, cfg);
      if (job == 0) {
        miss_cost = r.info.guidance_seconds;
      } else {
        hit_cost += r.info.guidance_seconds / (kJobs - 1);
      }
    }
    GuidanceCacheStats stats = provider.cache_stats();
    std::printf("%-8s %-14.6f %-14.6f %-10.0fx   (hits=%llu misses=%llu)\n",
                alias.c_str(), miss_cost, hit_cost,
                hit_cost > 0 ? miss_cost / hit_cost : 0.0,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses));
  }
  std::printf("(retrieval is an O(|roots|) key hash + LRU lookup; the "
              "acceptance bar is >=10x cheaper than regeneration)\n");
}

/// Service amortization: N tenants submit concurrent guidance-using jobs
/// on shared graphs through ONE JobService; the shared provider's
/// singleflight + cache must collapse them to exactly one generation per
/// graph. This is the §4.4 multi-job amortization realized inside one
/// long-lived process instead of across CLI invocations. Returns false
/// (the CI smoke signal) if any graph generated more than once or any job
/// failed.
bool ServiceSection(bool smoke) {
  bench::PrintHeader(
      "Fig. 8e: multi-tenant service amortization (4 tenants x 2 jobs per "
      "graph through one JobService)");
  std::vector<std::string> graphs =
      smoke ? std::vector<std::string>{"PK"}
            : std::vector<std::string>{"PK", "OK", "LJ"};
  constexpr int kTenants = 4;
  constexpr int kJobsPerTenantPerGraph = 2;

  service::JobServiceOptions sopt;
  sopt.workers = 4;
  sopt.queue_capacity = 256;
  sopt.job_nodes = 8;
  service::JobService svc(sopt);
  for (const std::string& alias : graphs) {
    Graph copy = bench::LoadGraph(alias);  // service owns its registry
    svc.RegisterGraph(alias, std::move(copy));
  }

  Timer timer;
  std::vector<service::JobTicket> tickets;
  for (int job = 0; job < kJobsPerTenantPerGraph; ++job) {
    for (int tenant = 0; tenant < kTenants; ++tenant) {
      for (const std::string& alias : graphs) {
        service::JobRequest request;
        request.tenant = "tenant" + std::to_string(tenant);
        request.app = "sssp";
        request.graph = alias;
        request.root = 0;
        auto ticket = svc.Submit(request);
        if (ticket.ok()) tickets.push_back(std::move(ticket).value());
      }
    }
  }
  bool all_ok = true;
  double miss_cost = 0, hit_cost = 0;
  uint64_t hits = 0, misses = 0;
  for (const auto& ticket : tickets) {
    const service::JobResult& r = ticket->Wait();
    all_ok = all_ok && r.status.ok();
    if (!r.guidance_acquired) continue;
    if (r.guidance_cache_hit || r.guidance_coalesced) {
      hit_cost += r.guidance_seconds;
      ++hits;
    } else {
      miss_cost += r.guidance_seconds;
      ++misses;
    }
  }
  double wall = timer.Seconds();
  svc.Shutdown();
  service::JobServiceStats stats = svc.Stats();

  std::printf("%-10s %-8s %-14s %-14s %-14s\n", "jobs", "graphs",
              "generations", "amortized", "wall(s)");
  bench::PrintRule();
  std::printf("%-10zu %-8zu %-14llu %-14llu %-14.3f\n", tickets.size(),
              graphs.size(),
              static_cast<unsigned long long>(stats.provider.generations),
              static_cast<unsigned long long>(hits), wall);
  for (const auto& [tenant, t] : stats.tenants) {
    std::printf("  %-12s jobs=%llu hits=%llu misses=%llu acquire=%.5fs\n",
                tenant.c_str(),
                static_cast<unsigned long long>(t.jobs_completed),
                static_cast<unsigned long long>(t.guidance_hits),
                static_cast<unsigned long long>(t.guidance_misses),
                t.guidance_seconds);
  }
  std::printf("(amortized acquisition: %.6fs avg hit vs %.6fs avg miss — "
              "every job after the first per graph rode the shared "
              "provider's singleflight/cache)\n",
              hits > 0 ? hit_cost / hits : 0.0,
              misses > 0 ? miss_cost / misses : 0.0);

  bool one_generation_per_graph =
      stats.provider.generations == graphs.size() &&
      misses == stats.provider.generations;
  if (!one_generation_per_graph) {
    std::printf("SERVICE AMORTIZATION FAILED: generations=%llu want %zu\n",
                static_cast<unsigned long long>(stats.provider.generations),
                graphs.size());
  }
  return all_ok && one_generation_per_graph && stats.failed == 0;
}

int Run(bool smoke) {
  if (smoke) {
    // CI wiring check: tiny graph through the warm-restart path and the
    // multi-tenant service path; non-zero exit if the store did not serve
    // the restarted provider or the service amortization broke.
    bool ok = WarmRestartSection(/*smoke=*/true);
    ok = ServiceSection(/*smoke=*/true) && ok;
    return ok ? 0 : 1;
  }
  OverheadSection();
  GenerationSection();
  AmortizationSection();
  ServiceSection(/*smoke=*/false);
  WarmRestartSection(/*smoke=*/false);
  return 0;
}

}  // namespace
}  // namespace slfe

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return slfe::Run(smoke);
}
