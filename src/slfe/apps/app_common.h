#ifndef SLFE_APPS_APP_COMMON_H_
#define SLFE_APPS_APP_COMMON_H_

#include <cstdint>

#include "slfe/core/guidance_provider.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/dist_engine.h"
#include "slfe/graph/types.h"
#include "slfe/obs/trace.h"
#include "slfe/sim/comm.h"

namespace slfe {

/// Shared configuration for all applications: how large the simulated
/// cluster is, whether SLFE's redundancy reduction is active, and the
/// knobs the paper's ablations toggle.
struct AppConfig {
  int num_nodes = 1;
  int threads_per_node = 1;
  /// false = the Gemini baseline (same engine, no guidance).
  bool enable_rr = false;
  bool enable_stealing = true;
  sim::CostModel cost_model;
  /// Arithmetic apps: iteration cap and L1 convergence threshold.
  uint32_t max_iters = 100;
  double epsilon = 1e-9;
  /// Single-source apps: query root.
  VertexId root = 0;
  /// Overrides the engine's dense/sparse switch threshold.
  double dense_fraction = 0.05;
  /// Serve guidance from the provider's cache (paper §4.4 multi-job
  /// amortization). Disable to force regeneration every run.
  bool use_guidance_cache = true;
  /// Provider to acquire guidance from; nullptr = the process-wide
  /// GuidanceProvider::Global(), which all apps share by default.
  GuidanceProvider* guidance_provider = nullptr;
  /// Optional per-job span trace (guidance_acquire.* spans are recorded
  /// against it). Null = tracing disabled; must outlive the run.
  obs::JobTrace* trace = nullptr;
};

/// Common result bundle: engine statistics plus preprocessing cost.
struct AppRunInfo {
  EngineStats stats;
  uint64_t supersteps = 0;
  /// Guidance acquisition wall time actually paid by this run: the sweep
  /// cost on a cache miss, the near-zero lookup cost on a hit (Fig. 8
  /// numerator, amortized form).
  double guidance_seconds = 0;
  /// Guidance sweep depth (diagnostics).
  uint32_t guidance_depth = 0;
  /// True when a (non-null) guidance was actually acquired for this run.
  bool guidance_acquired = false;
  /// True when guidance came from the cache instead of a fresh sweep.
  bool guidance_cache_hit = false;
  /// True when this run piggybacked on another job's in-flight sweep
  /// (provider singleflight) — the JobService counts hit = cache_hit ||
  /// coalesced for its per-tenant amortization accounting.
  bool guidance_coalesced = false;
  /// True when the miss was served by patching the previous graph
  /// version's guidance (RRGuidance::Repair) instead of a full sweep.
  bool guidance_repaired = false;
  /// Safety-sweep updates (min/max apps; 0 means guidance was exact).
  uint64_t safety_sweep_updates = 0;
  /// Early-converged vertices at termination (arith apps, Fig. 2).
  uint64_t ec_vertices = 0;
};

/// Acquires RR guidance for an app run through the provider layer: root
/// selection per `policy`, cache lookup, parallel generation on miss.
/// Returns an empty acquisition (null guidance) when RR is disabled.
inline GuidanceAcquisition AcquireGuidance(const Graph& graph,
                                           const AppConfig& config,
                                           GuidanceRootPolicy policy) {
  if (!config.enable_rr) return {};
  GuidanceProvider& provider = config.guidance_provider != nullptr
                                   ? *config.guidance_provider
                                   : GuidanceProvider::Global();
  GuidanceRequest request;
  request.policy = policy;
  request.root = config.root;
  request.use_cache = config.use_guidance_cache;
  if (config.trace == nullptr) return provider.Acquire(graph, request);
  double start = config.trace->Now();
  GuidanceAcquisition acquisition = provider.Acquire(graph, request);
  const char* outcome = !acquisition          ? "none"
                        : acquisition.store_hit ? "store"
                        : acquisition.cache_hit ? "cache"
                        : acquisition.coalesced ? "coalesced"
                        : acquisition.repaired  ? "repair"
                                                : "generate";
  config.trace->AddSpanSince(std::string("guidance_acquire.") + outcome,
                             start);
  return acquisition;
}

/// Copies the acquisition's accounting into the run info.
inline void RecordGuidance(const GuidanceAcquisition& acquisition,
                           AppRunInfo* info) {
  if (!acquisition) return;
  info->guidance_acquired = true;
  info->guidance_seconds = acquisition.acquire_seconds;
  info->guidance_depth = acquisition.guidance->depth();
  info->guidance_cache_hit = acquisition.cache_hit;
  info->guidance_coalesced = acquisition.coalesced;
  info->guidance_repaired = acquisition.repaired;
}

/// Builds EngineOptions from an AppConfig (mode policy is set per app).
inline EngineOptions MakeEngineOptions(const AppConfig& config) {
  EngineOptions opt;
  opt.enable_work_stealing = config.enable_stealing;
  opt.cost_model = config.cost_model;
  opt.dense_fraction = config.dense_fraction;
  return opt;
}

/// As above, additionally threading acquired guidance into the engine so
/// runners constructed from the engine pick it up (null guidance = the
/// Gemini baseline).
inline EngineOptions MakeEngineOptions(const AppConfig& config,
                                       const GuidanceAcquisition& guidance) {
  EngineOptions opt = MakeEngineOptions(config);
  opt.guidance = guidance.guidance;
  return opt;
}

}  // namespace slfe

#endif  // SLFE_APPS_APP_COMMON_H_
