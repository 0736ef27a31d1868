#include "slfe/apps/sssp.h"

#include <limits>

#include "slfe/api/engine_adapters.h"
#include "slfe/core/rr_runners.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/gas/gas_apps.h"
#include "slfe/sim/cluster.h"

namespace slfe {

SsspResult RunSssp(const Graph& graph, const AppConfig& config) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  SsspResult result;
  result.dist.assign(graph.num_vertices(), kInf);
  result.dist[config.root] = 0.0f;

  DistGraph dg = DistGraph::Build(graph, config.num_nodes);

  GuidanceAcquisition guidance =
      AcquireGuidance(graph, config, GuidanceRootPolicy::kSingleSource);
  RecordGuidance(guidance, &result.info);

  DistEngine<float> engine(dg, MakeEngineOptions(config, guidance));
  MinMaxRunner<float> runner(&engine);

  std::vector<float>& dist = result.dist;
  auto gather = [&dist](float acc, VertexId src, Weight w) {
    float candidate = AtomicLoad(&dist[src]) + w;
    return candidate < acc ? candidate : acc;
  };
  auto apply = [&dist](VertexId dst, float acc) {
    if (acc < dist[dst]) {
      dist[dst] = acc;  // dst is rank-local; no atomics needed in pull
      return true;
    }
    return false;
  };
  auto scatter = [&dist](VertexId src, VertexId dst, Weight w) {
    float candidate = AtomicLoad(&dist[src]) + w;
    return AtomicMin(&dist[dst], candidate);
  };

  sim::Cluster cluster(config.num_nodes, config.threads_per_node);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto run = runner.Run(ctx, {config.root}, kInf, gather, apply, scatter);
    if (ctx.rank == 0) {
      result.info.stats = run.stats;
      result.info.supersteps = run.supersteps;
      result.info.safety_sweep_updates = run.safety_sweep_updates;
    }
  });
  return result;
}

// Self-registration: this file is the ONE place that declares what sssp
// is — which engines run it, its guidance policy, its graph needs — and
// every surface (CLI, daemon, line protocol, benches) derives dispatch
// and validation from this descriptor.
namespace {

api::AppOutcome SsspOutcome(AppRunInfo info, const std::vector<float>& dist) {
  api::AppOutcome out;
  out.info = info;
  out.values = api::ToValues(dist);
  uint64_t reached = 0;
  for (float d : dist) {
    if (d < std::numeric_limits<float>::infinity()) ++reached;
  }
  out.summary = reached;
  out.summary_text = "reached=" + std::to_string(reached) + " of " +
                     std::to_string(dist.size());
  return out;
}

api::AppRegistrar register_sssp([] {
  api::AppDescriptor d;
  d.name = "sssp";
  d.summary = "single-source shortest paths (start-late RR)";
  d.root_policy = GuidanceRootPolicy::kSingleSource;
  d.needs_weights = true;
  d.single_source = true;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    SsspResult r = RunSssp(ctx.graph, ctx.config);
    return SsspOutcome(r.info, r.dist);
  };
  d.runners[api::Engine::kGas] = [](const api::RunContext& ctx) {
    gas::GasOptions opt;
    opt.num_nodes = ctx.config.num_nodes;
    gas::GasSsspResult r = gas::RunGasSssp(ctx.graph, ctx.config.root, opt);
    return SsspOutcome(api::FromGasStats(r.stats), r.dist);
  };
  d.runners[api::Engine::kShm] = [](const api::RunContext& ctx) {
    std::vector<float> dist;
    shm::ShmStats stats = shm::ShmSssp(ctx.graph, ctx.config.root,
                                       api::ShmThreads(ctx.config), &dist);
    return SsspOutcome(api::FromShmStats(stats), dist);
  };
  return d;
}());

}  // namespace

}  // namespace slfe
