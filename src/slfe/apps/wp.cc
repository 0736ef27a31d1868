#include "slfe/apps/wp.h"

#include <algorithm>
#include <limits>

#include "slfe/api/engine_adapters.h"
#include "slfe/core/rr_runners.h"
#include "slfe/gas/gas_apps.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/sim/cluster.h"

namespace slfe {

WpResult RunWp(const Graph& graph, const AppConfig& config) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  WpResult result;
  result.width.assign(graph.num_vertices(), 0.0f);
  result.width[config.root] = kInf;

  DistGraph dg = DistGraph::Build(graph, config.num_nodes);

  GuidanceAcquisition guidance =
      AcquireGuidance(graph, config, GuidanceRootPolicy::kSingleSource);
  RecordGuidance(guidance, &result.info);

  DistEngine<float> engine(dg, MakeEngineOptions(config, guidance));
  MinMaxRunner<float> runner(&engine);

  std::vector<float>& width = result.width;
  auto gather = [&width](float acc, VertexId src, Weight w) {
    float candidate = std::min(AtomicLoad(&width[src]), w);
    return candidate > acc ? candidate : acc;
  };
  auto apply = [&width](VertexId dst, float acc) {
    if (acc > width[dst]) {
      width[dst] = acc;
      return true;
    }
    return false;
  };
  auto scatter = [&width](VertexId src, VertexId dst, Weight w) {
    float candidate = std::min(AtomicLoad(&width[src]), w);
    return AtomicMax(&width[dst], candidate);
  };

  sim::Cluster cluster(config.num_nodes, config.threads_per_node);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto run = runner.Run(ctx, {config.root}, 0.0f, gather, apply, scatter);
    if (ctx.rank == 0) {
      result.info.stats = run.stats;
      result.info.supersteps = run.supersteps;
      result.info.safety_sweep_updates = run.safety_sweep_updates;
    }
  });
  return result;
}

// Self-registration (see api/app_registry.h).
namespace {

api::AppOutcome WpOutcome(AppRunInfo info, const std::vector<float>& width) {
  api::AppOutcome out;
  out.info = info;
  out.values = api::ToValues(width);
  uint64_t reachable = 0;
  for (float w : width) {
    if (w > 0) ++reachable;
  }
  out.summary = reachable;
  out.summary_text = "reachable=" + std::to_string(reachable);
  return out;
}

api::AppRegistrar register_wp([] {
  api::AppDescriptor d;
  d.name = "wp";
  d.summary = "widest (maximum-bottleneck) paths from a root";
  d.root_policy = GuidanceRootPolicy::kSingleSource;
  d.needs_weights = true;
  d.single_source = true;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    WpResult r = RunWp(ctx.graph, ctx.config);
    return WpOutcome(r.info, r.width);
  };
  d.runners[api::Engine::kGas] = [](const api::RunContext& ctx) {
    gas::GasOptions opt;
    opt.num_nodes = ctx.config.num_nodes;
    gas::GasWpResult r = gas::RunGasWp(ctx.graph, ctx.config.root, opt);
    return WpOutcome(api::FromGasStats(r.stats), r.width);
  };
  return d;
}());

}  // namespace

}  // namespace slfe
