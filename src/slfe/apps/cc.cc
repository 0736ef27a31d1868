#include "slfe/apps/cc.h"

#include <numeric>
#include <set>

#include "slfe/api/engine_adapters.h"
#include "slfe/core/rr_runners.h"
#include "slfe/gas/gas_apps.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/sim/cluster.h"

namespace slfe {

CcResult RunCc(const Graph& graph, const AppConfig& config) {
  CcResult result;
  result.labels.resize(graph.num_vertices());
  std::iota(result.labels.begin(), result.labels.end(), 0u);

  DistGraph dg = DistGraph::Build(graph, config.num_nodes);

  std::vector<VertexId> seeds(graph.num_vertices());
  std::iota(seeds.begin(), seeds.end(), 0u);
  GuidanceAcquisition guidance =
      AcquireGuidance(graph, config, GuidanceRootPolicy::kLocalMinima);
  RecordGuidance(guidance, &result.info);

  DistEngine<uint32_t> engine(dg, MakeEngineOptions(config, guidance));
  MinMaxRunner<uint32_t> runner(&engine);

  std::vector<uint32_t>& labels = result.labels;
  auto gather = [&labels](uint32_t acc, VertexId src, Weight) {
    uint32_t candidate = AtomicLoad(&labels[src]);
    return candidate < acc ? candidate : acc;
  };
  auto apply = [&labels](VertexId dst, uint32_t acc) {
    if (acc < labels[dst]) {
      labels[dst] = acc;
      return true;
    }
    return false;
  };
  auto scatter = [&labels](VertexId src, VertexId dst, Weight) {
    return AtomicMin(&labels[dst], AtomicLoad(&labels[src]));
  };

  sim::Cluster cluster(config.num_nodes, config.threads_per_node);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto run = runner.Run(ctx, seeds, UINT32_MAX, gather, apply, scatter);
    if (ctx.rank == 0) {
      result.info.stats = run.stats;
      result.info.supersteps = run.supersteps;
      result.info.safety_sweep_updates = run.safety_sweep_updates;
    }
  });
  return result;
}

// Self-registration (see api/app_registry.h). CC runs on every engine in
// the tree: the dist cluster, the Ligra-style shm engine, the GAS
// comparator, and the out-of-core shard sweeps.
namespace {

api::AppOutcome CcOutcome(AppRunInfo info,
                          const std::vector<uint32_t>& labels) {
  api::AppOutcome out;
  out.info = info;
  out.values = api::ToValues(labels);
  std::set<uint32_t> components(labels.begin(), labels.end());
  out.summary = components.size();
  out.summary_text = "components=" + std::to_string(components.size());
  return out;
}

api::AppRegistrar register_cc([] {
  api::AppDescriptor d;
  d.name = "cc";
  d.summary = "weakly connected components (min-label propagation)";
  d.root_policy = GuidanceRootPolicy::kLocalMinima;
  d.needs_symmetric = true;
  d.runners[api::Engine::kDist] = [](const api::RunContext& ctx) {
    CcResult r = RunCc(ctx.graph, ctx.config);
    return CcOutcome(r.info, r.labels);
  };
  d.runners[api::Engine::kGas] = [](const api::RunContext& ctx) {
    gas::GasOptions opt;
    opt.num_nodes = ctx.config.num_nodes;
    gas::GasCcResult r = gas::RunGasCc(ctx.graph, opt);
    return CcOutcome(api::FromGasStats(r.stats), r.labels);
  };
  d.runners[api::Engine::kShm] = [](const api::RunContext& ctx) {
    std::vector<uint32_t> labels;
    shm::ShmStats stats =
        shm::ShmCc(ctx.graph, api::ShmThreads(ctx.config), &labels);
    return CcOutcome(api::FromShmStats(stats), labels);
  };
  d.runners[api::Engine::kOoc] = [](const api::RunContext& ctx) {
    Result<ooc::OocEngine> built =
        ooc::OocEngine::Build(ctx.graph, ctx.OocDir(), ctx.ooc_shards);
    if (!built.ok()) {
      api::AppOutcome out;
      out.status = built.status();
      return out;
    }
    ooc::OocEngine engine = std::move(built).value();
    std::vector<uint32_t> labels;
    ooc::OocStats stats = ooc::OocCc(engine, &labels);
    engine.RemoveFiles();
    return CcOutcome(api::FromOocStats(stats), labels);
  };
  return d;
}());

}  // namespace

}  // namespace slfe
