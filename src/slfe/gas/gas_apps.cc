#include "slfe/gas/gas_apps.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace slfe::gas {

GasSsspResult RunGasSssp(const Graph& graph, VertexId root,
                         const GasOptions& options) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  GasSsspResult result;
  result.dist.assign(graph.num_vertices(), kInf);
  result.dist[root] = 0.0f;

  GasEngine<float> engine(graph, options);
  std::vector<float>& dist = result.dist;
  // Seed with the root's out-neighborhood (the root itself has no
  // improving gather; its scatter is emulated by activating successors).
  std::vector<VertexId> seeds;
  graph.out().ForEachNeighbor(root,
                              [&](VertexId u, Weight) { seeds.push_back(u); });
  result.stats = engine.Run(
      seeds, kInf,
      [&dist](float acc, VertexId src, Weight w) {
        return std::min(acc, dist[src] + w);
      },
      [&dist](VertexId v, float acc) {
        if (acc < dist[v]) {
          dist[v] = acc;
          return true;
        }
        return false;
      });
  return result;
}

GasCcResult RunGasCc(const Graph& graph, const GasOptions& options) {
  GasCcResult result;
  result.labels.resize(graph.num_vertices());
  std::iota(result.labels.begin(), result.labels.end(), 0u);

  GasEngine<uint32_t> engine(graph, options);
  std::vector<uint32_t>& labels = result.labels;
  std::vector<VertexId> seeds(graph.num_vertices());
  std::iota(seeds.begin(), seeds.end(), 0u);
  result.stats = engine.Run(
      seeds, UINT32_MAX,
      [&labels](uint32_t acc, VertexId src, Weight) {
        return std::min(acc, labels[src]);
      },
      [&labels](VertexId v, uint32_t acc) {
        if (acc < labels[v]) {
          labels[v] = acc;
          return true;
        }
        return false;
      });
  return result;
}

GasWpResult RunGasWp(const Graph& graph, VertexId root,
                     const GasOptions& options) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  GasWpResult result;
  result.width.assign(graph.num_vertices(), 0.0f);
  result.width[root] = kInf;

  GasEngine<float> engine(graph, options);
  std::vector<float>& width = result.width;
  std::vector<VertexId> seeds;
  graph.out().ForEachNeighbor(root,
                              [&](VertexId u, Weight) { seeds.push_back(u); });
  result.stats = engine.Run(
      seeds, 0.0f,
      [&width](float acc, VertexId src, Weight w) {
        return std::max(acc, std::min(width[src], w));
      },
      [&width](VertexId v, float acc) {
        if (acc > width[v]) {
          width[v] = acc;
          return true;
        }
        return false;
      });
  return result;
}

GasPrResult RunGasPr(const Graph& graph, uint32_t iterations,
                     const GasOptions& options) {
  VertexId n = graph.num_vertices();
  GasPrResult result;
  result.ranks.assign(n, 1.0f);

  GasEngine<float> engine(graph, options);
  std::vector<float> contrib(n);
  std::vector<float>& ranks = result.ranks;
  auto refresh = [&](VertexId v) {
    VertexId od = graph.out_degree(v);
    contrib[v] = od > 0 ? ranks[v] / static_cast<float>(od) : ranks[v];
  };
  for (VertexId v = 0; v < n; ++v) refresh(v);

  // Double-buffered contributions keep the superstep synchronous even
  // though GasEngine interleaves gather and apply per vertex: gathers read
  // the previous superstep's snapshot, applies write ranks only, and the
  // end-of-superstep hook refreshes the snapshot.
  std::vector<VertexId> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 0u);
  result.stats = engine.Run(
      seeds, 0.0f,
      [&contrib](float acc, VertexId src, Weight) {
        return acc + contrib[src];
      },
      [&ranks](VertexId v, float acc) {
        ranks[v] = 0.15f + 0.85f * acc;
        return true;  // static PageRank: stay active the full run
      },
      iterations,
      [&](uint32_t) {
        for (VertexId v = 0; v < n; ++v) refresh(v);
      });
  return result;
}

GasTrResult RunGasTr(const Graph& graph, uint32_t iterations,
                     const GasOptions& options, float retweet_probability) {
  VertexId n = graph.num_vertices();
  GasTrResult result;
  result.influence.assign(n, 1.0f);

  GasEngine<float> engine(graph, options);
  std::vector<float> contrib(n);
  std::vector<float>& influence = result.influence;
  const float p = retweet_probability;
  for (VertexId v = 0; v < n; ++v) {
    VertexId od = graph.out_degree(v);
    contrib[v] =
        od > 0 ? (1.0f + p * influence[v]) / static_cast<float>(od) : 0.0f;
  }
  auto refresh_all = [&] {
    for (VertexId v = 0; v < n; ++v) {
      VertexId od = graph.out_degree(v);
      contrib[v] =
          od > 0 ? (1.0f + p * influence[v]) / static_cast<float>(od) : 0.0f;
    }
  };
  std::vector<VertexId> seeds(n);
  std::iota(seeds.begin(), seeds.end(), 0u);
  result.stats = engine.Run(
      seeds, 0.0f,
      [&contrib](float acc, VertexId src, Weight) {
        return acc + contrib[src];
      },
      [&influence](VertexId v, float acc) {
        influence[v] = acc;
        return true;
      },
      iterations, [&](uint32_t) { refresh_all(); });
  return result;
}

}  // namespace slfe::gas
