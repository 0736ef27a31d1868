// Component microbenchmarks (google-benchmark): CSR construction, graph
// delta application, chunk partitioning, RR guidance generation, bitmap
// throughput, generator throughput, and the engine's two propagation
// modes. These bound the per-edge costs every experiment above is built on.

#include <benchmark/benchmark.h>

#include <numeric>
#include <random>

#include "slfe/common/bitmap.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/delta.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/partitioner.h"

namespace slfe {
namespace {

EdgeList BenchEdges(EdgeId edges) {
  RmatOptions opt;
  opt.num_vertices = static_cast<VertexId>(edges / 8);
  opt.num_edges = edges;
  opt.seed = 42;
  return GenerateRmat(opt);
}

void BM_RmatGenerate(benchmark::State& state) {
  EdgeId edges = static_cast<EdgeId>(state.range(0));
  for (auto _ : state) {
    EdgeList e = BenchEdges(edges);
    benchmark::DoNotOptimize(e.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * edges);
}
BENCHMARK(BM_RmatGenerate)->Arg(1 << 14)->Arg(1 << 17);

void BM_CsrBuild(benchmark::State& state) {
  EdgeList e = BenchEdges(static_cast<EdgeId>(state.range(0)));
  for (auto _ : state) {
    Csr csr = Csr::FromEdgesBySource(e);
    benchmark::DoNotOptimize(csr.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * e.num_edges());
}
BENCHMARK(BM_CsrBuild)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 19);

/// 16 deletions of live edges and 16 insertions between random vertices:
/// the mutation batch of slfebench's mutate-query workload.
GraphDelta BenchDelta(const Graph& g) {
  std::mt19937_64 rng(7);
  const VertexId n = g.num_vertices();
  GraphDelta delta;
  while (delta.erase.size() < 16) {
    VertexId v = static_cast<VertexId>(rng() % n);
    if (g.out_degree(v) == 0) continue;
    EdgeId e = g.out().begin(v) + rng() % g.out_degree(v);
    delta.erase.emplace_back(v, g.out().neighbor(e));
  }
  while (delta.insert.size() < 16) {
    delta.insert.push_back(Edge{static_cast<VertexId>(rng() % n),
                                static_cast<VertexId>(rng() % n), 1.0f});
  }
  return delta;
}

// A new graph version: the pass over the base rows plus Graph::FromEdges
// (both CSR directions), to read beside BM_CsrBuild's one direction.
void BM_ApplyDelta(benchmark::State& state) {
  Graph g = Graph::FromEdges(BenchEdges(static_cast<EdgeId>(state.range(0))));
  GraphDelta delta = BenchDelta(g);
  for (auto _ : state) {
    Result<Graph> next = ApplyDelta(g, delta);
    benchmark::DoNotOptimize(next.value().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ApplyDelta)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 19);

void BM_ChunkPartition(benchmark::State& state) {
  Graph g = Graph::FromEdges(BenchEdges(1 << 17));
  ChunkPartitioner partitioner;
  for (auto _ : state) {
    auto ranges = partitioner.Partition(g, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(ranges.size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
}
BENCHMARK(BM_ChunkPartition)->Arg(2)->Arg(8)->Arg(64);

void BM_RrgGenerate(benchmark::State& state) {
  Graph g = Graph::FromEdges(BenchEdges(static_cast<EdgeId>(state.range(0))));
  for (auto _ : state) {
    RRGuidance rrg = RRGuidance::Generate(g, {0});
    benchmark::DoNotOptimize(rrg.depth());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_RrgGenerate)->Arg(1 << 14)->Arg(1 << 17)->Arg(1 << 19);

void BM_DistGraphBuild(benchmark::State& state) {
  Graph g = Graph::FromEdges(BenchEdges(1 << 17));
  for (auto _ : state) {
    DistGraph dg = DistGraph::Build(g, static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(dg.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_DistGraphBuild)->Arg(1)->Arg(8);

void BM_BitmapSetScan(benchmark::State& state) {
  size_t n = 1 << 20;
  Bitmap bitmap(n);
  for (auto _ : state) {
    for (size_t i = 0; i < n; i += 3) bitmap.SetBit(i);
    uint64_t ones = bitmap.CountOnes();
    benchmark::DoNotOptimize(ones);
    bitmap.Clear();
  }
  state.SetItemsProcessed(state.iterations() * n / 3);
}
BENCHMARK(BM_BitmapSetScan);

}  // namespace
}  // namespace slfe

BENCHMARK_MAIN();
