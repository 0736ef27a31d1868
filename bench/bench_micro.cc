// Component microbenchmarks (google-benchmark): CSR construction, graph
// delta application, chunk partitioning, RR guidance generation, bitmap
// throughput, generator throughput, and the fixed costs of the engine: a
// sparse (push) superstep and one cross-rank collective. These bound the
// per-edge and per-superstep costs every experiment above is built on.

#include <benchmark/benchmark.h>

#include <numeric>
#include <random>

#include "bench/bench_util.h"
#include "slfe/apps/bfs.h"
#include "slfe/common/bitmap.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/delta.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/partitioner.h"
#include "slfe/sim/cluster.h"

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

/// bfs to completion on the deep 192x192 grid, guidance off: about 380
/// supersteps of about 100 active vertices each. Items are supersteps, so
/// the time per item is what one sparse superstep costs at N nodes.
void BM_GridBfs(benchmark::State& state) {
  const Graph& g = bench::LoadGraph("GRID");
  AppConfig config;
  config.num_nodes = static_cast<int>(state.range(0));
  uint64_t supersteps = 0;
  for (auto _ : state) {
    BfsResult r = RunBfs(g, config);
    benchmark::DoNotOptimize(r.levels.data());
    supersteps += r.info.supersteps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(supersteps));
}
BENCHMARK(BM_GridBfs)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// One AllReduceSum across N simulated ranks. 1000 run back to back per
/// Cluster::Run, so the rank threads' start-up is amortized; items are
/// collectives.
void BM_AllReduceSum(benchmark::State& state) {
  constexpr int kCalls = 1000;
  sim::Cluster cluster(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    cluster.Run([&](sim::NodeContext& ctx) {
      uint64_t sum = 0;
      for (int i = 0; i < kCalls; ++i) {
        sum += ctx.world->AllReduceSum(ctx.rank, static_cast<uint64_t>(i));
      }
      benchmark::DoNotOptimize(sum);
    });
  }
  state.SetItemsProcessed(state.iterations() * kCalls);
}
BENCHMARK(BM_AllReduceSum)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace slfe

BENCHMARK_MAIN();
