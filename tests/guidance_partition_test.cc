// Randomized differential harness for guidance generation: on seeded
// random graphs across shapes (chains, stars, RMAT, disconnected unions,
// cycle-bound rings, grids), the serial reference and the DistGraph-range
// partitioned sweep must produce bit-identical guidance — every last_iter,
// every visited flag, every level, and the depth — for every worker count,
// every forced direction policy, and every root-selection flavor. This is
// the lockdown that lets the provider pick the sweep by worker count alone
// (GuidanceProviderOptions::generation_threads).

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "slfe/common/thread_pool.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/generators.h"

namespace slfe {
namespace {

enum class Shape { kChain, kStar, kRmat, kDisconnected, kCycle, kGrid };

struct HarnessParam {
  Shape shape;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<HarnessParam>& info) {
  const char* shape = info.param.shape == Shape::kChain   ? "Chain"
                      : info.param.shape == Shape::kStar  ? "Star"
                      : info.param.shape == Shape::kRmat  ? "Rmat"
                      : info.param.shape == Shape::kCycle ? "Cycle"
                      : info.param.shape == Shape::kGrid  ? "Grid"
                                                          : "Disconnected";
  return std::string(shape) + "_seed" + std::to_string(info.param.seed);
}

/// Seed-perturbed sizes so every (shape, seed) pair is a distinct
/// topology, including shapes whose generator takes no seed (chain/star).
Graph MakeShapeGraph(const HarnessParam& p) {
  switch (p.shape) {
    case Shape::kChain:
      return Graph::FromEdges(
          GenerateChain(static_cast<VertexId>(48 + p.seed * 13 % 71)));
    case Shape::kStar:
      return Graph::FromEdges(
          GenerateStar(static_cast<VertexId>(24 + p.seed * 7 % 53)));
    case Shape::kRmat: {
      RmatOptions opt;
      opt.num_vertices = 256;
      opt.num_edges = 1500;
      opt.seed = p.seed;
      return Graph::FromEdges(GenerateRmat(opt));
    }
    case Shape::kDisconnected: {
      // Three islands with no cross edges: an Erdos-Renyi block, an offset
      // chain, and trailing isolated vertices — exercises unvisited
      // regions and partitions whose ranges straddle island boundaries.
      EdgeList er = GenerateErdosRenyi(96, 300, p.seed);
      EdgeList e(160);
      for (const Edge& edge : er.edges()) e.Add(edge.src, edge.dst);
      for (VertexId v = 96; v < 140; ++v) e.Add(v, v + 1);
      e.set_num_vertices(160);  // 141..159 isolated
      return Graph::FromEdges(e);
    }
    case Shape::kCycle: {
      // Directed ring: no zero-in-degree vertex (source roots fall back to
      // vertex 0) and the maximal propagation depth for its size.
      VertexId n = static_cast<VertexId>(40 + p.seed * 11 % 37);
      EdgeList e(n);
      for (VertexId v = 0; v < n; ++v) e.Add(v, (v + 1) % n);
      return Graph::FromEdges(e);
    }
    case Shape::kGrid:
      return Graph::FromEdges(
          GenerateGrid(static_cast<VertexId>(10 + p.seed), 13));
  }
  return Graph();
}

/// Seeded random multi-root set (possibly with duplicates — the
/// generators must dedup identically).
std::vector<VertexId> RandomRoots(const Graph& g, uint64_t seed,
                                  size_t count) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  std::uniform_int_distribution<VertexId> pick(
      0, g.num_vertices() > 0 ? g.num_vertices() - 1 : 0);
  std::vector<VertexId> roots;
  roots.reserve(count);
  for (size_t i = 0; i < count; ++i) roots.push_back(pick(rng));
  return roots;
}

void ExpectBitIdentical(const RRGuidance& want, const RRGuidance& got,
                        const std::string& label) {
  ASSERT_EQ(want.num_vertices(), got.num_vertices()) << label;
  ASSERT_EQ(want.depth(), got.depth()) << label;
  ASSERT_TRUE(want.has_levels()) << label;
  ASSERT_TRUE(got.has_levels()) << label;
  for (VertexId v = 0; v < want.num_vertices(); ++v) {
    ASSERT_EQ(want.last_iter(v), got.last_iter(v))
        << label << " last_iter mismatch at v=" << v;
    ASSERT_EQ(want.visited(v), got.visited(v))
        << label << " visited mismatch at v=" << v;
    ASSERT_EQ(want.level(v), got.level(v))
        << label << " level mismatch at v=" << v;
  }
}

/// The differential core: serial == partitioned for every worker count
/// and both forced directions plus the adaptive default, and through the
/// Generate dispatcher the provider uses.
void CheckSweeps(const Graph& g, const std::vector<VertexId>& roots,
                 const std::string& label) {
  if (roots.empty()) return;
  RRGuidance serial = RRGuidance::GenerateSerial(g, roots);
  for (size_t workers : {2u, 3u, 5u}) {
    ThreadPool pool(workers);
    for (double fraction : {0.05, 0.0, 1e18}) {
      std::string tag = label + " workers=" + std::to_string(workers) +
                        " fraction=" + std::to_string(fraction);
      ExpectBitIdentical(
          serial, RRGuidance::GeneratePartitioned(g, roots, pool, fraction),
          tag + " partitioned");
    }
  }
  // Degenerate pool: one worker owns the whole vertex range.
  ThreadPool single(1);
  ExpectBitIdentical(serial,
                     RRGuidance::GeneratePartitioned(g, roots, single),
                     label + " partitioned single worker");
  // The dispatcher: partitioned with a multi-worker pool, serial with a
  // 1-worker pool or none.
  ThreadPool pool(4);
  ExpectBitIdentical(serial, RRGuidance::Generate(g, roots, &pool),
                     label + " dispatch pool");
  ExpectBitIdentical(serial, RRGuidance::Generate(g, roots, &single),
                     label + " dispatch single worker");
  ExpectBitIdentical(serial, RRGuidance::Generate(g, roots),
                     label + " dispatch null pool");
}

class GuidancePartitionTest : public ::testing::TestWithParam<HarnessParam> {
};

TEST_P(GuidancePartitionTest, SerialAndPartitionedBitIdentical) {
  Graph g = MakeShapeGraph(GetParam());
  uint64_t seed = GetParam().seed;
  VertexId last = g.num_vertices() - 1;
  CheckSweeps(g, {0}, "single root");
  CheckSweeps(g, RandomRoots(g, seed, 5), "random roots");
  CheckSweeps(g, {last, 0, last, last, 0}, "duplicate roots");
  CheckSweeps(g, SelectSourceRoots(g), "source roots");
  CheckSweeps(g, SelectLocalMinimaRoots(g), "local minima roots");
}

TEST_P(GuidancePartitionTest, GenerateAllRootsWithPoolMatchesSerial) {
  Graph g = MakeShapeGraph(GetParam());
  ThreadPool pool(4);
  ExpectBitIdentical(RRGuidance::GenerateAllRoots(g),
                     RRGuidance::GenerateAllRoots(g, &pool), "all roots");
}

TEST_P(GuidancePartitionTest, PartitionRangesMatchDistGraph) {
  // The generator must slice exactly where the distributed engine does —
  // the whole point of "partition-aware" is that a worker preprocesses
  // the vertices its node later owns.
  Graph g = MakeShapeGraph(GetParam());
  for (int nodes : {1, 3, 4}) {
    DistGraph dg = DistGraph::Build(g, nodes);
    std::vector<VertexRange> exported = DistGraph::BuildRanges(g, nodes);
    ASSERT_EQ(exported.size(), dg.ranges().size());
    for (size_t i = 0; i < exported.size(); ++i) {
      EXPECT_EQ(exported[i].begin, dg.ranges()[i].begin);
      EXPECT_EQ(exported[i].end, dg.ranges()[i].end);
    }
  }
}

TEST_P(GuidancePartitionTest, ProviderWorkerCountsAgree) {
  // End to end through the provider: a 1-worker provider (serial sweep)
  // and a 3-worker one (partitioned sweep) hand out byte-equal guidance
  // for the same request.
  Graph g = MakeShapeGraph(GetParam());
  std::vector<VertexId> roots = SelectSourceRoots(g);
  if (roots.empty()) return;

  auto acquire = [&](size_t threads) {
    GuidanceProviderOptions opt;
    opt.generation_threads = threads;
    GuidanceProvider provider(opt);
    GuidanceAcquisition a = provider.AcquireForRoots(g, roots);
    EXPECT_TRUE(a) << "generation_threads=" << threads;
    EXPECT_EQ(provider.stats().generations, 1u);
    return a.guidance;
  };
  auto serial = acquire(1);
  auto partitioned = acquire(3);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(partitioned, nullptr);
  ExpectBitIdentical(*serial, *partitioned, "provider partitioned");
}

TEST(GuidancePartitionEdgeCases, EmptyGraphAndEmptyRoots) {
  Graph empty;
  ThreadPool pool(3);
  RRGuidance rrg = RRGuidance::GeneratePartitioned(empty, {}, pool);
  EXPECT_EQ(rrg.num_vertices(), 0u);
  EXPECT_EQ(rrg.depth(), 0u);

  Graph chain = Graph::FromEdges(GenerateChain(8));
  RRGuidance noop = RRGuidance::GeneratePartitioned(chain, {}, pool);
  ExpectBitIdentical(RRGuidance::GenerateSerial(chain, {}), noop,
                     "empty roots");
}

TEST(GuidancePartitionEdgeCases, MoreWorkersThanVertices) {
  // Tail ranges are empty; they must neither crash nor skew results.
  Graph g = Graph::FromEdges(GenerateChain(3));
  ThreadPool pool(8);
  ExpectBitIdentical(RRGuidance::GenerateSerial(g, {0}),
                     RRGuidance::GeneratePartitioned(g, {0}, pool),
                     "8 workers, 3 vertices");
}

TEST(GuidancePartitionEdgeCases, BookkeepingIsAccounted) {
  // The partitioned sweep reports a bookkeeping share, and it never
  // exceeds total generation time; the serial sweep has none.
  RmatOptions opt;
  opt.num_vertices = 2048;
  opt.num_edges = 12000;
  opt.seed = 9;
  Graph g = Graph::FromEdges(GenerateRmat(opt));
  ThreadPool pool(4);
  RRGuidance serial = RRGuidance::GenerateSerial(g, {0});
  EXPECT_EQ(serial.bookkeeping_seconds(), 0.0);
  RRGuidance part = RRGuidance::GeneratePartitioned(g, {0}, pool);
  EXPECT_GT(part.bookkeeping_seconds(), 0.0);
  EXPECT_LE(part.bookkeeping_seconds(), part.generation_seconds());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GuidancePartitionTest,
    ::testing::Values(HarnessParam{Shape::kChain, 1},
                      HarnessParam{Shape::kChain, 2},
                      HarnessParam{Shape::kStar, 1},
                      HarnessParam{Shape::kStar, 2},
                      HarnessParam{Shape::kRmat, 1},
                      HarnessParam{Shape::kRmat, 2},
                      HarnessParam{Shape::kRmat, 3},
                      HarnessParam{Shape::kDisconnected, 1},
                      HarnessParam{Shape::kDisconnected, 2},
                      HarnessParam{Shape::kCycle, 1},
                      HarnessParam{Shape::kCycle, 2},
                      HarnessParam{Shape::kGrid, 1},
                      HarnessParam{Shape::kGrid, 2}),
    ParamName);

}  // namespace
}  // namespace slfe
