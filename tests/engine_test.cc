// Tests for the distributed engine layer: DistGraph mirror accounting,
// mode selection, activation semantics, counters, and communication
// accounting.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "slfe/engine/atomic_ops.h"
#include "slfe/engine/dist_engine.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/generators.h"
#include "slfe/sim/cluster.h"

namespace slfe {
namespace {

// ------------------------------------------------------------ AtomicOps

TEST(AtomicOpsTest, AtomicMinOnlyDecreases) {
  float x = 10.0f;
  EXPECT_TRUE(AtomicMin(&x, 5.0f));
  EXPECT_EQ(x, 5.0f);
  EXPECT_FALSE(AtomicMin(&x, 7.0f));
  EXPECT_EQ(x, 5.0f);
  EXPECT_FALSE(AtomicMin(&x, 5.0f));  // equal is not an improvement
}

TEST(AtomicOpsTest, AtomicMaxOnlyIncreases) {
  uint32_t x = 3;
  EXPECT_TRUE(AtomicMax(&x, 9u));
  EXPECT_FALSE(AtomicMax(&x, 4u));
  EXPECT_EQ(x, 9u);
}

TEST(AtomicOpsTest, AtomicAddFloatUnderContention) {
  double total = 0;
  ThreadPool pool(4);
  pool.ParallelRun([&](size_t) {
    for (int i = 0; i < 1000; ++i) AtomicAdd(&total, 1.0);
  });
  EXPECT_DOUBLE_EQ(total, 4000.0);
}

TEST(AtomicOpsTest, AtomicMinUnderContentionKeepsMinimum) {
  float x = std::numeric_limits<float>::infinity();
  ThreadPool pool(4);
  pool.ParallelRun([&](size_t w) {
    for (int i = 1000; i > 0; --i) {
      AtomicMin(&x, static_cast<float>(i + static_cast<int>(w)));
    }
  });
  EXPECT_EQ(x, 1.0f);
}

// ------------------------------------------------------------- DistGraph

TEST(DistGraphTest, SingleNodeHasNoMirrors) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(100, 500, 3));
  DistGraph dg = DistGraph::Build(g, 1);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(dg.MirrorNodeCount(v), 0);
  }
}

TEST(DistGraphTest, MirrorCountBounds) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(256, 2000, 4));
  int nodes = 4;
  DistGraph dg = DistGraph::Build(g, nodes);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(dg.MirrorNodeCount(v), nodes - 1);
    // A vertex with out-degree 0 has no mirrors.
    if (g.out_degree(v) == 0) {
      EXPECT_EQ(dg.MirrorNodeCount(v), 0);
    }
  }
}

TEST(DistGraphTest, ChainMirrorsOnlyAtBoundaries) {
  // In a chain partitioned into contiguous ranges, only the last vertex of
  // each range has a remote successor.
  Graph g = Graph::FromEdges(GenerateChain(100));
  DistGraph dg = DistGraph::Build(g, 4);
  int mirrored = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (dg.MirrorNodeCount(v) > 0) ++mirrored;
  }
  EXPECT_LE(mirrored, 3);  // at most one per internal boundary
}

TEST(DistGraphTest, NodeEdgeTotalsSumToGraph) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(300, 2500, 5));
  DistGraph dg = DistGraph::Build(g, 5);
  EdgeId out_total = 0, in_total = 0;
  for (int p = 0; p < dg.num_nodes(); ++p) {
    out_total += dg.NodeOutEdges(p);
    in_total += dg.NodeInEdges(p);
  }
  EXPECT_EQ(out_total, g.num_edges());
  EXPECT_EQ(in_total, g.num_edges());
}

TEST(DistGraphTest, OwnerLookupConsistentWithRanges) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(200, 1000, 9));
  DistGraph dg = DistGraph::Build(g, 3);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    int owner = dg.OwnerOf(v);
    EXPECT_TRUE(dg.range(owner).Contains(v));
  }
}

// ------------------------------------------------------------ DistEngine

// Minimal BFS over the engine to exercise collectives deterministically.
// V is the engine's accumulator type: uint32_t levels for the BFS tests,
// float distances for the SSSP ones.
template <typename V = uint32_t>
struct EngineHarness {
  explicit EngineHarness(const Graph& graph, int nodes, int threads,
                         EngineOptions options = {})
      : dg(DistGraph::Build(graph, nodes)),
        engine(dg, options),
        cluster(nodes, threads) {}

  DistGraph dg;
  DistEngine<V> engine;
  sim::Cluster cluster;
};

TEST(DistEngineTest, BfsViaProcessEdges) {
  Graph g = Graph::FromEdges(GenerateGrid(10, 10));
  EngineHarness h(g, 4, 1);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  level[0] = 0;

  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX,
          [&level](uint32_t acc, VertexId src, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            return lv == UINT32_MAX ? acc : std::min(acc, lv + 1);
          },
          [&level](VertexId dst, uint32_t acc) {
            if (acc < level[dst]) {
              level[dst] = acc;
              return true;
            }
            return false;
          },
          [&level](VertexId src, VertexId dst, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            if (lv == UINT32_MAX) return false;
            return AtomicMin(&level[dst], lv + 1);
          });
    }
    h.engine.FinishRun(ctx);
  });
  // Grid BFS levels = Manhattan distance from corner (0,0).
  for (VertexId r = 0; r < 10; ++r) {
    for (VertexId c = 0; c < 10; ++c) {
      EXPECT_EQ(level[r * 10 + c], r + c) << "r=" << r << " c=" << c;
    }
  }
}

TEST(DistEngineTest, ActivateSeedsSetsEachDistinctSeedOnce) {
  // Seeds at both ends and the middle of every rank's range, each range's
  // first vertex twice: every owner sets its own seeds behind one barrier,
  // so the promoted set holds exactly the distinct seeds.
  Graph g = Graph::FromEdges(GenerateChain(300));
  EngineHarness h(g, 3, 1);
  std::vector<VertexId> seeds;
  for (int p = 0; p < 3; ++p) {
    const VertexRange& r = h.dg.range(p);
    ASSERT_LT(r.begin, r.end);
    for (VertexId v : {r.begin, r.end - 1, r.begin, (r.begin + r.end) / 2}) {
      seeds.push_back(v);
    }
  }
  std::set<VertexId> distinct(seeds.begin(), seeds.end());
  std::vector<uint64_t> active(3, 0);
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, seeds);
    active[ctx.rank] = h.engine.PromoteActiveSet(ctx);
    h.engine.FinishRun(ctx);
  });
  for (uint64_t a : active) EXPECT_EQ(a, distinct.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(h.engine.IsActive(v), distinct.count(v) == 1) << "v=" << v;
  }
}

TEST(DistEngineTest, AlwaysPushPolicyNeverPulls) {
  Graph g = Graph::FromEdges(GenerateChain(40));
  EngineOptions opt;
  opt.mode_policy = ModePolicy::kAlwaysPush;
  EngineHarness h(g, 2, 1, opt);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  level[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX, nullptr, nullptr,
          [&level](VertexId src, VertexId dst, Weight) {
            return AtomicMin(&level[dst], AtomicLoad(&level[src]) + 1);
          });
    }
    h.engine.FinishRun(ctx);
  });
  for (Mode m : h.engine.stats().per_iter_mode) {
    EXPECT_EQ(m, Mode::kPush);
  }
  EXPECT_EQ(level[39], 39u);
}

TEST(DistEngineTest, AlwaysPullPolicyNeverPushes) {
  Graph g = Graph::FromEdges(GenerateChain(10));
  EngineOptions opt;
  opt.mode_policy = ModePolicy::kAlwaysPull;
  EngineHarness h(g, 1, 1, opt);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  level[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX,
          [&level](uint32_t acc, VertexId src, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            return lv == UINT32_MAX ? acc : std::min(acc, lv + 1);
          },
          [&level](VertexId dst, uint32_t acc) {
            if (acc < level[dst]) {
              level[dst] = acc;
              return true;
            }
            return false;
          },
          nullptr);
    }
    h.engine.FinishRun(ctx);
  });
  for (Mode m : h.engine.stats().per_iter_mode) {
    EXPECT_EQ(m, Mode::kPull);
  }
  EXPECT_EQ(level[9], 9u);
}

TEST(DistEngineTest, AdaptiveSwitchesWithFrontierSize) {
  // Star graph: first superstep (hub active) covers all edges -> pull;
  // once only leaves are active with tiny out-degree -> push.
  Graph g = Graph::FromEdges(GenerateStar(2000));
  EngineOptions opt;
  opt.dense_fraction = 0.05;
  EngineHarness h(g, 1, 1, opt);
  std::vector<uint32_t> level(g.num_vertices(), UINT32_MAX);
  level[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX,
          [&level](uint32_t acc, VertexId src, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            return lv == UINT32_MAX ? acc : std::min(acc, lv + 1);
          },
          [&level](VertexId dst, uint32_t acc) {
            if (acc < level[dst]) {
              level[dst] = acc;
              return true;
            }
            return false;
          },
          [&level](VertexId src, VertexId dst, Weight) {
            uint32_t lv = AtomicLoad(&level[src]);
            if (lv == UINT32_MAX) return false;
            return AtomicMin(&level[dst], lv + 1);
          });
    }
    h.engine.FinishRun(ctx);
  });
  const auto& modes = h.engine.stats().per_iter_mode;
  ASSERT_GE(modes.size(), 2u);
  // Hub active: 2000 of 4000 edges -> dense/pull. Leaves active next: 2000
  // out-edges is still above |E|/20 -> pull again.
  EXPECT_EQ(modes[0], Mode::kPull);
  EXPECT_EQ(modes[1], Mode::kPull);

  // A single-vertex frontier (chain) must stay sparse/push throughout.
  Graph chain = Graph::FromEdges(GenerateChain(60));
  EngineHarness hc(chain, 2, 1);
  std::vector<uint32_t> clevel(chain.num_vertices(), UINT32_MAX);
  clevel[0] = 0;
  hc.cluster.Run([&](sim::NodeContext& ctx) {
    hc.engine.BeginRun(ctx);
    hc.engine.ActivateSeeds(ctx, {0});
    uint64_t active = hc.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = hc.engine.ProcessEdges(
          ctx, UINT32_MAX, nullptr, nullptr,
          [&clevel](VertexId src, VertexId dst, Weight) {
            return AtomicMin(&clevel[dst], AtomicLoad(&clevel[src]) + 1);
          });
    }
    hc.engine.FinishRun(ctx);
  });
  for (Mode m : hc.engine.stats().per_iter_mode) EXPECT_EQ(m, Mode::kPush);
  EXPECT_EQ(clevel[59], 59u);
}

TEST(DistEngineTest, CommBytesZeroOnSingleNode) {
  Graph g = Graph::FromEdges(GenerateGrid(8, 8, true));
  EngineHarness h(g, 1, 1);
  std::vector<uint32_t> lv(g.num_vertices(), UINT32_MAX);
  lv[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, UINT32_MAX,
          [&lv](uint32_t acc, VertexId src, Weight) {
            uint32_t s = AtomicLoad(&lv[src]);
            return s == UINT32_MAX ? acc : std::min(acc, s + 1);
          },
          [&lv](VertexId dst, uint32_t acc) {
            if (acc < lv[dst]) {
              lv[dst] = acc;
              return true;
            }
            return false;
          },
          [&lv](VertexId src, VertexId dst, Weight) {
            uint32_t s = AtomicLoad(&lv[src]);
            if (s == UINT32_MAX) return false;
            return AtomicMin(&lv[dst], s + 1);
          });
    }
    h.engine.FinishRun(ctx);
  });
  EXPECT_EQ(h.engine.stats().bytes, 0u);
  EXPECT_EQ(h.engine.stats().comm_seconds, 0.0);
}

TEST(DistEngineTest, CommBytesGrowWithNodeCount) {
  Graph g = Graph::FromEdges(GenerateErdosRenyi(512, 4000, 11, true));
  uint64_t bytes_prev = 0;
  for (int nodes : {2, 8}) {
    EngineHarness<float> h(g, nodes, 1);
    std::vector<float> dist(g.num_vertices(),
                            std::numeric_limits<float>::infinity());
    dist[0] = 0;
    h.cluster.Run([&](sim::NodeContext& ctx) {
      h.engine.BeginRun(ctx);
      h.engine.ActivateSeeds(ctx, {0});
      uint64_t active = h.engine.PromoteActiveSet(ctx);
      while (active > 0) {
        active = h.engine.ProcessEdges(
            ctx, std::numeric_limits<float>::infinity(),
            [&dist](float acc, VertexId src, Weight w) {
              return std::min(acc, AtomicLoad(&dist[src]) + w);
            },
            [&dist](VertexId dst, float acc) {
              if (acc < dist[dst]) {
                dist[dst] = acc;
                return true;
              }
              return false;
            },
            [&dist](VertexId src, VertexId dst, Weight w) {
              return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
            });
      }
      h.engine.FinishRun(ctx);
    });
    EXPECT_GT(h.engine.stats().bytes, bytes_prev);
    bytes_prev = h.engine.stats().bytes;
  }
}

TEST(DistEngineTest, ProcessVerticesReducesSum) {
  Graph g = Graph::FromEdges(GenerateChain(100));
  EngineHarness h(g, 4, 2);
  double result = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    double r = h.engine.ProcessVertices(
        ctx, [](VertexId v) { return static_cast<double>(v); });
    if (ctx.rank == 0) result = r;
    h.engine.FinishRun(ctx);
  });
  EXPECT_DOUBLE_EQ(result, 99.0 * 100.0 / 2.0);
}

TEST(DistEngineTest, PerIterationTraceMatchesTotals) {
  Graph g = Graph::FromEdges(GenerateGrid(12, 12, true));
  EngineHarness<float> h(g, 2, 1);
  std::vector<float> dist(g.num_vertices(),
                          std::numeric_limits<float>::infinity());
  dist[0] = 0;
  h.cluster.Run([&](sim::NodeContext& ctx) {
    h.engine.BeginRun(ctx);
    h.engine.ActivateSeeds(ctx, {0});
    uint64_t active = h.engine.PromoteActiveSet(ctx);
    while (active > 0) {
      active = h.engine.ProcessEdges(
          ctx, std::numeric_limits<float>::infinity(),
          [&dist](float acc, VertexId src, Weight w) {
            return std::min(acc, AtomicLoad(&dist[src]) + w);
          },
          [&dist](VertexId dst, float acc) {
            if (acc < dist[dst]) {
              dist[dst] = acc;
              return true;
            }
            return false;
          },
          [&dist](VertexId src, VertexId dst, Weight w) {
            return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
          });
    }
    h.engine.FinishRun(ctx);
  });
  const EngineStats& stats = h.engine.stats();
  uint64_t trace_total = 0;
  for (uint64_t c : stats.per_iter_computations) trace_total += c;
  EXPECT_EQ(trace_total, stats.computations);
  EXPECT_EQ(stats.per_iter_computations.size(), stats.iterations);
  EXPECT_EQ(stats.per_iter_mode.size(), stats.iterations);
}

}  // namespace
}  // namespace slfe
