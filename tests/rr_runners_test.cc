// Focused tests of the SLFE core API layer: MinMaxRunner's start-late
// schedule, the ArithRunner's early-convergence (EC) semantics, and the
// runtime-function invariants (Algorithm 2): skipped work is recorded,
// verification cost is reclassified, and RR runs reach the baseline
// fixpoint.

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

#include "slfe/apps/reference.h"
#include "slfe/core/roots.h"
#include "slfe/core/rr_runners.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/graph/generators.h"
#include "slfe/sim/cluster.h"

namespace slfe {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

struct SsspRun {
  std::vector<float> dist;
  typename MinMaxRunner<float>::RunResult result;
};

SsspRun RunSsspVariant(const Graph& g, int nodes, int threads,
                       const RRGuidance* guidance) {
  SsspRun out;
  out.dist.assign(g.num_vertices(), kInf);
  out.dist[0] = 0.0f;
  std::vector<float>& dist = out.dist;
  DistGraph dg = DistGraph::Build(g, nodes);
  DistEngine<float> engine(dg, EngineOptions{});
  MinMaxRunner<float> runner(&engine, guidance);
  auto gather = [&dist](float acc, VertexId src, Weight w) {
    float c = AtomicLoad(&dist[src]) + w;
    return c < acc ? c : acc;
  };
  auto apply = [&dist](VertexId dst, float acc) {
    if (acc < dist[dst]) {
      dist[dst] = acc;
      return true;
    }
    return false;
  };
  auto scatter = [&dist](VertexId src, VertexId dst, Weight w) {
    return AtomicMin(&dist[dst], AtomicLoad(&dist[src]) + w);
  };
  sim::Cluster cluster(nodes, threads);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto r = runner.Run(ctx, {0}, kInf, gather, apply, scatter);
    if (ctx.rank == 0) out.result = r;
  });
  return out;
}

Graph TestGraph(uint64_t seed, float max_weight = 256.0f) {
  RmatOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 8000;
  opt.weighted = true;
  opt.max_weight = max_weight;
  opt.seed = seed;
  EdgeList e = GenerateRmat(opt);
  e.Deduplicate();
  return Graph::FromEdges(e);
}

TEST(MinMaxRunnerTest, MatchesDijkstraOnRmat) {
  Graph g = TestGraph(31);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  auto run = RunSsspVariant(g, 4, 1, &guidance);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(run.dist[v], ref[v]) << "v=" << v;
  }
}

TEST(MinMaxRunnerTest, MatchesDijkstraOnDeepGrid) {
  Graph g = Graph::FromEdges(GenerateGrid(24, 24, true, 8, 128.0f));
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  auto run = RunSsspVariant(g, 3, 2, &guidance);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(run.dist[v], ref[v]) << "v=" << v;
  }
}

TEST(MinMaxRunnerTest, SkipsWorkDuringDelay) {
  Graph g = TestGraph(32);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  auto run = RunSsspVariant(g, 2, 1, &guidance);
  EXPECT_GT(run.result.stats.skipped, 0u);
}

TEST(MinMaxRunnerTest, BaselineRunHasNoSkipsOrSweep) {
  Graph g = TestGraph(33);
  auto run = RunSsspVariant(g, 2, 1, /*guidance=*/nullptr);
  EXPECT_EQ(run.result.stats.skipped, 0u);
  EXPECT_EQ(run.result.safety_sweep_updates, 0u);
  EXPECT_EQ(run.result.verification_computations, 0u);
}

TEST(MinMaxRunnerTest, CleanSweepCostReclassified) {
  // With guidance rooted at the true source, the terminal sweep should
  // find nothing, and its edge evaluations must be reported as
  // verification rather than algorithm computations.
  Graph g = TestGraph(34);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  auto run = RunSsspVariant(g, 2, 1, &guidance);
  EXPECT_EQ(run.result.safety_sweep_updates, 0u);
}

TEST(MinMaxRunnerTest, WrongRootGuidanceStillConverges) {
  // Guidance generated from a different root misclassifies propagation
  // levels; the verification sweep must still drive the run to the exact
  // fixpoint (Theorem 1 made unconditional).
  Graph g = TestGraph(35);
  RRGuidance guidance = RRGuidance::Generate(g, {g.num_vertices() / 2});
  auto run = RunSsspVariant(g, 2, 1, &guidance);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(run.dist[v], ref[v]) << "v=" << v;
  }
}

TEST(MinMaxRunnerTest, EmptyGuidanceStillConverges) {
  // Degenerate guidance (no roots swept, lastIter == 0 everywhere) makes
  // every vertex unlocked from iteration 1 — equivalent to the baseline.
  Graph g = TestGraph(36);
  RRGuidance guidance = RRGuidance::Generate(g, {});
  auto run = RunSsspVariant(g, 2, 1, &guidance);
  auto ref = ReferenceSssp(g, 0);
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_FLOAT_EQ(run.dist[v], ref[v]) << "v=" << v;
  }
}

// --------------------------------------------------------------- Arith/EC

struct PrRun {
  std::vector<float> contrib;
  typename ArithRunner<float>::RunResult result;
};

PrRun RunPrKernel(const Graph& g, int nodes, const RRGuidance* guidance,
                  uint32_t iters) {
  PrRun out;
  VertexId n = g.num_vertices();
  std::vector<float> ranks(n, 1.0f);
  out.contrib.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId od = g.out_degree(v);
    out.contrib[v] = od > 0 ? 1.0f / static_cast<float>(od) : 1.0f;
  }
  DistGraph dg = DistGraph::Build(g, nodes);
  DistEngine<float> engine(dg, EngineOptions{});
  ArithRunner<float> runner(&engine, guidance);
  std::vector<float>* contrib = &out.contrib;
  auto gather = [contrib](float acc, VertexId src, Weight) {
    return acc + (*contrib)[src];
  };
  auto vertex_fn = [&g, &ranks](VertexId v, float acc) {
    float rank = 0.15f + 0.85f * acc;
    ranks[v] = rank;
    VertexId od = g.out_degree(v);
    return od > 0 ? rank / static_cast<float>(od) : rank;
  };
  sim::Cluster cluster(nodes, 1);
  cluster.Run([&](sim::NodeContext& ctx) {
    auto r = runner.Run(ctx, contrib, 0.0f, gather, vertex_fn, iters,
                        /*epsilon=*/0.0);
    if (ctx.rank == 0) out.result = r;
  });
  return out;
}

TEST(ArithRunnerTest, EcCountMonotonicallyNondecreasing) {
  Graph g = TestGraph(41);
  RRGuidance guidance = RRGuidance::Generate(g, SelectSourceRoots(g));
  PrRun run = RunPrKernel(g, 2, &guidance, 120);
  uint64_t prev = 0;
  for (uint64_t ec : run.result.ec_history) {
    EXPECT_GE(ec, prev);
    prev = ec;
  }
  EXPECT_EQ(run.result.ec_vertices, prev);
}

TEST(ArithRunnerTest, FrozenVerticesReduceLaterIterationWork) {
  Graph g = TestGraph(42);
  RRGuidance guidance = RRGuidance::Generate(g, SelectSourceRoots(g));
  PrRun run = RunPrKernel(g, 2, &guidance, 150);
  const auto& series = run.result.stats.per_iter_computations;
  ASSERT_GE(series.size(), 10u);
  // Once EC freezing has set in, late iterations must cost strictly less
  // than the first (full) iteration.
  EXPECT_LT(series.back(), series.front());
  EXPECT_GT(run.result.ec_vertices, 0u);
}

TEST(ArithRunnerTest, BaselineProcessesEveryVertexEveryIteration) {
  Graph g = TestGraph(43);
  PrRun run = RunPrKernel(g, 2, /*guidance=*/nullptr, 10);
  const auto& series = run.result.stats.per_iter_computations;
  ASSERT_EQ(series.size(), 10u);
  for (uint64_t c : series) EXPECT_EQ(c, series.front());
  EXPECT_EQ(run.result.ec_vertices, 0u);
}

TEST(ArithRunnerTest, EcValuesStayWithinToleranceOfExact) {
  Graph g = TestGraph(44);
  RRGuidance guidance = RRGuidance::Generate(g, SelectSourceRoots(g));
  PrRun rr = RunPrKernel(g, 2, &guidance, 150);
  PrRun base = RunPrKernel(g, 2, nullptr, 150);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(rr.contrib[v], base.contrib[v], 5e-3) << "v=" << v;
  }
}

TEST(ArithRunnerTest, UnvisitedVerticesNeverFreeze) {
  // Island vertices unreachable from the guidance roots must keep being
  // processed (conservative EffectiveLastIter = infinity).
  EdgeList e(8);
  e.Add(0, 1);
  e.Add(1, 2);
  e.Add(5, 6);  // island pair, unreachable from vertex 0's sweep
  e.Add(6, 5);
  Graph g = Graph::FromEdges(e);
  RRGuidance guidance = RRGuidance::Generate(g, {0});
  ASSERT_FALSE(guidance.visited(5));
  PrRun run = RunPrKernel(g, 1, &guidance, 30);
  // EC set may include visited vertices but never 5 or 6; the strongest
  // cheap check: ec count < |V| despite 30 stable iterations.
  EXPECT_LT(run.result.ec_vertices, g.num_vertices());
}

}  // namespace
}  // namespace slfe
