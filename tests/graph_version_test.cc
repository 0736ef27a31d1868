// Versioned mutable graphs, part 1: ApplyDelta must be a deterministic
// pure function — on seeded random graphs across shapes, applying a
// random insert/delete batch must produce exactly the graph a naive
// rebuild-from-edge-list reference produces (both CSR directions,
// offsets, neighbors, AND weights), with the skip/miss accounting to
// match. Part 2: Session::MutateGraph's version chain — monotone
// versions, per-version fingerprint uniqueness, old-version views that
// stay valid and unchanged after the name moves on, no-op deltas that
// leave the version untouched, and concurrent mutations serializing
// without losing a delta.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <random>

#include "slfe/api/session.h"
#include "slfe/graph/delta.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/graph.h"

namespace slfe {
namespace {

enum class Shape { kChain, kStar, kRmat, kDisconnected, kParallel };

struct HarnessParam {
  Shape shape;
  uint64_t seed;
};

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kChain:
      return "Chain";
    case Shape::kStar:
      return "Star";
    case Shape::kRmat:
      return "Rmat";
    case Shape::kDisconnected:
      return "Disconnected";
    case Shape::kParallel:
      return "Parallel";
  }
  return "";
}

std::string ParamName(const ::testing::TestParamInfo<HarnessParam>& info) {
  return std::string(ShapeName(info.param.shape)) + "_seed" +
         std::to_string(info.param.seed);
}

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
      opt.num_vertices = 128;
      opt.num_edges = 700;
      opt.weighted = true;
      opt.seed = p.seed;
      return Graph::FromEdges(GenerateRmat(opt));
    }
    case Shape::kDisconnected: {
      EdgeList er = GenerateErdosRenyi(64, 200, p.seed);
      EdgeList e(110);
      for (const Edge& edge : er.edges()) e.Add(edge.src, edge.dst);
      for (VertexId v = 64; v < 100; ++v) e.Add(v, v + 1);
      e.set_num_vertices(110);  // 101..109 isolated
      return Graph::FromEdges(e);
    }
    case Shape::kParallel: {
      // Every third edge gains a parallel copy with its own weight, placed
      // after all the originals so the copies sit apart in their rows.
      EdgeList er = GenerateErdosRenyi(48, 160, p.seed, /*weighted=*/true);
      EdgeList e = er;
      for (size_t i = 0; i < er.num_edges(); i += 3) {
        const Edge& edge = er.edges()[i];
        e.Add(edge.src, edge.dst, edge.weight + 1);
      }
      return Graph::FromEdges(e);
    }
  }
  return Graph();
}

uint64_t PairKey(VertexId src, VertexId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

/// The base graph's edges in out-CSR row order (ApplyDelta's documented
/// base ordering).
std::vector<Edge> OutEdgesInOrder(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e = g.out().begin(v); e < g.out().end(v); ++e) {
      edges.push_back(Edge{v, g.out().neighbor(e), g.out().weight(e)});
    }
  }
  return edges;
}

/// The naive reference: replay the documented delta semantics on a plain
/// edge vector, then let Graph::FromEdges rebuild everything from scratch.
Graph ReferenceApply(const Graph& base, const GraphDelta& delta) {
  std::unordered_set<uint64_t> erase_set;
  for (const auto& [src, dst] : delta.erase) erase_set.insert(PairKey(src, dst));
  EdgeList out(base.num_vertices());
  std::unordered_set<uint64_t> present;
  for (const Edge& e : OutEdgesInOrder(base)) {
    if (erase_set.count(PairKey(e.src, e.dst)) > 0) continue;
    out.Add(e.src, e.dst, e.weight);
    present.insert(PairKey(e.src, e.dst));
  }
  for (const Edge& e : delta.insert) {
    if (!present.insert(PairKey(e.src, e.dst)).second) continue;
    out.Add(e.src, e.dst, e.weight);
  }
  return Graph::FromEdges(out);
}

void ExpectSameCsr(const Csr& want, const Csr& got, const std::string& label) {
  ASSERT_EQ(want.num_vertices(), got.num_vertices()) << label;
  ASSERT_EQ(want.num_edges(), got.num_edges()) << label;
  for (VertexId v = 0; v <= want.num_vertices(); ++v) {
    ASSERT_EQ(want.offsets()[v], got.offsets()[v])
        << label << " offset mismatch at v=" << v;
  }
  for (EdgeId e = 0; e < want.num_edges(); ++e) {
    ASSERT_EQ(want.neighbor(e), got.neighbor(e))
        << label << " neighbor mismatch at e=" << e;
    ASSERT_EQ(want.weight(e), got.weight(e))
        << label << " weight mismatch at e=" << e;
  }
}

/// Equal out-adjacency structure: what the fingerprint digests.
bool SameTopology(const Graph& a, const Graph& b) {
  return a.num_vertices() == b.num_vertices() &&
         a.num_edges() == b.num_edges() &&
         std::equal(a.out().offsets().begin(), a.out().offsets().end(),
                    b.out().offsets().begin()) &&
         std::equal(a.out().neighbors().begin(), a.out().neighbors().end(),
                    b.out().neighbors().begin());
}

void ExpectSameGraph(const Graph& want, const Graph& got,
                     const std::string& label) {
  ASSERT_EQ(want.num_vertices(), got.num_vertices()) << label;
  ASSERT_EQ(want.num_edges(), got.num_edges()) << label;
  ExpectSameCsr(want.out(), got.out(), label + " out");
  ExpectSameCsr(want.in(), got.in(), label + " in");
  EXPECT_EQ(want.fingerprint(), got.fingerprint()) << label;
}

/// A random batch: deletions drawn from the live edge set (plus a few
/// misses), insertions drawn uniformly (so some duplicate live edges and
/// some occasionally grow the vertex set). Each about half the time, the
/// batch also carries the cases that meet on one touched row: a deleted
/// pair re-inserted (a net reweight), a live pair inserted on a row that
/// also has a deletion, a repeated erase pair and a duplicate insertion.
GraphDelta RandomDelta(const Graph& g, std::mt19937_64& rng) {
  GraphDelta delta;
  std::uniform_int_distribution<VertexId> pick_v(0, g.num_vertices() - 1);
  std::uniform_int_distribution<int> count(1, 6);
  int deletes = count(rng);
  for (int i = 0; i < deletes; ++i) {
    VertexId u = pick_v(rng);
    if (g.out_degree(u) > 0) {
      std::uniform_int_distribution<EdgeId> pick_e(g.out().begin(u),
                                                   g.out().end(u) - 1);
      delta.erase.emplace_back(u, g.out().neighbor(pick_e(rng)));
    } else {
      delta.erase.emplace_back(u, pick_v(rng));  // likely a miss
    }
  }
  int inserts = count(rng);
  for (int i = 0; i < inserts; ++i) {
    VertexId src = pick_v(rng);
    // Every ~8th insertion targets one past the current range: growth.
    VertexId dst = rng() % 8 == 0 ? g.num_vertices() : pick_v(rng);
    delta.insert.push_back(
        Edge{src, dst, static_cast<Weight>(1 + rng() % 5)});
  }

  const auto [erased_src, erased_dst] =
      delta.erase[rng() % delta.erase.size()];
  if (rng() % 2 == 0) {
    delta.insert.push_back(Edge{erased_src, erased_dst, 7.0f});
  }
  if (rng() % 2 == 0 && g.out_degree(erased_src) > 0) {
    EdgeId e = g.out().begin(erased_src) + rng() % g.out_degree(erased_src);
    delta.insert.push_back(Edge{erased_src, g.out().neighbor(e), 8.0f});
  }
  if (rng() % 2 == 0) {
    delta.erase.push_back(delta.erase[rng() % delta.erase.size()]);
  }
  if (rng() % 2 == 0) {
    const Edge first = delta.insert[rng() % delta.insert.size()];
    delta.insert.push_back(Edge{first.src, first.dst, first.weight + 1});
  }
  return delta;
}

class GraphDeltaTest : public ::testing::TestWithParam<HarnessParam> {};

// The deterministic-construction contract, differentially: 8 chained
// random batches per (shape, seed), each applied version compared
// plane-by-plane against a from-scratch rebuild, and fingerprints unique
// across the whole version chain.
TEST_P(GraphDeltaTest, MatchesRebuiltReferenceAcrossChainedBatches) {
  Graph cur = MakeShapeGraph(GetParam());
  std::mt19937_64 rng(GetParam().seed * 0x9e3779b97f4a7c15ull + 3);
  for (int step = 0; step < 8; ++step) {
    GraphDelta delta = RandomDelta(cur, rng);
    GraphDeltaStats stats;
    Result<Graph> next = ApplyDelta(cur, delta, &stats);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    std::string label =
        ParamName(::testing::TestParamInfo<HarnessParam>(GetParam(), 0)) +
        " step " + std::to_string(step);
    ExpectSameGraph(ReferenceApply(cur, delta), next.value(), label);
    EXPECT_EQ(stats.edges_inserted + stats.duplicate_inserts,
              delta.insert.size())
        << label;
    std::set<std::pair<VertexId, VertexId>> absent(delta.erase.begin(),
                                                   delta.erase.end());
    for (const Edge& e : OutEdgesInOrder(cur)) absent.erase({e.src, e.dst});
    EXPECT_EQ(stats.missing_deletes, absent.size()) << label;
    EXPECT_EQ(next.value().num_edges(),
              cur.num_edges() + stats.edges_inserted - stats.edges_deleted)
        << label;
    // The version-keying fingerprint moves exactly when the topology does
    // versus the immediate predecessor. An effective delta can leave the
    // topology as it was: a net reweight of the last pair of a row is one.
    // (Only adjacent versions are comparable: a later delta may revert to
    // an earlier version's exact topology, and equal topology means equal
    // fingerprint by design.)
    EXPECT_EQ(next.value().fingerprint() == cur.fingerprint(),
              SameTopology(cur, next.value()))
        << label;
    cur = std::move(next).value();
  }
}

TEST(GraphDeltaEdgeCases, StatsCountSkipsAndMisses) {
  Graph chain = Graph::FromEdges(GenerateChain(4));  // 0->1->2->3
  GraphDelta delta;
  delta.insert.push_back(Edge{0, 1, 2.0f});  // duplicate of a live edge
  delta.insert.push_back(Edge{1, 3, 1.0f});  // genuinely new
  delta.insert.push_back(Edge{1, 3, 9.0f});  // duplicate within the batch
  delta.erase.emplace_back(2, 3);            // live
  delta.erase.emplace_back(0, 3);            // absent
  GraphDeltaStats stats;
  Result<Graph> next = ApplyDelta(chain, delta, &stats);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(stats.edges_inserted, 1u);
  EXPECT_EQ(stats.duplicate_inserts, 2u);
  EXPECT_EQ(stats.edges_deleted, 1u);
  EXPECT_EQ(stats.missing_deletes, 1u);
  EXPECT_EQ(next.value().num_edges(), 3u);  // 3 - 1 + 1
  // First weight wins: the surviving (1,3) carries the batch's first.
  bool found = false;
  next.value().out().ForEachNeighbor(1, [&](VertexId dst, Weight w) {
    if (dst == 3) {
      EXPECT_EQ(w, 1.0f);
      found = true;
    }
  });
  EXPECT_TRUE(found);
}

TEST(GraphDeltaEdgeCases, DeletingEveryParallelCopy) {
  EdgeList e(3);
  e.Add(0, 1);
  e.Add(0, 1);  // parallel copy
  e.Add(1, 2);
  Graph g = Graph::FromEdges(e);
  GraphDelta delta;
  delta.erase.emplace_back(0, 1);
  GraphDeltaStats stats;
  Result<Graph> next = ApplyDelta(g, delta, &stats);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(stats.edges_deleted, 2u);  // both copies go
  EXPECT_EQ(next.value().num_edges(), 1u);
}

TEST(GraphDeltaEdgeCases, DeleteOutsideBaseRangeRejected) {
  Graph chain = Graph::FromEdges(GenerateChain(4));
  GraphDelta delta;
  delta.erase.emplace_back(0, 99);
  EXPECT_EQ(ApplyDelta(chain, delta).status().code(),
            StatusCode::kInvalidArgument);
  GraphDelta src_out;
  src_out.erase.emplace_back(99, 0);
  EXPECT_EQ(ApplyDelta(chain, src_out).status().code(),
            StatusCode::kInvalidArgument);
}

// kInvalidVertex + 1 wraps the vertex bound to 0, and the CSR build would
// then write past a one-entry offsets array. The batch must be refused
// whole, valid insertions included, with nothing reported as applied.
TEST(GraphDeltaEdgeCases, InsertionNamingTheReservedIdRejected) {
  Graph chain = Graph::FromEdges(GenerateChain(4));
  for (const Edge& bad :
       {Edge{0, kInvalidVertex, 1.0f}, Edge{kInvalidVertex, 0, 1.0f}}) {
    GraphDelta delta;
    delta.insert.push_back(Edge{1, 3, 1.0f});
    delta.insert.push_back(bad);
    delta.erase.emplace_back(2, 3);
    GraphDeltaStats stats;
    Result<Graph> next = ApplyDelta(chain, delta, &stats);
    EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument)
        << bad.src << " -> " << bad.dst;
    EXPECT_EQ(stats.edges_inserted + stats.edges_deleted, 0u);
  }
}

TEST(GraphDeltaEdgeCases, InsertionsGrowTheVertexSet) {
  Graph chain = Graph::FromEdges(GenerateChain(4));
  GraphDelta delta;
  delta.insert.push_back(Edge{2, 10, 1.0f});
  Result<Graph> next = ApplyDelta(chain, delta);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().num_vertices(), 11u);
  EXPECT_EQ(next.value().num_edges(), 4u);
  EXPECT_EQ(next.value().out_degree(2), 2u);
  EXPECT_EQ(next.value().in_degree(10), 1u);
  EXPECT_EQ(next.value().out_degree(10), 0u);
}

// ------------------------------------------------- Session version chain

TEST(SessionVersionTest, MutationPublishesNewVersionOldViewStaysIntact) {
  api::Session session;
  ASSERT_TRUE(session.AddGraph("g", Graph::FromEdges(GenerateChain(30))).ok());
  std::shared_ptr<const Graph> old_view = session.GetGraph("g");
  ASSERT_NE(old_view, nullptr);
  const uint64_t old_fp = old_view->fingerprint();
  const EdgeId old_edges = old_view->num_edges();

  GraphDelta delta;
  delta.erase.emplace_back(10, 11);
  auto result = session.MutateGraph("g", delta);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().changed);
  EXPECT_EQ(result.value().version, 2u);
  EXPECT_EQ(result.value().old_fingerprint, old_fp);
  EXPECT_NE(result.value().new_fingerprint, old_fp);
  EXPECT_EQ(result.value().num_edges, old_edges - 1);
  EXPECT_EQ(session.graphs_mutated(), 1u);

  // The name serves the new version; the held old view is untouched.
  std::shared_ptr<const Graph> new_view = session.GetGraph("g");
  ASSERT_NE(new_view, old_view);
  EXPECT_EQ(new_view->fingerprint(), result.value().new_fingerprint);
  EXPECT_EQ(old_view->num_edges(), old_edges);
  EXPECT_EQ(old_view->fingerprint(), old_fp);
  EXPECT_EQ(old_view->out_degree(10), 1u);  // the deleted edge still there
  EXPECT_EQ(new_view->out_degree(10), 0u);

  std::vector<api::GraphVersionInfo> versions = session.GraphVersions("g");
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].version, 1u);
  EXPECT_EQ(versions[0].fingerprint, old_fp);
  EXPECT_TRUE(versions[0].alive);  // our old_view still pins it
  EXPECT_FALSE(versions[0].current);
  EXPECT_EQ(versions[1].version, 2u);
  EXPECT_TRUE(versions[1].current);
  EXPECT_TRUE(versions[1].alive);

  // Drop the last reference to v1 (the provider's repair lineage also
  // holds it; a lineage-free session would show alive == false).
  old_view.reset();
  versions = session.GraphVersions("g");
  // v1 may stay alive through the provider's lineage entry — but v2, the
  // served version, is always alive and current.
  EXPECT_TRUE(versions.back().alive);
  EXPECT_TRUE(versions.back().current);
}

TEST(SessionVersionTest, NoOpDeltaKeepsVersionObjectAndFingerprint) {
  api::Session session;
  ASSERT_TRUE(session.AddGraph("g", Graph::FromEdges(GenerateChain(8))).ok());
  std::shared_ptr<const Graph> before = session.GetGraph("g");

  GraphDelta noop;
  noop.insert.push_back(Edge{0, 1, 1.0f});  // already present
  noop.erase.emplace_back(5, 2);            // not present
  auto result = session.MutateGraph("g", noop);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().changed);
  EXPECT_EQ(result.value().version, 1u);
  EXPECT_EQ(result.value().new_fingerprint, result.value().old_fingerprint);
  EXPECT_EQ(session.GetGraph("g"), before);  // same object, caches intact
  EXPECT_EQ(session.graphs_mutated(), 0u);
  EXPECT_EQ(session.GraphVersions("g").size(), 1u);
}

TEST(SessionVersionTest, FingerprintsUniqueAcrossTheVersionChain) {
  api::Session session;
  RmatOptions opt;
  opt.num_vertices = 64;
  opt.num_edges = 300;
  opt.seed = 17;
  ASSERT_TRUE(
      session.AddGraph("g", Graph::FromEdges(GenerateRmat(opt))).ok());
  std::mt19937_64 rng(99);
  std::vector<uint64_t> chain_fps = {session.GetGraph("g")->fingerprint()};
  // Keep every version alive so the history rows stay inspectable.
  std::vector<std::shared_ptr<const Graph>> pins = {session.GetGraph("g")};
  uint64_t expected_version = 1;
  for (int step = 0; step < 6; ++step) {
    GraphDelta delta = RandomDelta(*session.GetGraph("g"), rng);
    auto result = session.MutateGraph("g", delta);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!result.value().changed) continue;
    ++expected_version;
    EXPECT_EQ(result.value().version, expected_version);
    chain_fps.push_back(result.value().new_fingerprint);
    pins.push_back(session.GetGraph("g"));
  }
  std::set<uint64_t> unique(chain_fps.begin(), chain_fps.end());
  EXPECT_EQ(unique.size(), chain_fps.size())
      << "every version must key caches/store/lineage distinctly";

  std::vector<api::GraphVersionInfo> versions = session.GraphVersions("g");
  ASSERT_EQ(versions.size(), chain_fps.size());
  for (size_t i = 0; i < versions.size(); ++i) {
    EXPECT_EQ(versions[i].version, i + 1);
    EXPECT_EQ(versions[i].fingerprint, chain_fps[i]);
    EXPECT_TRUE(versions[i].alive);  // pinned above
    EXPECT_EQ(versions[i].current, i + 1 == versions.size());
  }
}

TEST(SessionVersionTest, UnknownNamesAndNeverMutatedGraphs) {
  api::Session session;
  EXPECT_EQ(session.MutateGraph("nope", GraphDelta{}).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(session.GraphVersions("nope").empty());
  ASSERT_TRUE(session.AddGraph("g", Graph::FromEdges(GenerateChain(5))).ok());
  std::vector<api::GraphVersionInfo> versions = session.GraphVersions("g");
  ASSERT_EQ(versions.size(), 1u);  // synthesized row: version 1, current
  EXPECT_EQ(versions[0].version, 1u);
  EXPECT_TRUE(versions[0].alive);
  EXPECT_TRUE(versions[0].current);
}

TEST(SessionVersionTest, InvalidDeltaRejectedWithoutVersionBump) {
  api::Session session;
  ASSERT_TRUE(session.AddGraph("g", Graph::FromEdges(GenerateChain(5))).ok());
  GraphDelta bad;
  bad.erase.emplace_back(0, 50);
  EXPECT_EQ(session.MutateGraph("g", bad).status().code(),
            StatusCode::kInvalidArgument);
  GraphDelta wrap;
  wrap.insert.push_back(Edge{0, kInvalidVertex, 1.0f});
  EXPECT_EQ(session.MutateGraph("g", wrap).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.GraphVersions("g").back().version, 1u);
  EXPECT_EQ(session.graphs_mutated(), 0u);
}

TEST(SessionVersionTest, ConcurrentMutationsSerializeWithoutLosingDeltas) {
  // 6 threads x 4 mutations, each inserting one distinct edge between
  // vertices private to the thread: the optimistic-retry loop must
  // serialize them so the final version carries ALL 24 edges and the
  // version counter advanced exactly 24 times.
  constexpr int kThreads = 6;
  constexpr int kPerThread = 4;
  api::Session session;
  EdgeList base(kThreads * kPerThread * 2 + 2);
  base.Add(0, 1);
  Graph g = Graph::FromEdges(base);
  const EdgeId base_edges = g.num_edges();
  ASSERT_TRUE(session.AddGraph("g", std::move(g)).ok());

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        VertexId v = static_cast<VertexId>(2 + (t * kPerThread + i) * 2);
        GraphDelta delta;
        delta.insert.push_back(Edge{v, v + 1, 1.0f});
        if (!session.MutateGraph("g", delta).ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  std::shared_ptr<const Graph> final_graph = session.GetGraph("g");
  EXPECT_EQ(final_graph->num_edges(),
            base_edges + static_cast<EdgeId>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      VertexId v = static_cast<VertexId>(2 + (t * kPerThread + i) * 2);
      EXPECT_EQ(final_graph->out_degree(v), 1u) << "lost delta at v=" << v;
    }
  }
  EXPECT_EQ(session.graphs_mutated(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(session.GraphVersions("g").back().version,
            static_cast<uint64_t>(1 + kThreads * kPerThread));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GraphDeltaTest,
    ::testing::Values(HarnessParam{Shape::kChain, 1},
                      HarnessParam{Shape::kChain, 2},
                      HarnessParam{Shape::kChain, 3},
                      HarnessParam{Shape::kStar, 1},
                      HarnessParam{Shape::kStar, 2},
                      HarnessParam{Shape::kRmat, 1},
                      HarnessParam{Shape::kRmat, 2},
                      HarnessParam{Shape::kRmat, 3},
                      HarnessParam{Shape::kDisconnected, 1},
                      HarnessParam{Shape::kDisconnected, 2},
                      HarnessParam{Shape::kDisconnected, 3},
                      HarnessParam{Shape::kParallel, 1},
                      HarnessParam{Shape::kParallel, 2},
                      HarnessParam{Shape::kParallel, 3}),
    ParamName);

}  // namespace
}  // namespace slfe
