#ifndef SLFE_ENGINE_DIST_GRAPH_H_
#define SLFE_ENGINE_DIST_GRAPH_H_

#include <cstdint>
#include <vector>

#include "slfe/graph/graph.h"
#include "slfe/graph/partitioner.h"
#include "slfe/graph/types.h"

namespace slfe {

/// The per-cluster view of a graph: chunk-partitioned vertex ownership plus
/// the mirror index needed to account for inter-node value traffic.
///
/// Memory layout note: because the cluster is simulated in one address
/// space, adjacency stays in the shared Graph (no duplicated per-node CSR).
/// What is genuinely per-node on a real cluster — who owns each vertex, and
/// which remote nodes hold mirrors of it — is materialized here, and the
/// engine charges communication costs from it (sim/comm.h).
class DistGraph {
 public:
  /// Builds ownership ranges (edge-balanced chunking, Gemini-style) and the
  /// mirror index for `num_nodes` nodes.
  static DistGraph Build(const Graph& graph, int num_nodes);

  /// Build over pre-computed ownership ranges — the warm-restart path: a
  /// GraphArena persists the ranges Build would derive, so a restarted
  /// daemon reuses them instead of re-running the partitioner. The ranges
  /// must form a valid partition of [0, |V|) (checked).
  static DistGraph BuildWithRanges(const Graph& graph,
                                   std::vector<VertexRange> ranges);

  /// Just the ownership ranges Build would produce — exported so other
  /// range-partitioned work (the partition-aware guidance generator) slices
  /// vertices exactly the way the distributed engine does, keeping each
  /// worker/socket on the vertex range it would own at execution time.
  static std::vector<VertexRange> BuildRanges(const Graph& graph,
                                              int num_nodes);

  const Graph& graph() const { return *graph_; }
  int num_nodes() const { return static_cast<int>(ranges_.size()); }
  const std::vector<VertexRange>& ranges() const { return ranges_; }
  const VertexRange& range(int node) const { return ranges_[node]; }

  /// Owner node of vertex v.
  int OwnerOf(VertexId v) const {
    return static_cast<int>(ChunkPartitioner::OwnerOf(ranges_, v));
  }

  /// Number of remote nodes holding a mirror of master vertex v (nodes that
  /// own at least one of v's out-neighbors, excluding v's own node). When
  /// v's value changes, it must travel to exactly these nodes — in push
  /// mode as an update message, in pull mode as a mirror refresh.
  int MirrorNodeCount(VertexId v) const { return mirror_count_[v]; }

  /// Sum of out-degrees of vertices in `node`'s range (work volume).
  EdgeId NodeOutEdges(int node) const { return node_out_edges_[node]; }
  /// Sum of in-degrees of vertices in `node`'s range (pull-mode work).
  EdgeId NodeInEdges(int node) const { return node_in_edges_[node]; }

 private:
  const Graph* graph_ = nullptr;
  std::vector<VertexRange> ranges_;
  std::vector<uint8_t> mirror_count_;  // capped at num_nodes-1 <= 255
  std::vector<EdgeId> node_out_edges_;
  std::vector<EdgeId> node_in_edges_;
};

}  // namespace slfe

#endif  // SLFE_ENGINE_DIST_GRAPH_H_
