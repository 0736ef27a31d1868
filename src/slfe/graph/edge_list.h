#ifndef SLFE_GRAPH_EDGE_LIST_H_
#define SLFE_GRAPH_EDGE_LIST_H_

#include <cstddef>
#include <string>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/graph/types.h"

namespace slfe {

/// An unordered collection of directed edges plus the vertex-count bound.
/// This is the interchange format between loaders/generators and the CSR
/// builder.
class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(VertexId num_vertices) : num_vertices_(num_vertices) {}

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>& mutable_edges() { return edges_; }

  /// Grows the vertex-count bound to cover `v`.
  void CoverVertex(VertexId v) {
    if (v >= num_vertices_) num_vertices_ = v + 1;
  }
  void set_num_vertices(VertexId n) { num_vertices_ = n; }

  /// Appends an edge; expands the vertex bound as needed.
  void Add(VertexId src, VertexId dst, Weight weight = 1.0f) {
    edges_.push_back(Edge{src, dst, weight});
    CoverVertex(src);
    CoverVertex(dst);
  }

  void Reserve(size_t n) { edges_.reserve(n); }

  /// Removes self-loops and duplicate (src,dst) pairs, keeping the
  /// minimum-weight copy of each pair; the survivors end up sorted by
  /// (src, dst). Returns the number of edges removed.
  size_t Deduplicate();

  /// Appends the reverse of every edge (making the graph symmetric).
  /// Undirected applications (CC) expect a symmetrized input.
  void Symmetrize();

  /// Validates that all endpoints are within [0, num_vertices).
  Status Validate() const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace slfe

#endif  // SLFE_GRAPH_EDGE_LIST_H_
