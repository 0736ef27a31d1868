#ifndef SLFE_GRAPH_GENERATORS_H_
#define SLFE_GRAPH_GENERATORS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/graph/edge_list.h"
#include "slfe/graph/types.h"

namespace slfe {

/// Parameters for the recursive-matrix (R-MAT) generator used to synthesize
/// power-law graphs that stand in for the paper's SNAP/KONECT datasets.
struct RmatOptions {
  VertexId num_vertices = 1 << 14;  ///< rounded up to a power of two
  EdgeId num_edges = 1 << 18;
  double a = 0.57;  ///< recursive quadrant probabilities (a+b+c+d = 1)
  double b = 0.19;
  double c = 0.19;
  uint64_t seed = 1;
  bool weighted = false;   ///< random weights in [1, max_weight]
  float max_weight = 64.0f;
};

/// Generates an R-MAT graph (Chakrabarti et al.). Deterministic in `seed`.
EdgeList GenerateRmat(const RmatOptions& options);

/// Erdos-Renyi G(n, m): m directed edges drawn uniformly (self-loops
/// skipped). Deterministic in `seed`.
EdgeList GenerateErdosRenyi(VertexId num_vertices, EdgeId num_edges,
                            uint64_t seed = 1, bool weighted = false,
                            float max_weight = 64.0f);

/// 2D grid of rows x cols vertices with 4-neighbor bidirectional edges —
/// a road-network-like topology with large diameter (deep propagation
/// levels, the adversarial case for "start late").
EdgeList GenerateGrid(VertexId rows, VertexId cols, bool weighted = false,
                      uint64_t seed = 1, float max_weight = 16.0f);

/// Directed chain 0 -> 1 -> ... -> n-1; maximal propagation depth.
EdgeList GenerateChain(VertexId num_vertices, bool weighted = false,
                       uint64_t seed = 1);

/// Star: hub vertex 0 with bidirectional spokes; minimal depth.
EdgeList GenerateStar(VertexId num_spokes);

/// Complete directed graph on n vertices (all ordered pairs).
EdgeList GenerateComplete(VertexId num_vertices);

/// A named scaled-down stand-in for one of the paper's datasets.
struct DatasetSpec {
  std::string alias;        ///< paper's short name: PK, OK, LJ, ...
  VertexId num_vertices;
  EdgeId num_edges;
  double rmat_a, rmat_b, rmat_c;
  uint64_t seed;
};

/// The scaled dataset suite: ~1/100-scale analogs of the paper's Table 4
/// graphs (deterministic seeds).
const std::vector<DatasetSpec>& ScaledDatasets();

/// Looks up a dataset spec by alias; Status error if unknown.
Result<DatasetSpec> FindDataset(const std::string& alias);

/// Materializes a dataset: RMAT with the spec's skew, weighted edges,
/// deduplicated. `scale_divisor` further shrinks |V| and |E| (tests use
/// 16-32x to stay fast).
EdgeList MakeDataset(const DatasetSpec& spec, uint32_t scale_divisor = 1);

}  // namespace slfe

#endif  // SLFE_GRAPH_GENERATORS_H_
