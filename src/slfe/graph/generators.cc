#include "slfe/graph/generators.h"

#include <algorithm>
#include <cmath>

#include "slfe/common/logging.h"
#include "slfe/common/random.h"

namespace slfe {

namespace {

VertexId NextPowerOfTwo(VertexId n) {
  VertexId p = 1;
  while (p < n) p <<= 1;
  return p;
}

float DrawWeight(Random& rng, float max_weight) {
  // Integral weights in [1, max_weight] keep min/max app results exactly
  // comparable across engines (no float summation order issues on paths).
  return 1.0f + static_cast<float>(rng.Uniform(
                    static_cast<uint64_t>(max_weight)));
}

}  // namespace

EdgeList GenerateRmat(const RmatOptions& options) {
  VertexId n = NextPowerOfTwo(options.num_vertices);
  int scale = 0;
  while ((VertexId{1} << scale) < n) ++scale;

  Random rng(options.seed);
  EdgeList edges(n);
  edges.Reserve(options.num_edges);
  const double ab = options.a + options.b;
  const double abc = ab + options.c;
  for (EdgeId i = 0; i < options.num_edges; ++i) {
    VertexId src = 0, dst = 0;
    for (int bit = 0; bit < scale; ++bit) {
      // Add ±10% noise per level (standard R-MAT "smoothing") so the
      // generated graph is not perfectly self-similar.
      double r = rng.NextDouble();
      if (r < options.a) {
        // top-left: no bits set
      } else if (r < ab) {
        dst |= VertexId{1} << bit;
      } else if (r < abc) {
        src |= VertexId{1} << bit;
      } else {
        src |= VertexId{1} << bit;
        dst |= VertexId{1} << bit;
      }
    }
    if (src == dst) {
      dst = static_cast<VertexId>((dst + 1) % n);  // avoid self-loop
      if (src == dst) continue;
    }
    float w = options.weighted ? DrawWeight(rng, options.max_weight) : 1.0f;
    edges.Add(src, dst, w);
  }
  return edges;
}

EdgeList GenerateErdosRenyi(VertexId num_vertices, EdgeId num_edges,
                            uint64_t seed, bool weighted, float max_weight) {
  SLFE_CHECK_GE(num_vertices, 2u);
  Random rng(seed);
  EdgeList edges(num_vertices);
  edges.Reserve(num_edges);
  for (EdgeId i = 0; i < num_edges; ++i) {
    VertexId src = static_cast<VertexId>(rng.Uniform(num_vertices));
    VertexId dst = static_cast<VertexId>(rng.Uniform(num_vertices));
    if (src == dst) dst = (dst + 1) % num_vertices;
    float w = weighted ? DrawWeight(rng, max_weight) : 1.0f;
    edges.Add(src, dst, w);
  }
  return edges;
}

EdgeList GenerateGrid(VertexId rows, VertexId cols, bool weighted,
                      uint64_t seed, float max_weight) {
  Random rng(seed);
  EdgeList edges(rows * cols);
  auto id = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      float w1 = weighted ? DrawWeight(rng, max_weight) : 1.0f;
      float w2 = weighted ? DrawWeight(rng, max_weight) : 1.0f;
      if (c + 1 < cols) {
        edges.Add(id(r, c), id(r, c + 1), w1);
        edges.Add(id(r, c + 1), id(r, c), w1);
      }
      if (r + 1 < rows) {
        edges.Add(id(r, c), id(r + 1, c), w2);
        edges.Add(id(r + 1, c), id(r, c), w2);
      }
    }
  }
  return edges;
}

EdgeList GenerateChain(VertexId num_vertices, bool weighted, uint64_t seed) {
  Random rng(seed);
  EdgeList edges(num_vertices);
  for (VertexId v = 0; v + 1 < num_vertices; ++v) {
    float w = weighted ? DrawWeight(rng, 16.0f) : 1.0f;
    edges.Add(v, v + 1, w);
  }
  return edges;
}

EdgeList GenerateStar(VertexId num_spokes) {
  EdgeList edges(num_spokes + 1);
  for (VertexId v = 1; v <= num_spokes; ++v) {
    edges.Add(0, v, 1.0f);
    edges.Add(v, 0, 1.0f);
  }
  return edges;
}

EdgeList GenerateComplete(VertexId num_vertices) {
  EdgeList edges(num_vertices);
  for (VertexId u = 0; u < num_vertices; ++u) {
    for (VertexId v = 0; v < num_vertices; ++v) {
      if (u != v) edges.Add(u, v, 1.0f);
    }
  }
  return edges;
}

const std::vector<DatasetSpec>& ScaledDatasets() {
  // ~1/100-scale analogs of the paper's Table 4. Degree skew
  // follows the dataset class: social graphs use the classic (.57,.19,.19)
  // quadrant weights; DI (folksonomy, avg degree 8.9) is sparser.
  static const std::vector<DatasetSpec>* kSpecs =
      new std::vector<DatasetSpec>{
          {"PK", 16384, 308000, 0.57, 0.19, 0.19, 101},
          {"OK", 32768, 1170000, 0.57, 0.19, 0.19, 102},
          {"LJ", 49152, 690000, 0.57, 0.19, 0.19, 103},
          {"WK", 65536, 2048000, 0.55, 0.20, 0.20, 104},
          {"DI", 131072, 1200000, 0.55, 0.22, 0.18, 105},
          {"ST", 65536, 490000, 0.57, 0.19, 0.19, 106},
          {"FS", 262144, 7200000, 0.57, 0.19, 0.19, 107},
          {"RMAT", 524288, 17000000, 0.57, 0.19, 0.19, 108},
      };
  return *kSpecs;
}

Result<DatasetSpec> FindDataset(const std::string& alias) {
  for (const DatasetSpec& s : ScaledDatasets()) {
    if (s.alias == alias) return s;
  }
  return Status::NotFound("unknown dataset alias: " + alias);
}

EdgeList MakeDataset(const DatasetSpec& spec, uint32_t scale_divisor) {
  SLFE_CHECK_GE(scale_divisor, 1u);
  RmatOptions opt;
  opt.num_vertices = std::max<VertexId>(64, spec.num_vertices / scale_divisor);
  opt.num_edges = std::max<EdgeId>(256, spec.num_edges / scale_divisor);
  opt.a = spec.rmat_a;
  opt.b = spec.rmat_b;
  opt.c = spec.rmat_c;
  opt.seed = spec.seed;
  opt.weighted = true;
  // Wide weight range: weighted shortest paths then take many more hops
  // than the unweighted depth, recreating the multi-update redundancy the
  // full-size datasets exhibit (paper Table 2).
  opt.max_weight = 256.0f;
  EdgeList edges = GenerateRmat(opt);
  edges.Deduplicate();
  return edges;
}

}  // namespace slfe
