#ifndef SLFE_OOC_OOC_ENGINE_H_
#define SLFE_OOC_OOC_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/graph/graph.h"

namespace slfe::ooc {

/// Statistics of an out-of-core run.
struct OocStats {
  uint64_t iterations = 0;
  uint64_t computations = 0;
  uint64_t bytes_read = 0;  ///< real shard-file bytes streamed from disk
  double io_seconds = 0;
  double compute_seconds = 0;
  double RuntimeSeconds() const { return io_seconds + compute_seconds; }
};

/// A GraphChi-style interval-sharded out-of-core engine: the vertex set is
/// split into intervals; shard i holds, on disk, every edge whose
/// destination is in interval i, sorted by source. Each iteration streams
/// the shard files from storage (real file I/O — this is the bottleneck
/// the paper's Fig. 6 contrasts against), computing destination updates
/// from the in-edges while vertex values stay memory-resident.
class OocEngine {
 public:
  /// Builds shard files under `work_dir` (created if needed). The shard
  /// count follows GraphChi's rule of keeping one shard's edges in a
  /// bounded memory budget; tests use a handful.
  static Result<OocEngine> Build(const Graph& graph,
                                 const std::string& work_dir,
                                 uint32_t num_shards);

  /// One sweep over all shards: fn(src, dst, weight) is invoked for every
  /// edge (grouped by destination interval, sources in ascending order).
  Status RunIteration(const std::function<void(VertexId, VertexId, Weight)>& fn,
                      OocStats* stats);

  uint32_t num_shards() const { return num_shards_; }
  VertexId num_vertices() const { return num_vertices_; }
  EdgeId num_edges() const { return num_edges_; }
  const std::string& work_dir() const { return work_dir_; }

  /// Removes the shard files (cleanup for tests/benches).
  Status RemoveFiles();

 private:
  OocEngine() = default;

  std::string ShardPath(uint32_t shard) const;

  std::string work_dir_;
  uint32_t num_shards_ = 0;
  VertexId num_vertices_ = 0;
  EdgeId num_edges_ = 0;
};

/// GraphChi-style PageRank: `iterations` full-shard sweeps with values in
/// memory and edges streamed from disk (Fig. 6c/6d comparator).
OocStats OocPr(OocEngine& engine, const Graph& graph, uint32_t iterations,
               std::vector<float>* ranks);

/// GraphChi-style connected components (iterate min-label sweeps to a
/// fixpoint), Fig. 6a/6b comparator.
OocStats OocCc(OocEngine& engine, std::vector<uint32_t>* labels);

}  // namespace slfe::ooc

#endif  // SLFE_OOC_OOC_ENGINE_H_
