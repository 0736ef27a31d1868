#ifndef SLFE_GAS_GAS_ENGINE_H_
#define SLFE_GAS_GAS_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "slfe/common/bitmap.h"
#include "slfe/common/timer.h"
#include "slfe/graph/graph.h"
#include "slfe/sim/comm.h"

namespace slfe::gas {

/// Vertex placement strategy, which determines mirror replication — the
/// dominant communication term in GAS systems.
enum class Placement {
  /// PowerGraph-style random (hash) edge placement: an edge lives on
  /// hash(src, dst) % p; a vertex is replicated on every node touching one
  /// of its edges. Replication grows with degree and p.
  kRandomVertexCut,
  /// PowerLyra-style hybrid cut: low-degree vertices keep all their
  /// in-edges at their hash home (one gather site); only high-degree
  /// vertices are cut like PowerGraph.
  kHybridCut,
};

struct GasOptions {
  int num_nodes = 8;
  Placement placement = Placement::kRandomVertexCut;
  /// Hybrid-cut high-degree threshold (PowerLyra defaults to ~100).
  uint32_t high_degree_threshold = 100;
  sim::CostModel cost_model;
};

/// Run statistics mirroring EngineStats where meaningful.
struct GasStats {
  uint64_t supersteps = 0;
  uint64_t computations = 0;  ///< gather edge evaluations
  uint64_t updates = 0;       ///< apply() value changes
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double compute_seconds = 0;
  double comm_seconds = 0;  ///< simulated (BSP max over nodes per step)
  double RuntimeSeconds() const { return compute_seconds + comm_seconds; }
};

/// A faithful-in-spirit synchronous Gather-Apply-Scatter engine, built as
/// the PowerGraph/PowerLyra comparator of the paper's Table 5. It executes
/// the classic three phases per superstep for every active vertex:
///
///   gather:  acc = sum over in-edges of gather(src, dst, w)
///   apply:   new value from (old value, acc); returns changed?
///   scatter: activate out-neighbors of changed vertices
///
/// Differences from the SLFE/Gemini engine that this class deliberately
/// preserves (they are why GAS baselines lose):
///   * no push/pull direction switching — gather always scans all in-edges
///     of every active vertex;
///   * mirror synchronization twice per superstep (gather aggregation to
///     the master, then apply result broadcast back to mirrors), with
///     fine-grained per-mirror messages;
///   * hash placement (vertex-cut) replication factors instead of
///     chunking locality.
///
/// The graph itself is shared in memory (one simulated cluster): replication
/// factors drive the simulated communication cost, not actual copies.
template <typename V>
class GasEngine {
 public:
  using GatherFn = std::function<V(V, VertexId, Weight)>;
  /// apply(v, acc) -> changed?
  using ApplyFn = std::function<bool(VertexId, V)>;
  /// Invoked after every superstep (barrier point). Arithmetic apps use it
  /// to refresh the propagated contribution snapshot synchronously.
  using SuperstepFn = std::function<void(uint32_t)>;

  GasEngine(const Graph& graph, GasOptions options)
      : graph_(graph), options_(options) {
    BuildReplication();
  }

  const GasOptions& options() const { return options_; }

  /// Mirror count of v under the configured placement (diagnostics).
  uint32_t replication(VertexId v) const { return replication_[v]; }

  /// Runs supersteps until no vertex is active or `max_iters` is reached.
  /// `initially_active`: seed set. Gather uses identity + gather over all
  /// in-edges; apply commits; scatter activates all out-neighbors of
  /// changed vertices (PowerGraph's signal()).
  GasStats Run(const std::vector<VertexId>& initially_active, V identity,
               const GatherFn& gather, const ApplyFn& apply,
               uint32_t max_iters = UINT32_MAX,
               const SuperstepFn& end_superstep = nullptr) {
    GasStats stats;
    VertexId n = graph_.num_vertices();
    Bitmap active(n), next(n);
    for (VertexId v : initially_active) active.SetBit(v);

    const Csr& in = graph_.in();
    const Csr& out = graph_.out();
    for (uint32_t iter = 0; iter < max_iters; ++iter) {
      uint64_t active_count = active.CountOnes();
      if (active_count == 0) break;
      ++stats.supersteps;

      Timer step;
      // Per-node traffic for the BSP max; node of a master = hash home.
      std::vector<uint64_t> node_msgs(options_.num_nodes, 0);
      std::vector<uint64_t> node_bytes(options_.num_nodes, 0);
      uint64_t changed_this_step = 0;

      active.ForEachSetBit([&](size_t sv) {
        VertexId v = static_cast<VertexId>(sv);
        // Gather phase: every in-edge contributes; partial sums travel
        // from each mirror to the master (one message per mirror).
        V acc = identity;
        for (EdgeId e = in.begin(v); e < in.end(v); ++e) {
          acc = gather(acc, in.neighbor(e), in.weight(e));
          ++stats.computations;
        }
        int home = static_cast<int>(v) % options_.num_nodes;
        uint64_t mirrors = replication_[v] > 0 ? replication_[v] - 1 : 0;
        node_msgs[home] += mirrors;
        node_bytes[home] += mirrors * (sizeof(VertexId) + sizeof(V));

        // Apply phase on the master; broadcast to mirrors if changed.
        if (apply(v, acc)) {
          ++stats.updates;
          ++changed_this_step;
          node_msgs[home] += mirrors;
          node_bytes[home] += mirrors * (sizeof(VertexId) + sizeof(V));
          // Scatter phase: signal out-neighbors.
          for (EdgeId e = out.begin(v); e < out.end(v); ++e) {
            next.SetBit(out.neighbor(e));
          }
        }
      });
      stats.compute_seconds += step.Seconds();

      double worst = 0;
      for (int p = 0; p < options_.num_nodes; ++p) {
        worst = std::max(worst,
                         options_.cost_model.Cost(node_msgs[p], node_bytes[p]));
        stats.messages += node_msgs[p];
        stats.bytes += node_bytes[p];
      }
      stats.comm_seconds += worst;
      if (end_superstep) end_superstep(iter);

      active = next;
      next.Clear();
    }
    return stats;
  }

 private:
  void BuildReplication() {
    VertexId n = graph_.num_vertices();
    replication_.assign(n, 1);
    int p = options_.num_nodes;
    if (p <= 1) return;
    // Mark, per vertex, the set of nodes hosting at least one of its
    // edges under hash placement. Hybrid cut pins all in-edges of
    // low-degree vertices to the vertex's home node first.
    std::vector<uint8_t> mask(static_cast<size_t>(n) * p, 0);
    auto edge_node = [p](VertexId s, VertexId d) {
      uint64_t h = (static_cast<uint64_t>(s) << 32) | d;
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      return static_cast<int>(h % p);
    };
    const Csr& in = graph_.in();
    for (VertexId v = 0; v < n; ++v) {
      bool low_degree = options_.placement == Placement::kHybridCut &&
                        in.degree(v) < options_.high_degree_threshold;
      int home = static_cast<int>(v) % p;
      for (EdgeId e = in.begin(v); e < in.end(v); ++e) {
        VertexId src = in.neighbor(e);
        int node = low_degree ? home : edge_node(src, v);
        mask[static_cast<size_t>(v) * p + node] = 1;       // dst side
        mask[static_cast<size_t>(src) * p + node] = 1;     // src side
      }
    }
    for (VertexId v = 0; v < n; ++v) {
      uint32_t count = 0;
      for (int q = 0; q < p; ++q) count += mask[static_cast<size_t>(v) * p + q];
      replication_[v] = count > 0 ? count : 1;
    }
  }

  const Graph& graph_;
  GasOptions options_;
  std::vector<uint32_t> replication_;
};

}  // namespace slfe::gas

#endif  // SLFE_GAS_GAS_ENGINE_H_
