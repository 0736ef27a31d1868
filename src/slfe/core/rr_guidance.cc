#include "slfe/core/rr_guidance.h"

#include <vector>

#include "slfe/common/bitmap.h"
#include "slfe/common/direction.h"
#include "slfe/common/logging.h"
#include "slfe/common/timer.h"
#include "slfe/common/work_stealing.h"
#include "slfe/core/roots.h"
#include "slfe/engine/dist_graph.h"

namespace slfe {

RRGuidance RRGuidance::Generate(const Graph& graph,
                                const std::vector<VertexId>& roots,
                                ThreadPool* pool, size_t mini_chunk) {
  if (roots.empty() && graph.num_vertices() > 0) {
    SLFE_LOG(Warning)
        << "RRGuidance::Generate called with an empty root set: the sweep "
           "is a no-op and disables redundancy reduction. All-vertices apps "
           "should use GenerateAllRoots or the selectors in roots.h.";
  }
  if (pool != nullptr && pool->num_threads() > 1) {
    return GeneratePartitioned(graph, roots, *pool, /*dense_fraction=*/0.05,
                               mini_chunk);
  }
  return GenerateSerial(graph, roots);
}

RRGuidance RRGuidance::GenerateSerial(const Graph& graph,
                                      const std::vector<VertexId>& roots) {
  Timer timer;
  RRGuidance rrg;
  VertexId n = graph.num_vertices();
  rrg.guidance_.assign(n, VertexGuidance{});
  rrg.levels_.assign(n, kUnreachableLevel);

  // Algorithm 1, frontier form. `frontier` holds vertices first visited in
  // the previous iteration (the "active" set); every out-edge of a frontier
  // vertex bumps the destination's last_iter to the current level, and the
  // first visit fixes the destination's unweighted distance and activates
  // it. Each edge is traversed exactly once, so the sweep is O(|E|) — the
  // "negligible overhead" property the paper claims.
  std::vector<VertexId> frontier;
  frontier.reserve(roots.size());
  for (VertexId r : roots) {
    SLFE_CHECK_LT(r, n);
    if (!rrg.guidance_[r].visited) {
      rrg.guidance_[r].visited = true;
      rrg.levels_[r] = 0;
      frontier.push_back(r);
    }
  }

  const Csr& out = graph.out();
  std::vector<VertexId> next;
  uint32_t iter = 0;
  uint32_t deepest = 0;  // last level at which any lastIter was assigned
  while (!frontier.empty()) {
    ++iter;
    next.clear();
    for (VertexId src : frontier) {
      for (EdgeId e = out.begin(src); e < out.end(src); ++e) {
        VertexId dst = out.neighbor(e);
        // Iterations increase monotonically, so assignment implements the
        // paper's `if lastIter < Iter then lastIter = Iter`.
        rrg.guidance_[dst].last_iter = iter;
        deepest = iter;
        if (!rrg.guidance_[dst].visited) {
          rrg.guidance_[dst].visited = true;
          // First visit fixes the BFS level — unique per vertex, which is
          // why both sweeps record bit-identical levels planes.
          rrg.levels_[dst] = iter;
          next.push_back(dst);
        }
      }
    }
    frontier.swap(next);
  }
  rrg.depth_ = deepest;
  rrg.generation_seconds_ = timer.Seconds();
  return rrg;
}

RRGuidance RRGuidance::GeneratePartitioned(const Graph& graph,
                                           const std::vector<VertexId>& roots,
                                           ThreadPool& pool,
                                           double dense_fraction,
                                           size_t mini_chunk) {
  Timer timer;
  AccumTimer bookkeeping;
  RRGuidance rrg;
  VertexId n = graph.num_vertices();
  rrg.guidance_.assign(n, VertexGuidance{});
  rrg.levels_.assign(n, kUnreachableLevel);

  // One contiguous vertex range per worker, cut exactly where
  // DistGraph::Build would cut them for a cluster of pool-size nodes
  // (edge-balanced, so the dense-pull phase is load-balanced without
  // stealing and each worker touches only the range its socket owns).
  // Setup cost, not per-iteration bookkeeping: O(V) once, outside the
  // bookkeeping accounting so the bk column in bench_fig8b isolates the
  // per-iteration share.
  size_t workers = pool.num_threads();
  std::vector<VertexRange> ranges =
      DistGraph::BuildRanges(graph, static_cast<int>(workers));

  Bitmap visited(n);
  // frontier[p] holds the frontier vertices partition p owns; the merge at
  // the end of each iteration keeps this owner bucketing, so the dense
  // phase reads NUMA-local buffers and the push phase drains own-band
  // first (WorkStealingScheduler::RunBands).
  std::vector<std::vector<VertexId>> frontier(workers);
  size_t frontier_size = 0;
  // Out-edge total of the CURRENT frontier, maintained incrementally:
  // seeded from the roots, then folded into discovery (each newly visited
  // vertex adds its out-degree as it is enqueued), so no iteration needs
  // a separate counting pass over the frontier.
  uint64_t frontier_edges = 0;
  const Csr& out = graph.out();
  const Csr& in = graph.in();
  for (VertexId r : roots) {
    SLFE_CHECK_LT(r, n);
    if (visited.SetBit(r)) {
      rrg.levels_[r] = 0;
      frontier[ChunkPartitioner::OwnerOf(ranges, r)].push_back(r);
      frontier_edges += out.degree(r);
      ++frontier_size;
    }
  }

  // next_local[w][p]: vertices worker w discovered that partition p owns.
  std::vector<std::vector<std::vector<VertexId>>> next_local(
      workers, std::vector<std::vector<VertexId>>(workers));
  std::vector<uint64_t> edge_sum(workers, 0);  // fused frontier-edge count
  std::vector<uint8_t> touched(workers, 0);
  Bitmap frontier_bits(n);  // dense-pull frontier membership
  WorkStealingScheduler push_scheduler(/*enable_stealing=*/true, mini_chunk);
  std::vector<size_t> band_sizes(workers);

  uint32_t iter = 0;
  uint32_t deepest = 0;
  while (frontier_size > 0) {
    ++iter;
    const uint32_t level = iter;
    for (auto& per_owner : next_local) {
      for (auto& v : per_owner) v.clear();
    }
    std::fill(edge_sum.begin(), edge_sum.end(), 0);
    std::fill(touched.begin(), touched.end(), uint8_t{0});
    bool dense = ChooseDense(frontier_edges, graph.num_edges(),
                             dense_fraction);

    if (dense) {
      // Pull: worker w scans ONLY its own vertex range, so the per-dst
      // last_iter writes need no atomics and every discovered vertex is
      // already in its owner's bucket. One frontier in-neighbor pins
      // last_iter = level, so each scan stops at its first hit.
      bookkeeping.Start();
      frontier_bits.Clear();
      pool.ParallelRun([&](size_t w) {
        for (VertexId v : frontier[w]) frontier_bits.SetBit(v);
      });
      bookkeeping.Stop();
      pool.ParallelRun([&](size_t w) {
        uint64_t local_edges = 0;
        for (VertexId dst = ranges[w].begin; dst < ranges[w].end; ++dst) {
          bool hit = false;
          for (EdgeId e = in.begin(dst); e < in.end(dst); ++e) {
            if (frontier_bits.TestBit(in.neighbor(e))) {
              hit = true;
              break;
            }
          }
          if (!hit) continue;
          rrg.guidance_[dst].last_iter = level;
          touched[w] = 1;
          if (visited.SetBit(dst)) {
            rrg.levels_[dst] = level;  // own-range write, no races
            next_local[w][w].push_back(dst);
            local_edges += out.degree(dst);
          }
        }
        edge_sum[w] = local_edges;
      });
    } else {
      // Push: per-partition frontier bands, own band first, stealing for
      // the tail (paper §3.6). Destinations can live anywhere, so
      // last_iter needs the same-value relaxed atomic store and
      // discoveries are routed to their owner's bucket.
      for (size_t p = 0; p < workers; ++p) band_sizes[p] = frontier[p].size();
      push_scheduler.RunBands(
          pool, band_sizes, [&](size_t w, size_t band, size_t lo, size_t hi) {
            uint64_t local_edges = 0;
            const std::vector<VertexId>& band_frontier = frontier[band];
            for (size_t i = lo; i < hi; ++i) {
              VertexId src = band_frontier[i];
              for (EdgeId e = out.begin(src); e < out.end(src); ++e) {
                VertexId dst = out.neighbor(e);
                __atomic_store_n(&rrg.guidance_[dst].last_iter, level,
                                 __ATOMIC_RELAXED);
                touched[w] = 1;
                if (visited.SetBit(dst)) {
                  rrg.levels_[dst] = level;  // unique discoverer
                  next_local[w][ChunkPartitioner::OwnerOf(ranges, dst)]
                      .push_back(dst);
                  local_edges += out.degree(dst);
                }
              }
            }
            edge_sum[w] += local_edges;  // slot w is worker w's alone
          });
    }

    // Merge, with the next iteration's frontier-edge count folded in: the
    // only per-iteration bookkeeping the partitioned sweep pays.
    bookkeeping.Start();
    for (uint8_t t : touched) {
      if (t != 0) deepest = level;
    }
    frontier_size = 0;
    pool.ParallelRun([&](size_t p) {
      frontier[p].clear();
      for (size_t w = 0; w < workers; ++w) {
        frontier[p].insert(frontier[p].end(), next_local[w][p].begin(),
                           next_local[w][p].end());
      }
    });
    for (size_t p = 0; p < workers; ++p) frontier_size += frontier[p].size();
    frontier_edges = 0;
    for (uint64_t s : edge_sum) frontier_edges += s;
    bookkeeping.Stop();
  }

  // Commit the visited bitmap into the per-vertex records, each worker
  // writing its own range.
  pool.ParallelRun([&](size_t w) {
    for (VertexId v = ranges[w].begin; v < ranges[w].end; ++v) {
      rrg.guidance_[v].visited = visited.TestBit(v);
    }
  });

  rrg.depth_ = deepest;
  rrg.generation_seconds_ = timer.Seconds();
  rrg.bookkeeping_seconds_ = bookkeeping.Seconds();
  return rrg;
}

RRGuidance RRGuidance::FromParts(std::vector<VertexGuidance> guidance,
                                 uint32_t depth) {
  RRGuidance rrg;
  rrg.guidance_ = std::move(guidance);
  rrg.depth_ = depth;
  // No levels plane (pre-levels store codec): the guidance serves runs
  // but cannot seed a Repair. Keep levels_ truly empty so has_levels()
  // stays false for |V| > 0.
  if (!rrg.guidance_.empty()) rrg.levels_.clear();
  return rrg;
}

RRGuidance RRGuidance::FromParts(std::vector<VertexGuidance> guidance,
                                 uint32_t depth,
                                 std::vector<uint32_t> levels) {
  RRGuidance rrg;
  rrg.guidance_ = std::move(guidance);
  rrg.levels_ = std::move(levels);
  rrg.depth_ = depth;
  SLFE_CHECK_EQ(rrg.levels_.size(), rrg.guidance_.size());
  return rrg;
}

RRGuidance RRGuidance::GenerateAllRoots(const Graph& graph,
                                        ThreadPool* pool) {
  // Natural propagation sources (zero-in-degree vertices, with the
  // cycle-bound fallback) — the same selector the provider layer uses.
  return Generate(graph, SelectSourceRoots(graph), pool);
}

}  // namespace slfe
