#ifndef SLFE_ENGINE_DIST_ENGINE_H_
#define SLFE_ENGINE_DIST_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "slfe/common/bitmap.h"
#include "slfe/common/counters.h"
#include "slfe/common/logging.h"
#include "slfe/common/timer.h"
#include "slfe/common/work_stealing.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/atomic_ops.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/sim/cluster.h"

namespace slfe {

/// Which propagation direction a superstep ran in (paper §3.3).
enum class Mode { kPush, kPull };

/// Per-destination decision returned by a pull filter (the RR hook).
enum class PullAction {
  kSkip,          ///< bypass this vertex entirely ("start late" delay)
  kGatherActive,  ///< aggregate contributions of active in-neighbors only
  kGatherAll,     ///< aggregate ALL in-neighbors (first unlocked iteration,
                  ///< arithmetic apps, safety sweep)
};

/// How ProcessEdges chooses the direction each superstep.
enum class ModePolicy {
  kAdaptive,    ///< Gemini rule: pull (dense) when active out-edges > |E|*f
  kAlwaysPull,  ///< arithmetic apps always pull (paper footnote 2)
  kAlwaysPush,
};

struct EngineOptions {
  ModePolicy mode_policy = ModePolicy::kAdaptive;
  /// Active-out-edge fraction above which the engine runs dense/pull
  /// (Gemini uses |E|/20).
  double dense_fraction = 0.05;
  /// Mini-chunk work stealing inside a node (paper §3.6). Disable for the
  /// Fig. 10a ablation.
  bool enable_work_stealing = true;
  /// Virtual network cost model for the simulated cluster.
  sim::CostModel cost_model;
  /// RR guidance for this engine's runs, typically acquired through the
  /// GuidanceProvider (apps thread it here via MakeEngineOptions). Runners
  /// constructed without explicit guidance read it off the engine; null =
  /// the Gemini baseline. Shared ownership keeps the guidance alive even
  /// if the provider's cache evicts it mid-run.
  std::shared_ptr<const RRGuidance> guidance;
};

/// Aggregate statistics of one engine run. Counter definitions follow the
/// paper: `computations` = edge aggregation evaluations (Fig. 9),
/// `updates` = vertex property overwrites (Table 2), `skipped` =
/// evaluations bypassed by redundancy reduction.
struct EngineStats {
  uint64_t iterations = 0;
  double pull_seconds = 0;
  double push_seconds = 0;
  double comm_seconds = 0;  ///< simulated network time (BSP max per step)
  uint64_t computations = 0;
  uint64_t updates = 0;
  uint64_t skipped = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  std::vector<uint64_t> per_iter_computations;  ///< Fig. 9 series
  std::vector<Mode> per_iter_mode;
  std::vector<uint64_t> node_computations;    ///< per-rank work, Fig. 10b
  std::vector<uint64_t> per_thread_chunks;    ///< stealing diag, Fig. 10a

  /// Wall compute time plus simulated communication time — the quantity
  /// reported as "runtime" in the distributed benchmarks.
  double RuntimeSeconds() const {
    return pull_seconds + push_seconds + comm_seconds;
  }
  /// (max - min) / max of per-node computation counts (Fig. 10b y-axis).
  /// Work-based rather than wall-clock: simulated ranks timeshare the
  /// host's cores, so per-rank wall time does not reflect node balance.
  double InterNodeImbalance() const {
    if (node_computations.empty()) return 0;
    uint64_t lo = node_computations[0], hi = node_computations[0];
    for (uint64_t c : node_computations) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return hi > 0 ? static_cast<double>(hi - lo) / static_cast<double>(hi)
                  : 0;
  }
};

/// Vertex-centric BSP engine over a DistGraph: the reproduction of Gemini's
/// push/pull dual-mode runtime that SLFE builds on. All methods marked
/// *collective* must be called by every rank of the cluster in the same
/// order (SPMD style); they contain the necessary barriers.
///
/// The accumulator type V parameterizes pull-mode gathering. Vertex
/// property arrays are owned by the application and captured in the
/// gather/apply/scatter lambdas; cross-node writes (push mode) must go
/// through the AtomicMin/AtomicMax/AtomicAdd helpers.
template <typename V>
class DistEngine {
 public:
  /// gather(acc, src, weight) -> new accumulator (pull mode, per in-edge)
  using GatherFn = std::function<V(V, VertexId, Weight)>;
  /// apply(dst, acc) -> true iff dst's property changed (pull mode commit)
  using ApplyFn = std::function<bool(VertexId, V)>;
  /// scatter(src, dst, weight) -> true iff dst's property changed (push)
  using ScatterFn = std::function<bool(VertexId, VertexId, Weight)>;
  /// pull_filter(dst) -> what to do with dst this superstep (RR hook).
  /// Called exactly once per destination per pull superstep, from the one
  /// worker thread owning dst's mini-chunk, so it may update per-vertex
  /// bookkeeping without synchronization.
  using PullFilterFn = std::function<PullAction(VertexId)>;

  DistEngine(const DistGraph& dist_graph, EngineOptions options)
      : dg_(dist_graph),
        options_(options),
        scheduler_(options.enable_work_stealing) {
    VertexId n = dg_.graph().num_vertices();
    bitmap_a_.Resize(n);
    bitmap_b_.Resize(n);
    active_cur_ = &bitmap_a_;
    active_next_ = &bitmap_b_;
  }

  const DistGraph& dist_graph() const { return dg_; }
  const EngineOptions& options() const { return options_; }
  EngineOptions& mutable_options() { return options_; }

  /// Guidance threaded in through EngineOptions (nullptr = baseline mode).
  const RRGuidance* guidance() const { return options_.guidance.get(); }

  /// Collective: clears all run state (active sets, counters, timers).
  void BeginRun(sim::NodeContext& ctx) {
    if (ctx.rank == 0) {
      active_cur_->Clear();
      active_next_->Clear();
      stats_ = EngineStats{};
      stats_.node_computations.assign(dg_.num_nodes(), 0);
      stats_.per_thread_chunks.assign(
          static_cast<size_t>(dg_.num_nodes()) * ctx.pool->num_threads(), 0);
      metrics_.Reset();
    }
    ctx.world->Barrier();
  }

  /// Collective: activates the seeds this rank owns, then passes one
  /// barrier, however many seeds there are. Duplicates are harmless.
  void ActivateSeeds(sim::NodeContext& ctx,
                     const std::vector<VertexId>& seeds) {
    const VertexRange& r = dg_.range(ctx.rank);
    for (VertexId v : seeds) {
      if (r.Contains(v)) active_next_->SetBit(v);
    }
    ctx.world->Barrier();
  }

  /// Collective: activates every vertex.
  void ActivateAll(sim::NodeContext& ctx) {
    const VertexRange& r = dg_.range(ctx.rank);
    for (VertexId v = r.begin; v < r.end; ++v) active_next_->SetBit(v);
    ctx.world->Barrier();
  }

  /// Explicit activation from inside apply/scatter lambdas (rarely needed —
  /// returning true activates automatically).
  void Activate(VertexId v) { active_next_->SetBit(v); }

  /// True iff v was active in the superstep being processed.
  bool IsActive(VertexId v) const { return active_cur_->TestBit(v); }

  /// Collective: promotes the "next" active set to "current" and returns
  /// the global number of active vertices. Apps call this once before the
  /// iteration loop (after seeding) and ProcessEdges does it implicitly
  /// for subsequent supersteps.
  uint64_t PromoteActiveSet(sim::NodeContext& ctx) {
    ctx.world->Barrier();
    const VertexRange& r = dg_.range(ctx.rank);
    if (ctx.rank == 0) {
      std::swap(active_cur_, active_next_);
    }
    ctx.world->Barrier();
    uint64_t local = active_cur_->CountOnesIn(r.begin, r.end);
    if (ctx.rank == 0) active_next_->Clear();
    return ctx.world->AllReduceSum(ctx.rank, local);
  }

  /// Collective: one superstep. Picks push or pull per the mode policy,
  /// runs the user functions over the graph, applies RR filtering in pull
  /// mode, charges simulated communication, then promotes the active set
  /// and returns the number of globally active vertices for the next
  /// superstep.
  ///
  /// `gather_all`: when true, pull mode aggregates over ALL in-neighbors of
  /// a processed destination rather than only active ones. Required by
  /// "start late" (a delayed vertex must see every predecessor, paper §3.2)
  /// and by arithmetic apps (which have no meaningful active sources).
  /// `forced_mode` overrides the mode policy for this superstep (the RR
  /// verification sweep must pull even with an empty active set).
  uint64_t ProcessEdges(sim::NodeContext& ctx, V identity,
                        const GatherFn& gather, const ApplyFn& apply,
                        const ScatterFn& scatter,
                        const PullFilterFn& pull_filter = nullptr,
                        bool gather_all = false,
                        const Mode* forced_mode = nullptr) {
    Mode mode = forced_mode != nullptr ? *forced_mode : DecideMode(ctx);
    Timer step_timer;
    uint64_t local_comp = 0, local_upd = 0, local_skip = 0;
    uint64_t local_msgs = 0, local_bytes = 0;

    if (mode == Mode::kPull) {
      RunPull(ctx, identity, gather, apply, pull_filter, gather_all,
              &local_comp, &local_upd, &local_skip, &local_msgs,
              &local_bytes);
    } else {
      RunPush(ctx, scatter, &local_comp, &local_upd, &local_msgs,
              &local_bytes);
    }

    // Commit counters and charge the BSP communication cost for this step.
    metrics_.computations.Add(local_comp);
    metrics_.updates.Add(local_upd);
    metrics_.skipped.Add(local_skip);
    metrics_.messages.Add(local_msgs);
    metrics_.bytes.Add(local_bytes);
    AtomicAdd(&stats_.node_computations[ctx.rank], local_comp);

    double comm_cost = options_.cost_model.Cost(local_msgs, local_bytes);
    double max_comm = ctx.world->AllReduce(
        ctx.rank, comm_cost, [](double a, double b) { return std::max(a, b); });
    uint64_t step_comp = ctx.world->AllReduceSum(ctx.rank, local_comp);

    if (ctx.rank == 0) {
      ++stats_.iterations;
      stats_.comm_seconds += max_comm;
      stats_.per_iter_computations.push_back(step_comp);
      stats_.per_iter_mode.push_back(mode);
      double wall = step_timer.Seconds();
      if (mode == Mode::kPull) {
        stats_.pull_seconds += wall;
      } else {
        stats_.push_seconds += wall;
      }
    }
    return PromoteActiveSet(ctx);
  }

  /// Collective: applies fn to every master vertex and returns the
  /// all-reduced sum of its return values (e.g., rank delta in PageRank).
  double ProcessVertices(sim::NodeContext& ctx,
                         const std::function<double(VertexId)>& fn) {
    const VertexRange& r = dg_.range(ctx.rank);
    std::vector<double> partial(ctx.pool->num_threads(), 0.0);
    scheduler_.Run(*ctx.pool, r.begin, r.end,
                   [&](size_t worker, size_t lo, size_t hi) {
                     double acc = 0;
                     for (size_t v = lo; v < hi; ++v) {
                       acc += fn(static_cast<VertexId>(v));
                     }
                     partial[worker] += acc;
                   });
    double local = 0;
    for (double p : partial) local += p;
    return ctx.world->AllReduce(ctx.rank, local,
                                [](double a, double b) { return a + b; });
  }

  /// Collective: finalizes per-run stats. Call once after the loop; the
  /// returned reference is valid until the next BeginRun.
  const EngineStats& FinishRun(sim::NodeContext& ctx) {
    ctx.world->Barrier();
    if (ctx.rank == 0) {
      stats_.computations = metrics_.computations.Get();
      stats_.updates = metrics_.updates.Get();
      stats_.skipped = metrics_.skipped.Get();
      stats_.messages = metrics_.messages.Get();
      stats_.bytes = metrics_.bytes.Get();
    }
    ctx.world->Barrier();
    return stats_;
  }

  const EngineStats& stats() const { return stats_; }

 private:
  Mode DecideMode(sim::NodeContext& ctx) {
    switch (options_.mode_policy) {
      case ModePolicy::kAlwaysPull:
        return Mode::kPull;
      case ModePolicy::kAlwaysPush:
        return Mode::kPush;
      case ModePolicy::kAdaptive:
        break;
    }
    const VertexRange& r = dg_.range(ctx.rank);
    uint64_t local_active_edges = 0;
    active_cur_->ForEachSetBitIn(r.begin, r.end, [&](size_t v) {
      local_active_edges += dg_.graph().out_degree(static_cast<VertexId>(v));
    });
    uint64_t active_edges = ctx.world->AllReduceSum(ctx.rank, local_active_edges);
    double threshold =
        options_.dense_fraction * static_cast<double>(dg_.graph().num_edges());
    return active_edges > threshold ? Mode::kPull : Mode::kPush;
  }

  void RunPull(sim::NodeContext& ctx, V identity, const GatherFn& gather,
               const ApplyFn& apply, const PullFilterFn& pull_filter,
               bool gather_all, uint64_t* comp, uint64_t* upd,
               uint64_t* skip, uint64_t* msgs, uint64_t* bytes) {
    const Csr& in = dg_.graph().in();
    const VertexRange& r = dg_.range(ctx.rank);
    size_t nthreads = ctx.pool->num_threads();
    struct ThreadCounters {
      uint64_t comp = 0, upd = 0, skip = 0;
    };
    std::vector<ThreadCounters> tc(nthreads);

    auto chunks = scheduler_.Run(
        *ctx.pool, r.begin, r.end, [&](size_t worker, size_t lo, size_t hi) {
          ThreadCounters& c = tc[worker];
          for (size_t dv = lo; dv < hi; ++dv) {
            VertexId dst = static_cast<VertexId>(dv);
            PullAction action = pull_filter
                                    ? pull_filter(dst)
                                    : (gather_all ? PullAction::kGatherAll
                                                  : PullAction::kGatherActive);
            if (action == PullAction::kSkip) {
              c.skip += in.degree(dst);
              continue;
            }
            bool all = action == PullAction::kGatherAll;
            V acc = identity;
            bool any = false;
            for (EdgeId e = in.begin(dst); e < in.end(dst); ++e) {
              VertexId src = in.neighbor(e);
              if (!all && !active_cur_->TestBit(src)) continue;
              acc = gather(acc, src, in.weight(e));
              ++c.comp;
              any = true;
            }
            if (any && apply(dst, acc)) {
              active_next_->SetBit(dst);
              ++c.upd;
            }
          }
        });
    for (size_t w = 0; w < nthreads; ++w) {
      *comp += tc[w].comp;
      *upd += tc[w].upd;
      *skip += tc[w].skip;
      AtomicAdd(&stats_.per_thread_chunks[static_cast<size_t>(ctx.rank) *
                                              nthreads + w],
                chunks[w]);
    }
    // Mirror refresh traffic: every master whose value changed last step
    // (i.e., is active now) must ship its value to each node holding a
    // mirror, so that remote pull-mode gathers see it.
    uint64_t refresh_values = 0;
    active_cur_->ForEachSetBitIn(r.begin, r.end, [&](size_t v) {
      refresh_values += dg_.MirrorNodeCount(static_cast<VertexId>(v));
    });
    *bytes += refresh_values * (sizeof(VertexId) + sizeof(V));
    if (refresh_values > 0) {
      *msgs += static_cast<uint64_t>(dg_.num_nodes() - 1);  // batched
    }
  }

  void RunPush(sim::NodeContext& ctx, const ScatterFn& scatter,
               uint64_t* comp, uint64_t* upd, uint64_t* msgs,
               uint64_t* bytes) {
    const Csr& out = dg_.graph().out();
    const VertexRange& r = dg_.range(ctx.rank);
    size_t nthreads = ctx.pool->num_threads();
    struct ThreadCounters {
      uint64_t comp = 0, upd = 0, vals = 0;
    };
    std::vector<ThreadCounters> tc(nthreads);

    auto chunks = scheduler_.Run(
        *ctx.pool, r.begin, r.end, [&](size_t worker, size_t lo, size_t hi) {
          ThreadCounters& c = tc[worker];
          active_cur_->ForEachSetBitIn(lo, hi, [&](size_t sv) {
            VertexId src = static_cast<VertexId>(sv);
            if (out.degree(src) == 0) return;
            c.vals += dg_.MirrorNodeCount(src);
            for (EdgeId e = out.begin(src); e < out.end(src); ++e) {
              VertexId dst = out.neighbor(e);
              ++c.comp;
              if (scatter(src, dst, out.weight(e))) {
                active_next_->SetBit(dst);
                ++c.upd;
              }
            }
          });
        });
    uint64_t vals = 0;
    for (size_t w = 0; w < nthreads; ++w) {
      *comp += tc[w].comp;
      *upd += tc[w].upd;
      vals += tc[w].vals;
      AtomicAdd(&stats_.per_thread_chunks[static_cast<size_t>(ctx.rank) *
                                              nthreads + w],
                chunks[w]);
    }
    *bytes += vals * (sizeof(VertexId) + sizeof(V));
    if (vals > 0) {
      // Gemini batches sparse updates into one MPI message per node pair
      // per superstep (unlike PowerGraph's fine-grained signals, which the
      // GAS baseline models as per-mirror messages).
      *msgs += static_cast<uint64_t>(dg_.num_nodes() - 1);
    }
  }

  const DistGraph& dg_;
  EngineOptions options_;
  WorkStealingScheduler scheduler_;

  Bitmap bitmap_a_;
  Bitmap bitmap_b_;
  Bitmap* active_cur_ = nullptr;
  Bitmap* active_next_ = nullptr;
  WorkMetrics metrics_;
  EngineStats stats_;
};

}  // namespace slfe

#endif  // SLFE_ENGINE_DIST_ENGINE_H_
