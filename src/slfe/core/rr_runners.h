#ifndef SLFE_CORE_RR_RUNNERS_H_
#define SLFE_CORE_RR_RUNNERS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "slfe/common/logging.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/engine/dist_engine.h"
#include "slfe/sim/cluster.h"

namespace slfe {

/// The SLFE programming interface (paper Table 3), layered on DistEngine.
///
///   min/max: edgeProc(pushFunc, pullFunc, activeVerts, Ruler)
///     -> MinMaxRunner::Run (Ruler = iteration counter, singleRuler)
///   arith:   edgeProc(pushFunc, pullFunc) + vertexUpdate(vertexFunc)
///     -> ArithRunner::Run (RulerS = per-vertex stable counters, multiRuler)
///
/// Each runner executes in both baseline mode (guidance == nullptr: the
/// plain Gemini-style engine) and RR mode, so every benchmark's
/// "w/o RR vs w/ RR" comparison runs identical code paths modulo the
/// redundancy logic.

/// Runner for applications whose aggregation is a monotone min()/max()
/// comparison (SSSP, CC, WP, ...). With guidance attached it implements
/// "start late": in pull mode, destination v is skipped until the
/// iteration Ruler reaches RRG[v].lastIter (Algorithm 2,
/// pullEdge_singleRuler). At its unlock a vertex recovers the updates it
/// missed while delayed by gathering ALL its in-neighbors once (paper
/// §3.2: "requires vx to collect the inputs from all of them"); later
/// pulls gather active in-neighbors only. A terminal verification sweep
/// guarantees the fixpoint regardless of guidance quality (Theorem 1 made
/// unconditional).
template <typename V>
class MinMaxRunner {
 public:
  struct RunResult {
    EngineStats stats;
    uint64_t supersteps = 0;
    uint64_t safety_sweep_updates = 0;  ///< nonzero = guidance roots missed
    /// Edge evaluations spent by terminal verification sweeps that found
    /// nothing. Excluded from stats.computations (they are a checker pass,
    /// not part of the algorithm); sweeps that DO find updates stay
    /// counted because that work was genuinely required.
    uint64_t verification_computations = 0;
  };

  /// Provider-threaded form: picks up the guidance the app routed through
  /// EngineOptions::guidance (null = baseline), so runner construction no
  /// longer repeats the guidance plumbing per app.
  explicit MinMaxRunner(DistEngine<V>* engine)
      : MinMaxRunner(engine, engine->guidance()) {}

  /// `engine` must outlive the runner. `guidance` enables RR when non-null.
  MinMaxRunner(DistEngine<V>* engine, const RRGuidance* guidance)
      : engine_(engine), guidance_(guidance) {}

  /// Collective SPMD entry point. `seeds` are activated before the loop;
  /// gather/apply/scatter define the app exactly as for DistEngine.
  /// Iterates until no vertex is active (paper: while(activeVerts)).
  ///
  /// When RR is enabled, a terminal *safety sweep* re-processes any vertex
  /// whose computation never started (Ruler stayed below lastIter for the
  /// whole run — possible when the guidance roots only approximate the
  /// app's propagation sources); the loop resumes if the sweep finds an
  /// update, so the final values always match the baseline fixpoint.
  RunResult Run(sim::NodeContext& ctx, const std::vector<VertexId>& seeds,
                V identity, const typename DistEngine<V>::GatherFn& gather,
                const typename DistEngine<V>::ApplyFn& apply,
                const typename DistEngine<V>::ScatterFn& scatter) {
    RunResult result;
    const bool rr = guidance_ != nullptr;
    engine_->BeginRun(ctx);
    if (rr && ctx.rank == 0) {
      started_.assign(engine_->dist_graph().graph().num_vertices(), 0);
    }
    engine_->ActivateSeeds(ctx, seeds);  // its barrier publishes started_
    uint64_t active = engine_->PromoteActiveSet(ctx);

    uint32_t ruler = 0;  // the single Ruler: the iteration counter
    typename DistEngine<V>::PullFilterFn filter = nullptr;

    while (true) {
      while (active > 0) {
        ++ruler;
        if (rr) {
          // pullEdge_singleRuler: delay dst until Ruler reaches lastIter
          // ("start late"), then gather all in-edges once.
          uint32_t current = ruler;
          filter = [this, current](VertexId dst) {
            if (current < guidance_->last_iter(dst)) {
              return PullAction::kSkip;
            }
            if (started_[dst] == 0) {
              started_[dst] = 1;
              return PullAction::kGatherAll;
            }
            return PullAction::kGatherActive;
          };
        }
        active = engine_->ProcessEdges(ctx, identity, gather, apply, scatter,
                                       filter);
        ++result.supersteps;
      }
      if (!rr) break;

      // Terminal sweep over vertices that never unlocked (the run ended
      // before the Ruler reached their lastIter, so they were never
      // computed). Every unlocked vertex already recovered its delayed
      // updates at its own unlock (gather-all) and tracked later ones
      // through active gathering or pushes, so only this residue needs a
      // gather-all pass. If it finds nothing (the common case) its cost is
      // reclassified as verification. Only the scalar totals are read:
      // copying the whole stats would race the next superstep's per-rank
      // counters, which faster ranks already write.
      const EngineStats& before = engine_->FinishRun(ctx);
      const uint64_t updates_before = before.updates;
      const uint64_t computations_before = before.computations;
      const Mode kForcePull = Mode::kPull;
      active = engine_->ProcessEdges(
          ctx, identity, gather, apply, scatter,
          [this](VertexId dst) {
            // Sweep only vertices whose one-time unlock gather has not
            // happened — and do NOT mark them started: if the run
            // resumes, their natural unlock must still gather-all,
            // because sources may settle between this sweep and that
            // unlock while the vertex is still delayed (sweeps fire on
            // premature active-set death, ahead of the schedule).
            return started_[dst] == 0 ? PullAction::kGatherAll
                                      : PullAction::kSkip;
          },
          /*gather_all=*/true, &kForcePull);
      ++result.supersteps;
      ++ruler;
      const EngineStats& after = engine_->FinishRun(ctx);
      uint64_t swept = after.updates - updates_before;
      result.safety_sweep_updates += swept;
      if (swept == 0) {
        result.verification_computations +=
            after.computations - computations_before;
      }
      if (active == 0) break;  // converged; sweep confirmed the fixpoint
    }
    result.stats = engine_->FinishRun(ctx);
    result.stats.computations -= result.verification_computations;
    return result;
  }

 private:
  DistEngine<V>* engine_;
  const RRGuidance* guidance_;
  std::vector<uint8_t> started_;  // unlock gather-all done
};

/// Runner for applications with arithmetic aggregation (PR, TR, SpMV,
/// NumPaths...). Always executes in pull mode (paper footnote 2). With
/// guidance attached it implements "finish early" via
/// pullEdge_multiRuler: per-vertex RulerS counts consecutive iterations
/// with an unchanged result; once RulerS[v] >= lastIter(v) the vertex is
/// early-converged (EC) and its further computations are bypassed, the
/// cached value standing in (Algorithm 5's vertexUpdate).
template <typename V>
class ArithRunner {
 public:
  struct RunResult {
    EngineStats stats;
    uint64_t supersteps = 0;
    uint64_t ec_vertices = 0;          ///< frozen at termination (Fig. 2)
    std::vector<uint64_t> ec_history;  ///< EC count after each iteration
  };

  /// Provider-threaded form: reads EngineOptions::guidance (see
  /// MinMaxRunner).
  explicit ArithRunner(DistEngine<V>* engine)
      : ArithRunner(engine, engine->guidance()) {}

  ArithRunner(DistEngine<V>* engine, const RRGuidance* guidance)
      : engine_(engine), guidance_(guidance) {
    engine_->mutable_options().mode_policy = ModePolicy::kAlwaysPull;
  }

  /// One user-defined vertex function applied after each propagation
  /// superstep (the paper's vertexUpdate). Receives the vertex and the
  /// gathered accumulator; returns the vertex's new committed value.
  using VertexFn = std::function<V(VertexId, V)>;

  /// Collective SPMD entry point.
  ///
  /// Per iteration: (1) pull-gather accumulators into `accum` for every
  /// non-EC vertex; (2) vertexUpdate commits values via `vertex_fn` and
  /// maintains the stability rulers. Stops after `max_iters` iterations or
  /// when the global max |delta| falls below `epsilon`.
  ///
  /// `values` is the application's property array (shared, size |V|);
  /// `gather` reads it. EC vertices retain their cached value.
  RunResult Run(sim::NodeContext& ctx, std::vector<V>* values,
                V identity, const typename DistEngine<V>::GatherFn& gather,
                const VertexFn& vertex_fn, uint32_t max_iters,
                double epsilon) {
    RunResult result;
    VertexId n = engine_->dist_graph().graph().num_vertices();
    SLFE_CHECK_EQ(values->size(), n);
    const bool rr = guidance_ != nullptr;

    engine_->BeginRun(ctx);
    if (ctx.rank == 0) {
      accum_.assign(n, identity);
      stable_cnt_.assign(n, 0);
      stable_value_ = *values;
      frozen_.assign(n, 0);
    }
    engine_->ActivateAll(ctx);  // its barrier publishes the arrays above
    uint64_t active = engine_->PromoteActiveSet(ctx);
    (void)active;

    typename DistEngine<V>::PullFilterFn filter = nullptr;
    if (rr) {
      // pullEdge_multiRuler: skip early-converged vertices outright.
      filter = [this](VertexId dst) {
        return frozen_[dst] == 0 ? PullAction::kGatherAll : PullAction::kSkip;
      };
    }

    for (uint32_t iter = 0; iter < max_iters; ++iter) {
      // Propagation phase: gather into accum (apply stores, no activation
      // semantics needed — arithmetic apps run every non-EC vertex).
      engine_->ProcessEdges(
          ctx, identity, gather,
          [this](VertexId dst, V acc) {
            accum_[dst] = acc;
            return true;  // keep the whole graph active
          },
          /*scatter=*/nullptr, filter, /*gather_all=*/true);
      ++result.supersteps;

      // vertexUpdate phase (Algorithm 5): commit values, track stability,
      // freeze early-converged vertices.
      double delta = engine_->ProcessVertices(ctx, [&](VertexId v) {
        if (rr && frozen_[v] != 0) return 0.0;  // EC: serve cached value
        V next = vertex_fn(v, accum_[v]);
        V prev = (*values)[v];
        (*values)[v] = next;
        if (rr) {
          if (next == stable_value_[v]) {
            ++stable_cnt_[v];
          } else {
            stable_cnt_[v] = 0;
            stable_value_[v] = next;
          }
          if (stable_cnt_[v] >= StabilityHorizon(guidance_, v)) {
            frozen_[v] = 1;
          }
        }
        double d = static_cast<double>(next) - static_cast<double>(prev);
        return d < 0 ? -d : d;
      });

      if (rr) {
        uint64_t frozen_local = 0;
        const VertexRange& r = engine_->dist_graph().range(ctx.rank);
        for (VertexId v = r.begin; v < r.end; ++v) frozen_local += frozen_[v];
        uint64_t frozen_total = ctx.world->AllReduceSum(ctx.rank, frozen_local);
        if (ctx.rank == 0) result.ec_history.push_back(frozen_total);
      }
      if (delta < epsilon) break;
    }

    result.stats = engine_->FinishRun(ctx);
    if (!result.ec_history.empty()) {
      result.ec_vertices = result.ec_history.back();
    }
    return result;
  }

 private:
  DistEngine<V>* engine_;
  const RRGuidance* guidance_;
  std::vector<V> accum_;
  std::vector<uint32_t> stable_cnt_;   // the paper's RulerS
  std::vector<V> stable_value_;
  std::vector<uint8_t> frozen_;        // EC flags
};

}  // namespace slfe

#endif  // SLFE_CORE_RR_RUNNERS_H_
