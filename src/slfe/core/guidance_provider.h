#ifndef SLFE_CORE_GUIDANCE_PROVIDER_H_
#define SLFE_CORE_GUIDANCE_PROVIDER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "slfe/common/thread_pool.h"
#include "slfe/core/guidance_cache.h"
#include "slfe/obs/metrics.h"
#include "slfe/core/guidance_store.h"
#include "slfe/core/rr_guidance.h"
#include "slfe/graph/graph.h"
#include "slfe/graph/types.h"

namespace slfe {

struct GraphDelta;

/// How the provider derives the guidance root set from a request — the
/// per-application-class policies that used to be duplicated across the
/// apps (the sweep must start where the application's own propagation
/// starts).
enum class GuidanceRootPolicy {
  /// Single-source apps (SSSP/BFS/WP/NumPaths): the query root.
  kSingleSource,
  /// Arithmetic apps (PR/TR/SpMV/BP/Heat): zero-in-degree vertices, with
  /// the vertex-0 fallback on cycle-bound graphs.
  kSourceVertices,
  /// Min-label apps (CC): local-minimum vertices.
  kLocalMinima,
};

/// One guidance request: the policy plus whatever the policy needs.
struct GuidanceRequest {
  GuidanceRootPolicy policy = GuidanceRootPolicy::kSourceVertices;
  /// Query root for kSingleSource (ignored otherwise).
  VertexId root = 0;
  /// Bypass the cache (always regenerate, never insert). Benches use this
  /// to measure per-job regeneration cost.
  bool use_cache = true;
};

/// What Acquire hands back: shared ownership of the guidance (engines and
/// runners may outlive cache eviction), whether this was the paper's §4.4
/// amortized path, and the wall cost actually paid by THIS job — the
/// generation time on a miss, the (near-zero) lookup time on a hit, the
/// leader's remaining generation time when the request was coalesced onto
/// an in-flight generation. The Fig. 8 overhead accounting uses
/// acquire_seconds, so repeated jobs show the amortization directly.
struct GuidanceAcquisition {
  std::shared_ptr<const RRGuidance> guidance;
  bool cache_hit = false;
  /// True when this request waited on (and shares the result of) another
  /// thread's in-flight generation instead of sweeping itself.
  bool coalesced = false;
  /// True when the generation leader patched the previous graph version's
  /// guidance (RRGuidance::Repair) instead of sweeping from scratch.
  /// Only ever set on the leader; followers report coalesced as usual.
  bool repaired = false;
  /// True when cache_hit was served by the persistent store's disk-load
  /// path rather than the in-memory LRU (trace outcome "store").
  bool store_hit = false;
  double acquire_seconds = 0;

  const RRGuidance* get() const { return guidance.get(); }
  explicit operator bool() const { return guidance != nullptr; }
};

/// Knobs for the incremental-repair path (see RecordMutation). Repair
/// turns a post-mutation guidance miss from an O(|E|) sweep into work
/// proportional to the damaged region, but only pays off for small
/// deltas — both fractions below bound when it is attempted at all.
struct GuidanceRepairOptions {
  bool enabled = true;
  /// Deltas touching more than this fraction of the old graph's edges
  /// regenerate outright (the repair bookkeeping would cost more than the
  /// sweep it saves).
  double max_delta_fraction = 0.25;
  /// Abort a running repair (and fall back to regeneration) once the
  /// invalidation cascade exceeds this fraction of the new graph's
  /// vertices — forwarded to RRGuidance::Repair.
  double max_affected_fraction = 0.5;
  /// Remembered mutations (new-fingerprint -> predecessor lineage), FIFO
  /// evicted. 0 disables lineage tracking (and thereby repair).
  size_t lineage_capacity = 32;
};

struct GuidanceProviderOptions {
  /// Maximum cached (graph, roots) entries.
  size_t cache_capacity = 32;
  /// Workers for generation; 0 = hardware concurrency. More than one runs
  /// the partitioned sweep, 1 the serial reference (bit-identical output).
  size_t generation_threads = 0;
  /// Work-stealing granularity (vertices per mini-chunk) for the
  /// partitioned sweep's push phase. 0 = the paper's 256; tune per host,
  /// exposed as --mini-chunk.
  size_t generation_mini_chunk = 0;
  /// Non-empty = persist cache entries as fingerprint-keyed files in this
  /// directory (typically next to the ooc shard files), so the §4.4
  /// amortization survives process restarts. Empty = in-memory only.
  std::string store_dir;
  /// Lifecycle policy for the store directory (ignored when store_dir is
  /// empty): TTL + LRU-by-mtime byte/entry budgets, swept when the store
  /// is constructed and on GuidanceStore::Sweep(). Defaults keep
  /// everything forever.
  GuidanceStoreGcOptions store_gc;
  /// Maximum remembered unproducible requests (see the negative cache
  /// note on GuidanceProvider). 0 disables negative caching.
  size_t negative_cache_capacity = 64;
  /// Incremental-repair policy for mutated graphs.
  GuidanceRepairOptions repair;
  /// Hotness gate for store admission (ignored when store_dir is empty).
  /// When set, a generated entry only write-throughs to disk if
  /// `store_admission(graph_fingerprint)` returns true; cold one-shot
  /// graphs keep their guidance in memory but skip the .rrg write, and a
  /// later in-memory hit promotes the entry once the gate opens (see
  /// GuidanceCache::SetStoreAdmission). nullptr = admit everything.
  std::function<bool(uint64_t graph_fingerprint)> store_admission;
  /// Optional registry for generation/repair/store-load duration
  /// histograms. Must outlive the provider; null = no instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Provider-level counters (the cache and store keep their own).
struct GuidanceProviderStats {
  /// Sweeps actually executed (each one paid O(|E|)).
  uint64_t generations = 0;
  /// Requests that piggybacked on another thread's in-flight sweep.
  uint64_t coalesced = 0;
  /// Requests short-circuited by the negative cache.
  uint64_t negative_hits = 0;
  /// Misses served by patching the predecessor version's guidance
  /// (RRGuidance::Repair) instead of a full sweep.
  uint64_t repairs = 0;
  /// Repair attempts that found a recorded lineage but regenerated anyway
  /// (delta too large, predecessor guidance missing or levels-less, roots
  /// incompatible, or the invalidation cascade blew its bound).
  uint64_t repair_fallbacks = 0;
};

/// The single guidance entry point shared by the apps and the distributed
/// engine (via EngineOptions::guidance): selects roots per policy, serves
/// repeated jobs from the GuidanceCache (and, when a store directory is
/// configured, from disk across process restarts), and generates misses
/// with the frontier-parallel sweep.
///
/// Thread-safe, with two multi-tenant protections:
///
///  * **Singleflight.** Concurrent misses on one key are coalesced: the
///    first thread becomes the generation leader, every other thread
///    blocks on its flight and shares the one result (acquisitions report
///    coalesced = true). Exactly one O(|E|) sweep runs per key no matter
///    how many tenants request it simultaneously.
///
///  * **Negative cache.** Requests that cannot yield useful guidance —
///    the root policy selected an empty root set, which makes the sweep a
///    no-op that disables all redundancy reduction — are remembered, and
///    repeats return a null acquisition (baseline mode) immediately,
///    skipping both the O(V+E) root-selection rescan and the no-op sweep.
///    Eviction policy: a bounded FIFO of `negative_cache_capacity` request
///    keys (fingerprint, policy, root); when full, the oldest entry is
///    dropped. Entries are never revalidated by time — a Graph is
///    immutable, so an empty root set is a permanent property of
///    (topology, policy) — but ClearNegativeCache() resets the set (e.g.
///    for tests reusing fingerprints across synthetic graphs).
class GuidanceProvider {
 public:
  explicit GuidanceProvider(GuidanceProviderOptions options = {});

  /// Process-wide default instance, shared by all apps unless an AppConfig
  /// points at a private one — this is what amortizes guidance across the
  /// ~8.7 jobs per graph without any coordination between callers.
  static GuidanceProvider& Global();

  /// Policy-driven acquisition (the app path).
  GuidanceAcquisition Acquire(const Graph& graph,
                              const GuidanceRequest& request);

  /// Explicit-roots acquisition (benches / tests / custom apps). An empty
  /// root set returns a null acquisition (baseline mode) — see the
  /// negative cache note above.
  GuidanceAcquisition AcquireForRoots(const Graph& graph,
                                      const std::vector<VertexId>& roots,
                                      bool use_cache = true);

  /// Root selection for `request` — exposed so diagnostics can inspect
  /// what the policies produce.
  static std::vector<VertexId> SelectRoots(const Graph& graph,
                                           const GuidanceRequest& request);

  /// Remembers that `new_graph` was produced from `old_graph` by `delta`,
  /// so the NEXT guidance miss on the new graph can patch the old
  /// version's guidance (RRGuidance::Repair) instead of re-sweeping.
  /// Lineages are a bounded FIFO (repair.lineage_capacity); evicted or
  /// never-recorded mutations simply regenerate. The old graph is held
  /// alive by shared ownership only until its lineage entry is evicted.
  void RecordMutation(std::shared_ptr<const Graph> old_graph,
                      const Graph& new_graph,
                      std::shared_ptr<const GraphDelta> delta);

  GuidanceCache& cache() { return cache_; }
  GuidanceCacheStats cache_stats() const { return cache_.stats(); }
  GuidanceProviderStats stats() const;

  /// The persistent spill layer, or nullptr when store_dir was empty.
  GuidanceStore* store() const { return store_.get(); }

  /// Forgets every negatively cached request.
  void ClearNegativeCache();

  /// Number of workers generation will use (resolves the 0 = hardware
  /// default).
  size_t generation_threads() const;

 private:
  /// A negatively cached request: the graph plus the policy inputs that
  /// produced an empty root set.
  struct NegativeKey {
    uint64_t graph_fingerprint = 0;
    GuidanceRootPolicy policy = GuidanceRootPolicy::kSourceVertices;
    VertexId root = 0;

    bool operator==(const NegativeKey& o) const {
      return graph_fingerprint == o.graph_fingerprint && policy == o.policy &&
             root == o.root;
    }
  };
  struct NegativeKeyHash {
    size_t operator()(const NegativeKey& k) const {
      uint64_t h = k.graph_fingerprint;
      h ^= static_cast<uint64_t>(k.policy) + 0x9e3779b97f4a7c15ull +
           (h << 6) + (h >> 2);
      h ^= static_cast<uint64_t>(k.root) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// One in-flight generation; followers block on cv until the leader
  /// publishes `result` and flips `done`.
  struct Flight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const RRGuidance> result;
  };

  /// One recorded mutation: how `new_fingerprint`'s graph came to be.
  struct Lineage {
    std::shared_ptr<const Graph> old_graph;
    std::shared_ptr<const GraphDelta> delta;
  };

  bool NegativeLookup(const NegativeKey& key);
  void NegativeInsert(const NegativeKey& key);

  /// Shared slow path behind Acquire/AcquireForRoots. `request` is the
  /// policy context when one exists (the Acquire path) — repair needs it
  /// to re-derive the OLD graph's root set; nullptr (explicit-roots path)
  /// restricts repair to roots that exist in both versions.
  GuidanceAcquisition AcquireInternal(const Graph& graph,
                                      const std::vector<VertexId>& roots,
                                      bool use_cache,
                                      const GuidanceRequest* request);

  /// The uncached sweep (leader path); counts a generation.
  std::shared_ptr<const RRGuidance> GenerateNow(
      const Graph& graph, const std::vector<VertexId>& roots);

  /// Attempts the incremental-repair path for a miss on `graph`: finds a
  /// recorded lineage, checks the delta-size heuristic, recovers the
  /// predecessor's guidance (memory or store) and patches it. Returns
  /// null — counting a repair_fallback iff a lineage existed — when any
  /// precondition fails; the caller then regenerates.
  std::shared_ptr<const RRGuidance> TryRepair(
      const Graph& graph, const std::vector<VertexId>& roots,
      const GuidanceRequest* request);

  ThreadPool* GenerationPool();

  GuidanceProviderOptions options_;
  GuidanceCache cache_;
  std::shared_ptr<GuidanceStore> store_;  // null = in-memory only

  std::mutex pool_mu_;
  std::unique_ptr<ThreadPool> pool_;  // lazily built, serial mode = none

  std::mutex flights_mu_;
  std::unordered_map<GuidanceKey, std::shared_ptr<Flight>, GuidanceKeyHash>
      flights_;

  mutable std::mutex negative_mu_;
  std::unordered_set<NegativeKey, NegativeKeyHash> negative_;
  std::deque<NegativeKey> negative_fifo_;  // front = oldest, next to evict

  mutable std::mutex lineage_mu_;
  /// New graph fingerprint -> how it was derived (bounded FIFO).
  std::unordered_map<uint64_t, Lineage> lineage_;
  std::deque<uint64_t> lineage_fifo_;  // front = oldest, next to evict

  mutable std::mutex stats_mu_;
  GuidanceProviderStats stats_;

  /// Duration histograms (owned by options_.metrics; null when absent).
  obs::Histogram* generation_hist_ = nullptr;
  obs::Histogram* repair_hist_ = nullptr;
  obs::Histogram* store_load_hist_ = nullptr;
};

}  // namespace slfe

#endif  // SLFE_CORE_GUIDANCE_PROVIDER_H_
