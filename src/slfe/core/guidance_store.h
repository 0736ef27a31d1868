#ifndef SLFE_CORE_GUIDANCE_STORE_H_
#define SLFE_CORE_GUIDANCE_STORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/core/guidance_cache.h"
#include "slfe/core/rr_guidance.h"

namespace slfe {

/// How the per-vertex payload planes are encoded in a `.rrg` file.
/// Carried in bits 16-23 of the header's version field, so a version-1
/// reader that predates the codec byte sees a nonzero "version" and
/// rejects cleanly rather than misparsing the payload.
enum class GuidanceCodec : uint8_t {
  /// last_iter as u32 per vertex (5 bytes/vertex total) — the original
  /// version-1 layout; a plain version field of 1 IS this codec.
  kRawU32 = 0,
  /// last_iter packed to u8 per vertex (2 bytes/vertex total). RR levels
  /// are bounded by the sweep depth, which is single-digit in practice
  /// (the paper sweeps to depth 3), so Save picks this whenever every
  /// level fits a byte.
  kPackedU8 = 1,
  /// kRawU32 plus a third plane of BFS levels as u32 per vertex (9
  /// bytes/vertex). Levels make the stored entry repairable (see
  /// RRGuidance::Repair); entries without them stay loadable but force a
  /// full regeneration after a mutation.
  kRawU32Levels = 2,
  /// kPackedU8 plus byte-wide BFS levels (3 bytes/vertex); 0xFF encodes
  /// "unreachable". Eligible only when depth <= 254 — every finite level
  /// is bounded by the depth, so the sentinel can never collide.
  kPackedU8Levels = 3,
};

constexpr bool CodecHasLevels(GuidanceCodec codec) {
  return codec == GuidanceCodec::kRawU32Levels ||
         codec == GuidanceCodec::kPackedU8Levels;
}

/// Persistence counters, split by direction so benches can report the
/// amortization that survives a restart (saves during the warm run, loads
/// instead of regenerations after it).
struct GuidanceStoreStats {
  uint64_t saves = 0;
  uint64_t loads = 0;        ///< successful reloads from disk
  uint64_t load_misses = 0;  ///< no file for the key (a cold store)
  uint64_t load_errors = 0;  ///< file present but rejected (see Load)
  /// Rejections (also counted in load_errors) whose specific reason is an
  /// unknown codec byte — a NEWER writer's file, not damage. Split out so
  /// operators can tell "upgrade the reader" from "disk corruption".
  uint64_t codec_errors = 0;
  uint64_t sweeps = 0;       ///< GC sweeps executed (construction + manual)
  uint64_t gc_removed = 0;   ///< entries removed by GC (TTL + budget)
  uint64_t gc_bytes_reclaimed = 0;
};

/// Per-tenant slice of the store budget (JobService wires these from its
/// configuration). Entries are attributed to tenants by graph fingerprint
/// (AssignGraphTenant); unattributed entries are only subject to the
/// global limits.
struct GuidanceTenantBudget {
  uint64_t max_bytes = 0;    ///< 0 = unlimited
  uint64_t max_entries = 0;  ///< 0 = unlimited

  bool HasLimits() const { return max_bytes > 0 || max_entries > 0; }
};

/// Lifecycle policy for the on-disk entries. All limits are opt-in: the
/// zero defaults keep every entry forever (the pre-GC behavior). With any
/// limit set, a sweep runs when the store is constructed over the
/// directory and whenever Sweep() is called explicitly — there is no
/// background thread here; the long-lived JobService drives Sweep() from
/// its maintenance loop, and one-shot processes sweep at construction.
struct GuidanceStoreGcOptions {
  /// Entries whose last use is older than this are removed first.
  /// 0 = no TTL.
  double ttl_seconds = 0;
  /// After TTL expiry, oldest-first eviction until the remaining entries
  /// fit both budgets. 0 = unlimited.
  uint64_t max_bytes = 0;
  uint64_t max_entries = 0;
  /// Per-tenant byte/entry budgets, enforced between the TTL and global
  /// phases (LRU-by-mtime within the tenant's entries). Keyed by tenant
  /// id; SetTenantBudget adds/replaces entries at runtime.
  std::map<std::string, GuidanceTenantBudget> tenant_budgets;
  /// Hotness oracle for the budget phases' eviction ORDER. When set, a
  /// sweep evicts coldest-first — ascending hotness(graph_fingerprint),
  /// with the (mtime, name) LRU order breaking hotness ties — so a
  /// stale-but-hot graph outlives a fresh-but-cold one. The JobService
  /// wires this to its exact per-version request counts (GraphRequests).
  /// TTL expiry (phase 1) stays purely age-based, pinning is unchanged,
  /// and nullptr preserves the historic pure-mtime LRU. Not a limit:
  /// setting only this never causes a sweep to remove anything.
  std::function<uint64_t(uint64_t graph_fingerprint)> hotness;
  /// Run a sweep from the constructor (only meaningful when some limit
  /// above is set). Disable for tests that stage files before sweeping.
  bool sweep_on_construction = true;

  bool HasLimits() const {
    return ttl_seconds > 0 || max_bytes > 0 || max_entries > 0 ||
           !tenant_budgets.empty();
  }
};

/// What one GC sweep did — returned by Sweep() so callers (and the GC
/// tests) can assert exactly which work happened.
struct GuidanceStoreSweepStats {
  uint64_t scanned = 0;         ///< *.rrg entries examined
  uint64_t ttl_removed = 0;     ///< removed because older than the TTL
  uint64_t tenant_removed = 0;  ///< removed to fit a per-tenant budget
  uint64_t budget_removed = 0;  ///< removed (oldest first) to fit the
                                ///< global budgets
  uint64_t pinned_spared = 0;   ///< would-be victims spared because their
                                ///< graph is pinned by an in-flight job
  uint64_t bytes_reclaimed = 0;
  uint64_t remaining_entries = 0;
  uint64_t remaining_bytes = 0;
};

/// Durable spill layer for the GuidanceCache: one file per cache entry,
/// named by the full cache key (graph fingerprint + roots digest + root
/// count), living in a caller-chosen directory — typically next to the ooc
/// shard files, so a graph's preprocessing artifacts travel together. This
/// is what lets the paper's §4.4 amortization (~8.7 jobs per graph) survive
/// process restarts: the first process pays the O(|E|) sweep, every later
/// process pays one sequential file read.
///
/// ## File format (version 1, little-endian, `*.rrg`)
///
///   [StoreHeader — 56 bytes]
///     magic              u32   0x53'4C'46'47 ("SLFG")
///     version            u32   low 16 bits: format version (1);
///                              bits 16-23: GuidanceCodec byte;
///                              bits 24-31: must be 0
///     graph_fingerprint  u64   ┐
///     roots_digest       u64   ├ must equal the requested key on load
///     num_roots          u64   ┘
///     num_vertices       u32
///     depth              u32   sweep depth (RRGuidance::depth())
///     payload_bytes      u64   PayloadBytesPerVertex(codec) * num_vertices
///     payload_checksum   u64   FNV-1a over the 48 header bytes above AND
///                              the payload (depth etc. have no other
///                              witness, so the checksum must cover them)
///   [payload]  (packed planes; widths are the codec's)
///     last_iter          u32 * num_vertices   (kRawU32, kRawU32Levels)
///                     or u8  * num_vertices   (kPackedU8, kPackedU8Levels)
///     visited            u8  * num_vertices
///     levels             u32 * num_vertices   (kRawU32Levels)
///                     or u8  * num_vertices   (kPackedU8Levels,
///                                              0xFF = unreachable)
///
/// Codec negotiation: Save prefers a levels-bearing codec whenever the
/// guidance carries its levels plane (generated or repaired in-process;
/// levels are what make the entry repairable after a graph mutation), and
/// within each family packs to bytes whenever every value fits — for the
/// levels family that means depth <= 254, reserving 0xFF as the
/// unreachable sentinel. Load dispatches on the codec byte and accepts
/// all four, so pre-codec files (a plain version field of 1 == kRawU32)
/// stay loadable forever; a levels-less entry loads into a guidance with
/// has_levels() == false, which the repair path treats as "regenerate".
/// An unknown codec byte is rejected with a distinct "unsupported
/// guidance codec" reason and counted in stats().codec_errors — it means
/// a newer writer, not a damaged file, and deleting the entry would be
/// the wrong fix.
///
/// The two per-vertex arrays are written as separate packed planes (not the
/// in-memory VertexGuidance struct) so the on-disk layout is independent of
/// compiler padding. Load rejects — with kCorruption/kIOError, never a
/// partial object, and with the real file size validated against the
/// header BEFORE any header-derived allocation — any file with a wrong
/// magic/version, a key mismatch (hash-collision guard), a size mismatch,
/// truncation or trailing bytes, or a checksum mismatch. Writes go to a
/// uniquely-named `.tmp.<pid>.<n>` sibling first and rename into place, so
/// a crash mid-save — or two processes saving the same key into a shared
/// store directory — can only ever leave a temp file behind, never a torn
/// entry; orphaned temp files are swept by the next GuidanceStore
/// constructed over the directory.
///
/// Thread-safe: per-key operations serialize on one mutex (guidance files
/// are a few MB at most and the provider's singleflight already coalesces
/// concurrent generation, so finer-grained locking has nothing to win).
class GuidanceStore {
 public:
  static constexpr uint32_t kMagic = 0x53'4C'46'47;  // "SLFG"
  static constexpr uint32_t kFormatVersion = 1;
  /// kRawU32 payload bytes per vertex (the last_iter + visited planes).
  /// Accounting layers (the JobService's per-tenant guidance_bytes) meter
  /// with this codec-independent upper bound — it measures logical
  /// guidance volume, not on-disk bytes, which the codec may shrink.
  static constexpr uint64_t kPayloadBytesPerVertex =
      sizeof(uint32_t) + sizeof(uint8_t);
  /// kPackedU8 payload bytes per vertex (both planes byte-wide).
  static constexpr uint64_t kPackedPayloadBytesPerVertex =
      sizeof(uint8_t) + sizeof(uint8_t);
  /// kRawU32Levels payload bytes per vertex (u32 last_iter + u8 visited +
  /// u32 levels).
  static constexpr uint64_t kRawLevelsPayloadBytesPerVertex =
      sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint32_t);
  /// kPackedU8Levels payload bytes per vertex (all three planes byte-wide).
  static constexpr uint64_t kPackedLevelsPayloadBytesPerVertex =
      sizeof(uint8_t) + sizeof(uint8_t) + sizeof(uint8_t);

  static constexpr uint64_t PayloadBytesPerVertex(GuidanceCodec codec) {
    switch (codec) {
      case GuidanceCodec::kPackedU8:
        return kPackedPayloadBytesPerVertex;
      case GuidanceCodec::kRawU32Levels:
        return kRawLevelsPayloadBytesPerVertex;
      case GuidanceCodec::kPackedU8Levels:
        return kPackedLevelsPayloadBytesPerVertex;
      case GuidanceCodec::kRawU32:
      default:
        return kPayloadBytesPerVertex;
    }
  }

  /// Uses `dir` (created if needed) for all entry files. When `gc` sets
  /// any limit (and sweep_on_construction is left on), the constructor
  /// runs one Sweep() after reclaiming orphaned temp files, so a store
  /// opened over a stale multi-tenant directory starts within budget.
  explicit GuidanceStore(std::string dir, GuidanceStoreGcOptions gc = {});

  const std::string& dir() const { return dir_; }
  const GuidanceStoreGcOptions& gc_options() const { return gc_; }

  /// Garbage-collects on-disk entries in three phases: (1) every entry
  /// whose age (now - mtime) exceeds the TTL; (2) for each tenant with a
  /// budget, the tenant's least-recently-used entries until its byte/entry
  /// budgets hold; (3) the globally least-recently-used entries until the
  /// global budgets hold. mtime approximates recency because Save rewrites
  /// the file and a successful Load refreshes the timestamp, so live
  /// entries stay young. Entries whose graph fingerprint is pinned
  /// (PinGraph — an in-flight job is using that graph's guidance) are
  /// never removed in any phase; they still count toward usage, and each
  /// spared would-be victim is reported in pinned_spared. Entries inside
  /// budget and TTL are never touched. Safe to call concurrently with
  /// Save/Load (everything serializes on the store mutex); removing an
  /// entry a cache still holds in memory is benign — the next memory miss
  /// regenerates and re-saves it.
  GuidanceStoreSweepStats Sweep();

  /// Attributes every entry of `graph_fingerprint` to `tenant` for the
  /// per-tenant budget phase (phase 2). The JobService records this at
  /// submission time; re-assignment overwrites (last submitter owns the
  /// graph's storage). An empty tenant removes the attribution.
  void AssignGraphTenant(uint64_t graph_fingerprint, const std::string& tenant);

  /// The tenant `graph_fingerprint` is attributed to ("" = unattributed).
  std::string GraphTenant(uint64_t graph_fingerprint) const;

  /// Adds or replaces `tenant`'s budget at runtime (construction-time
  /// budgets come in via GuidanceStoreGcOptions::tenant_budgets). A budget
  /// with no limits removes the tenant's entry.
  void SetTenantBudget(const std::string& tenant,
                       const GuidanceTenantBudget& budget);

  /// Marks `graph_fingerprint`'s entries as in use by a running job:
  /// pinned graphs survive every sweep phase. Refcounted — each Pin needs
  /// a matching Unpin; the JobService pins for the duration of each
  /// guidance-using job.
  void PinGraph(uint64_t graph_fingerprint);
  void UnpinGraph(uint64_t graph_fingerprint);

  /// Number of distinct currently pinned graphs (diagnostics/tests).
  size_t pinned_graphs() const;

  /// `<dir>/g<fingerprint>_r<digest>_n<num_roots>.rrg` (hex fields). The
  /// fingerprint comes first so directory scans can group a graph's
  /// entries (RemoveGraph relies on this prefix).
  std::string EntryPath(const GuidanceKey& key) const;

  /// Writes (or atomically replaces) the entry for `key`.
  Status Save(const GuidanceKey& key, const RRGuidance& guidance);

  /// Reads the entry for `key` back into a fresh RRGuidance. Returns
  /// kNotFound for an absent file, kCorruption for a failed validation
  /// (wrong magic/version/key/checksum, truncation), kIOError for read
  /// failures.
  Result<RRGuidance> Load(const GuidanceKey& key);

  /// True iff an entry file exists for `key` (no validation).
  bool Contains(const GuidanceKey& key) const;

  /// Removes the entry for `key`; OK if it did not exist.
  Status Remove(const GuidanceKey& key);

  /// Removes every entry generated for `graph_fingerprint` (the persistent
  /// counterpart of GuidanceCache::InvalidateGraph). Returns the number of
  /// files removed. Matches by file-name prefix, never by content, so
  /// entries of EVERY codec — including unknown codec bytes written by a
  /// newer build — are invalidated together; a stale-graph purge must not
  /// leave foreign-codec leftovers behind.
  Result<size_t> RemoveGraph(uint64_t graph_fingerprint);

  /// Removes all `*.rrg` entries regardless of codec (tests /
  /// cache-busting).
  Status RemoveAll();

  GuidanceStoreStats stats() const;

 private:
  GuidanceStoreSweepStats SweepLocked();

  std::string dir_;
  GuidanceStoreGcOptions gc_;
  mutable std::mutex mu_;
  GuidanceStoreStats stats_;
  /// Graph fingerprint -> owning tenant (phase-2 attribution).
  std::unordered_map<uint64_t, std::string> graph_tenant_;
  /// Graph fingerprint -> pin refcount (in-flight jobs).
  std::unordered_map<uint64_t, uint32_t> pins_;
};

}  // namespace slfe

#endif  // SLFE_CORE_GUIDANCE_STORE_H_
