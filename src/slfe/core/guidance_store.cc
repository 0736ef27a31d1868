#include "slfe/core/guidance_store.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "slfe/common/fnv.h"
#include "slfe/common/scoped_file.h"

namespace slfe {

namespace {

/// Fixed-width on-disk header (see the format comment in the header file).
/// Every field is an exact-width integer, so the packed size is the same on
/// every platform we build for; the static_assert guards against padding.
struct StoreHeader {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t graph_fingerprint = 0;
  uint64_t roots_digest = 0;
  uint64_t num_roots = 0;
  uint32_t num_vertices = 0;
  uint32_t depth = 0;
  uint64_t payload_bytes = 0;
  uint64_t payload_checksum = 0;  // must stay the last field (see Checksum)
};
static_assert(sizeof(StoreHeader) == 56, "StoreHeader must pack to 56 bytes");

/// Everything before the checksum field is covered by the checksum too —
/// magic/version/key are independently validated against expectations, but
/// num_vertices/depth/payload_bytes have no other witness, and a flipped
/// depth would otherwise load "valid" and silently change guided-run
/// iteration bounds.
constexpr size_t kChecksummedHeaderBytes =
    offsetof(StoreHeader, payload_checksum);

/// Checksum over the sealed header bytes plus the payload planes AS
/// WRITTEN (codec-width, so the checksum also witnesses the codec byte:
/// reinterpreting a packed plane as raw changes the hashed byte count).
/// Levels-less codecs pass levels_bytes == 0, reproducing the historical
/// two-plane checksum bit-for-bit — old files verify unchanged.
uint64_t Checksum(const StoreHeader& header, const void* last_iter,
                  uint64_t last_iter_bytes, const uint8_t* visited,
                  uint64_t n, const void* levels = nullptr,
                  uint64_t levels_bytes = 0) {
  uint64_t h = Fnv1aBytes(&header, kChecksummedHeaderBytes, kFnvBasis);
  h = Fnv1aBytes(last_iter, last_iter_bytes, h);
  h = Fnv1aBytes(visited, n * sizeof(uint8_t), h);
  if (levels_bytes > 0) h = Fnv1aBytes(levels, levels_bytes, h);
  return h;
}

uint32_t EncodeVersion(GuidanceCodec codec) {
  return GuidanceStore::kFormatVersion |
         (static_cast<uint32_t>(codec) << 16);
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Recovers the graph fingerprint from an entry file name
/// (`g<16 hex>_r..._n....rrg` — see EntryPath). Returns false for names
/// that do not carry one (foreign files never reach here, but a renamed
/// entry should degrade to "unattributed", not to fingerprint 0).
bool ParseEntryFingerprint(const std::string& name, uint64_t* fingerprint) {
  if (name.size() < 18 || name[0] != 'g' || name[17] != '_') return false;
  uint64_t v = 0;
  for (size_t i = 1; i <= 16; ++i) {
    char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  *fingerprint = v;
  return true;
}

}  // namespace

GuidanceStore::GuidanceStore(std::string dir, GuidanceStoreGcOptions gc)
    : dir_(std::move(dir)), gc_(gc) {
  ::mkdir(dir_.c_str(), 0755);
  // Sweep temp files orphaned by a crash mid-save (RemoveAll/RemoveGraph
  // only touch *.rrg, so nothing else reclaims them). Racing a live saver
  // in another process is benign: its fwrite continues into the unlinked
  // file and its rename fails cleanly into a logged, regenerable miss.
  DIR* d = ::opendir(dir_.c_str());
  if (d != nullptr) {
    while (struct dirent* entry = ::readdir(d)) {
      std::string name = entry->d_name;
      if (name.find(".rrg.tmp.") != std::string::npos) {
        std::remove((dir_ + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  if (gc_.HasLimits() && gc_.sweep_on_construction) {
    std::lock_guard<std::mutex> lock(mu_);
    SweepLocked();
  }
}

GuidanceStoreSweepStats GuidanceStore::Sweep() {
  std::lock_guard<std::mutex> lock(mu_);
  return SweepLocked();
}

GuidanceStoreSweepStats GuidanceStore::SweepLocked() {
  GuidanceStoreSweepStats sweep;
  struct EntryInfo {
    std::string name;
    uint64_t bytes = 0;
    // Nanosecond mtime so LRU ordering is stable on filesystems with
    // sub-second timestamps; ties (coarse filesystems, batch saves within
    // one tick) break on the name for determinism.
    int64_t mtime_ns = 0;
    // In-flight protection: entries of a pinned graph survive every phase.
    bool pinned = false;
    // Phase-2 attribution ("" = no tenant, global budgets only).
    std::string tenant;
    // Demand from the hotness oracle (0 when no oracle, or for names the
    // fingerprint cannot be recovered from — those evict as coldest,
    // which is right: nothing can be observing them).
    uint64_t hotness = 0;
  };
  std::vector<EntryInfo> entries;
  {
    DIR* d = ::opendir(dir_.c_str());
    if (d == nullptr) return sweep;  // nothing to scan, nothing to do
    while (struct dirent* de = ::readdir(d)) {
      std::string name = de->d_name;
      if (name.size() < 4 || name.compare(name.size() - 4, 4, ".rrg") != 0) {
        continue;  // GC owns only the entry files, never temps or strangers
      }
      struct ::stat st;
      if (::stat((dir_ + "/" + name).c_str(), &st) != 0) continue;
      EntryInfo info{name, static_cast<uint64_t>(st.st_size),
                     static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                         st.st_mtim.tv_nsec,
                     false, std::string()};
      uint64_t fingerprint = 0;
      if (ParseEntryFingerprint(name, &fingerprint)) {
        info.pinned = pins_.find(fingerprint) != pins_.end();
        auto tenant_it = graph_tenant_.find(fingerprint);
        if (tenant_it != graph_tenant_.end()) info.tenant = tenant_it->second;
        // One oracle call per entry per sweep; several entries of one
        // graph repeat the call, but sweeps are rare and the oracle is a
        // map lookup, so memoization would buy noise.
        if (gc_.hotness != nullptr) info.hotness = gc_.hotness(fingerprint);
      }
      entries.push_back(std::move(info));
    }
    ::closedir(d);
  }
  sweep.scanned = entries.size();
  ++stats_.sweeps;

  auto remove_entry = [&](const EntryInfo& e, uint64_t* counter) {
    if (std::remove((dir_ + "/" + e.name).c_str()) != 0) return false;
    sweep.bytes_reclaimed += e.bytes;
    ++*counter;
    return true;
  };
  auto lru_order = [](const EntryInfo* a, const EntryInfo* b) {
    if (a->mtime_ns != b->mtime_ns) return a->mtime_ns < b->mtime_ns;
    return a->name < b->name;
  };
  // Budget-phase victim order: coldest-first when the hotness oracle is
  // wired (observed demand beats raw recency — a stale-but-hot graph's
  // guidance outlives a fresh one-shot's), pure mtime-LRU otherwise.
  // The LRU order breaks hotness ties either way, so ordering stays
  // total and deterministic.
  const bool use_hotness = gc_.hotness != nullptr;
  auto evict_order = [use_hotness, &lru_order](const EntryInfo* a,
                                               const EntryInfo* b) {
    if (use_hotness && a->hotness != b->hotness) {
      return a->hotness < b->hotness;
    }
    return lru_order(a, b);
  };

  // Phase 1: TTL. Age is measured against the wall clock because mtimes
  // are wall-clock stamps shared across processes.
  std::vector<EntryInfo> live;
  live.reserve(entries.size());
  if (gc_.ttl_seconds > 0) {
    struct ::timespec now;
    ::clock_gettime(CLOCK_REALTIME, &now);
    int64_t now_ns =
        static_cast<int64_t>(now.tv_sec) * 1000000000 + now.tv_nsec;
    // Clamp before the cast: a "keep forever" TTL like 1e10 seconds would
    // otherwise overflow the int64 nanosecond range (UB, and in practice
    // a negative TTL that deletes everything).
    double ttl_ns_d = gc_.ttl_seconds * 1e9;
    int64_t ttl_ns = ttl_ns_d >= static_cast<double>(INT64_MAX)
                         ? INT64_MAX
                         : static_cast<int64_t>(ttl_ns_d);
    for (EntryInfo& e : entries) {
      if (now_ns - e.mtime_ns > ttl_ns) {
        if (e.pinned) {
          // Expired but in use by a running job: spare it. It stays
          // eligible next sweep, once the job unpins.
          ++sweep.pinned_spared;
        } else if (remove_entry(e, &sweep.ttl_removed)) {
          continue;
        }
      }
      live.push_back(std::move(e));
    }
  } else {
    live = std::move(entries);
  }

  // Phase 2: per-tenant budgets, LRU-by-mtime inside each tenant's slice.
  // Runs before the global phase so one tenant blowing its slice is
  // charged to that tenant's entries, not to whoever's files happen to be
  // globally stalest.
  std::vector<bool> removed(live.size(), false);
  if (!gc_.tenant_budgets.empty()) {
    std::unordered_map<std::string, std::vector<size_t>> by_tenant;
    for (size_t i = 0; i < live.size(); ++i) {
      if (!live[i].tenant.empty()) by_tenant[live[i].tenant].push_back(i);
    }
    for (const auto& [tenant, budget] : gc_.tenant_budgets) {
      if (!budget.HasLimits()) continue;
      auto it = by_tenant.find(tenant);
      if (it == by_tenant.end()) continue;
      std::vector<const EntryInfo*> slice;
      slice.reserve(it->second.size());
      uint64_t t_bytes = 0;
      for (size_t i : it->second) {
        slice.push_back(&live[i]);
        t_bytes += live[i].bytes;
      }
      std::sort(slice.begin(), slice.end(), evict_order);
      uint64_t t_entries = slice.size();
      for (const EntryInfo* victim : slice) {
        bool over = (budget.max_entries > 0 && t_entries > budget.max_entries) ||
                    (budget.max_bytes > 0 && t_bytes > budget.max_bytes);
        if (!over) break;
        if (victim->pinned) {
          // Cannot free an in-flight graph's entry; it keeps counting
          // toward the tenant's usage (the budget is genuinely exceeded
          // until the job finishes), and the next-stalest is tried.
          ++sweep.pinned_spared;
          continue;
        }
        if (remove_entry(*victim, &sweep.tenant_removed)) {
          removed[victim - live.data()] = true;
          t_bytes -= victim->bytes;
          --t_entries;
        }
      }
    }
  }

  // Phase 3: global budgets over the survivors, LRU-by-mtime.
  uint64_t live_bytes = 0;
  uint64_t live_count = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    if (removed[i]) continue;
    live_bytes += live[i].bytes;
    ++live_count;
  }
  if (gc_.max_bytes > 0 || gc_.max_entries > 0) {
    std::vector<const EntryInfo*> order;
    order.reserve(live_count);
    for (size_t i = 0; i < live.size(); ++i) {
      if (!removed[i]) order.push_back(&live[i]);
    }
    std::sort(order.begin(), order.end(), evict_order);
    for (const EntryInfo* victim : order) {
      bool over = (gc_.max_entries > 0 && live_count > gc_.max_entries) ||
                  (gc_.max_bytes > 0 && live_bytes > gc_.max_bytes);
      if (!over) break;
      if (victim->pinned) {
        ++sweep.pinned_spared;
        continue;
      }
      if (remove_entry(*victim, &sweep.budget_removed)) {
        live_bytes -= victim->bytes;
        --live_count;
      }
      // A failed unlink (e.g. the directory turned read-only) leaves the
      // victim counted in live_count/live_bytes, so Sweep() keeps
      // reporting the store as over budget instead of pretending the
      // budgets hold.
    }
  }
  sweep.remaining_entries = live_count;
  sweep.remaining_bytes = live_bytes;

  stats_.gc_removed +=
      sweep.ttl_removed + sweep.tenant_removed + sweep.budget_removed;
  stats_.gc_bytes_reclaimed += sweep.bytes_reclaimed;
  return sweep;
}

void GuidanceStore::AssignGraphTenant(uint64_t graph_fingerprint,
                                      const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tenant.empty()) {
    graph_tenant_.erase(graph_fingerprint);
  } else {
    graph_tenant_[graph_fingerprint] = tenant;
  }
}

std::string GuidanceStore::GraphTenant(uint64_t graph_fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = graph_tenant_.find(graph_fingerprint);
  return it != graph_tenant_.end() ? it->second : std::string();
}

void GuidanceStore::SetTenantBudget(const std::string& tenant,
                                    const GuidanceTenantBudget& budget) {
  std::lock_guard<std::mutex> lock(mu_);
  if (budget.HasLimits()) {
    gc_.tenant_budgets[tenant] = budget;
  } else {
    gc_.tenant_budgets.erase(tenant);
  }
}

void GuidanceStore::PinGraph(uint64_t graph_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pins_[graph_fingerprint];
}

void GuidanceStore::UnpinGraph(uint64_t graph_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(graph_fingerprint);
  if (it == pins_.end()) return;  // unbalanced Unpin: ignore, don't wrap
  if (--it->second == 0) pins_.erase(it);
}

size_t GuidanceStore::pinned_graphs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_.size();
}

std::string GuidanceStore::EntryPath(const GuidanceKey& key) const {
  return dir_ + "/g" + Hex(key.graph_fingerprint) + "_r" +
         Hex(key.roots_digest) + "_n" + Hex(key.num_roots) + ".rrg";
}

Status GuidanceStore::Save(const GuidanceKey& key,
                           const RRGuidance& guidance) {
  const std::vector<VertexGuidance>& raw = guidance.raw();
  VertexId n = guidance.num_vertices();

  // Split the AoS records into packed on-disk planes, negotiating the
  // codec from the data. Two independent axes: byte-wide packing whenever
  // every value fits (levels are bounded by the small sweep depth, so
  // this is the overwhelmingly common case), and a third BFS-levels plane
  // whenever the guidance carries one — levels are what make the stored
  // entry repairable after a graph mutation. Packed levels reserve 0xFF
  // for "unreachable", so that family needs depth <= 254 (every finite
  // level is bounded by the depth).
  const bool with_levels = guidance.has_levels();
  bool fits_u8 = guidance.depth() <= (with_levels ? 0xFEu : 0xFFu);
  for (VertexId v = 0; fits_u8 && v < n; ++v) {
    if (raw[v].last_iter > 0xFF) fits_u8 = false;
  }
  GuidanceCodec codec =
      with_levels
          ? (fits_u8 ? GuidanceCodec::kPackedU8Levels
                     : GuidanceCodec::kRawU32Levels)
          : (fits_u8 ? GuidanceCodec::kPackedU8 : GuidanceCodec::kRawU32);
  std::vector<uint32_t> last_iter_u32;
  std::vector<uint8_t> last_iter_u8;
  std::vector<uint8_t> visited(n);
  const void* last_iter_data = nullptr;
  uint64_t last_iter_bytes = 0;
  if (fits_u8) {
    last_iter_u8.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      last_iter_u8[v] = static_cast<uint8_t>(raw[v].last_iter);
    }
    last_iter_data = last_iter_u8.data();
    last_iter_bytes = n * sizeof(uint8_t);
  } else {
    last_iter_u32.resize(n);
    for (VertexId v = 0; v < n; ++v) last_iter_u32[v] = raw[v].last_iter;
    last_iter_data = last_iter_u32.data();
    last_iter_bytes = static_cast<uint64_t>(n) * sizeof(uint32_t);
  }
  for (VertexId v = 0; v < n; ++v) visited[v] = raw[v].visited ? 1 : 0;
  std::vector<uint32_t> levels_u32;
  std::vector<uint8_t> levels_u8;
  const void* levels_data = nullptr;
  uint64_t levels_bytes = 0;
  if (codec == GuidanceCodec::kPackedU8Levels) {
    levels_u8.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      uint32_t level = guidance.level(v);
      levels_u8[v] = level == RRGuidance::kUnreachableLevel
                         ? 0xFF
                         : static_cast<uint8_t>(level);
    }
    levels_data = levels_u8.data();
    levels_bytes = n * sizeof(uint8_t);
  } else if (codec == GuidanceCodec::kRawU32Levels) {
    levels_u32.assign(guidance.levels().begin(), guidance.levels().end());
    levels_data = levels_u32.data();
    levels_bytes = static_cast<uint64_t>(n) * sizeof(uint32_t);
  }

  StoreHeader header;
  header.magic = kMagic;
  header.version = EncodeVersion(codec);
  header.graph_fingerprint = key.graph_fingerprint;
  header.roots_digest = key.roots_digest;
  header.num_roots = key.num_roots;
  header.num_vertices = n;
  header.depth = guidance.depth();
  header.payload_bytes = static_cast<uint64_t>(n) * PayloadBytesPerVertex(codec);
  header.payload_checksum =
      Checksum(header, last_iter_data, last_iter_bytes, visited.data(), n,
               levels_data, levels_bytes);

  // Unique temp name: mu_ only serializes savers within THIS process, but
  // the store directory is shared across processes (restart survival), so
  // a fixed ".tmp" would let two processes interleave writes into one
  // file and rename a torn result into place.
  static std::atomic<uint64_t> tmp_counter{0};
  std::string path = EntryPath(key);
  std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(tmp_counter.fetch_add(1));

  std::lock_guard<std::mutex> lock(mu_);
  {
    ScopedFile f(tmp, "wb");
    if (!f.ok()) return Status::IOError("cannot create " + tmp);
    if (std::fwrite(&header, sizeof(header), 1, f.get()) != 1 ||
        (n > 0 &&
         (std::fwrite(last_iter_data, 1, last_iter_bytes, f.get()) !=
              last_iter_bytes ||
          std::fwrite(visited.data(), sizeof(uint8_t), n, f.get()) != n ||
          (levels_bytes > 0 &&
           std::fwrite(levels_data, 1, levels_bytes, f.get()) !=
               levels_bytes)))) {
      std::remove(tmp.c_str());
      return Status::IOError("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " into place");
  }
  ++stats_.saves;
  return Status::OK();
}

Result<RRGuidance> GuidanceStore::Load(const GuidanceKey& key) {
  std::string path = EntryPath(key);
  std::lock_guard<std::mutex> lock(mu_);
  ScopedFile f(path, "rb");
  if (!f.ok()) {
    ++stats_.load_misses;
    return Status::NotFound("no store entry at " + path);
  }

  auto corrupt = [&](const std::string& why) -> Status {
    ++stats_.load_errors;
    return Status::Corruption(path + ": " + why);
  };

  StoreHeader header;
  if (std::fread(&header, sizeof(header), 1, f.get()) != 1) {
    return corrupt("truncated header");
  }
  if (header.magic != kMagic) return corrupt("bad magic");
  if ((header.version & 0xFFFFu) != kFormatVersion) {
    return corrupt("unsupported format version " +
                   std::to_string(header.version & 0xFFFFu));
  }
  uint32_t codec_byte = (header.version >> 16) & 0xFFu;
  if (codec_byte > static_cast<uint32_t>(GuidanceCodec::kPackedU8Levels) ||
      (header.version >> 24) != 0) {
    // Distinct from a checksum failure: this file is from a NEWER writer,
    // not damaged — surfaced separately so the remedy (upgrade, don't
    // delete) is visible in the stats.
    ++stats_.codec_errors;
    return corrupt("unsupported guidance codec " +
                   std::to_string(codec_byte));
  }
  GuidanceCodec codec = static_cast<GuidanceCodec>(codec_byte);
  if (header.graph_fingerprint != key.graph_fingerprint ||
      header.roots_digest != key.roots_digest ||
      header.num_roots != key.num_roots) {
    return corrupt("key mismatch (stale or colliding entry)");
  }
  uint64_t n = header.num_vertices;
  if (header.payload_bytes != n * PayloadBytesPerVertex(codec)) {
    return corrupt("payload size inconsistent with vertex count");
  }
  // Validate the real file size against the header BEFORE sizing buffers
  // from it: a corrupt-but-self-consistent header must cost a Corruption
  // status, not a multi-GB allocation. This also rejects truncation and
  // trailing garbage in one check.
  struct ::stat st;
  if (::fstat(::fileno(f.get()), &st) != 0) {
    ++stats_.load_errors;  // present but unreadable counts as rejected
    return Status::IOError("cannot stat " + path);
  }
  if (static_cast<uint64_t>(st.st_size) !=
      sizeof(StoreHeader) + header.payload_bytes) {
    return corrupt("file size does not match header");
  }

  const bool packed = codec == GuidanceCodec::kPackedU8 ||
                      codec == GuidanceCodec::kPackedU8Levels;
  const bool with_levels = CodecHasLevels(codec);
  std::vector<uint32_t> last_iter_u32;
  std::vector<uint8_t> last_iter_u8;
  std::vector<uint8_t> visited(n);
  const void* last_iter_data = nullptr;
  uint64_t last_iter_bytes = 0;
  if (packed) {
    last_iter_u8.resize(n);
    last_iter_data = last_iter_u8.data();
    last_iter_bytes = n * sizeof(uint8_t);
  } else {
    last_iter_u32.resize(n);
    last_iter_data = last_iter_u32.data();
    last_iter_bytes = n * sizeof(uint32_t);
  }
  std::vector<uint32_t> levels_u32;
  std::vector<uint8_t> levels_u8;
  void* levels_data = nullptr;
  uint64_t levels_bytes = 0;
  if (with_levels) {
    if (packed) {
      levels_u8.resize(n);
      levels_data = levels_u8.data();
      levels_bytes = n * sizeof(uint8_t);
    } else {
      levels_u32.resize(n);
      levels_data = levels_u32.data();
      levels_bytes = n * sizeof(uint32_t);
    }
  }
  if (n > 0 &&
      (std::fread(const_cast<void*>(last_iter_data), 1, last_iter_bytes,
                  f.get()) != last_iter_bytes ||
       std::fread(visited.data(), sizeof(uint8_t), n, f.get()) != n ||
       (levels_bytes > 0 &&
        std::fread(levels_data, 1, levels_bytes, f.get()) != levels_bytes))) {
    return corrupt("truncated payload");
  }

  if (Checksum(header, last_iter_data, last_iter_bytes, visited.data(), n,
               levels_data, levels_bytes) != header.payload_checksum) {
    return corrupt("checksum mismatch");
  }

  std::vector<VertexGuidance> records(n);
  for (uint64_t v = 0; v < n; ++v) {
    records[v].last_iter = packed ? last_iter_u8[v] : last_iter_u32[v];
    records[v].visited = visited[v] != 0;
  }
  // Mark the entry recently-used for the LRU-by-mtime GC: without the
  // touch, a hot entry that is only ever read would look as stale as an
  // abandoned one. Best-effort — a failed touch just ages the entry.
  ::futimens(::fileno(f.get()), nullptr);
  ++stats_.loads;
  if (!with_levels) {
    return RRGuidance::FromParts(std::move(records), header.depth);
  }
  std::vector<uint32_t> levels(n);
  if (packed) {
    for (uint64_t v = 0; v < n; ++v) {
      levels[v] = levels_u8[v] == 0xFF ? RRGuidance::kUnreachableLevel
                                       : levels_u8[v];
    }
  } else {
    levels.assign(levels_u32.begin(), levels_u32.end());
  }
  return RRGuidance::FromParts(std::move(records), header.depth,
                               std::move(levels));
}

bool GuidanceStore::Contains(const GuidanceKey& key) const {
  struct ::stat st;
  return ::stat(EntryPath(key).c_str(), &st) == 0;
}

Status GuidanceStore::Remove(const GuidanceKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::remove(EntryPath(key).c_str());
  return Status::OK();
}

Result<size_t> GuidanceStore::RemoveGraph(uint64_t graph_fingerprint) {
  std::string prefix = "g" + Hex(graph_fingerprint) + "_";
  std::lock_guard<std::mutex> lock(mu_);
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return Status::IOError("cannot open " + dir_);
  size_t removed = 0;
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".rrg") != 0) {
      continue;
    }
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (std::remove((dir_ + "/" + name).c_str()) == 0) ++removed;
  }
  ::closedir(d);
  return removed;
}

Status GuidanceStore::RemoveAll() {
  std::lock_guard<std::mutex> lock(mu_);
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return Status::IOError("cannot open " + dir_);
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".rrg") == 0) {
      std::remove((dir_ + "/" + name).c_str());
    }
  }
  ::closedir(d);
  return Status::OK();
}

GuidanceStoreStats GuidanceStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace slfe
