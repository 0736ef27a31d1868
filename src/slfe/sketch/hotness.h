#pragma once

// HotnessTracker: the facade the service layer streams every request
// through, keyed by (tenant, graph-fingerprint).
//
// One conservative-update count-min sketch holds two salted marginals
// per recorded request — the tenant (read for the first-seen-tenant
// count) and the graph (read for store admission, the GC eviction order
// and the `hot` ranking) — so EstimateTenant / EstimateGraph read the
// same bounded structure. A hashheap top-k keeps the current heavy-
// hitter graphs ready for the `hot` command and the eviction oracle.
// Counts never decay: estimates are lifetime totals.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "slfe/sketch/sketch.h"
#include "slfe/sketch/topk.h"

namespace slfe {

struct HotnessOptions {
  SketchOptions sketch;
  // Heavy-hitter slots for TopGraphs / the `hot` command.
  size_t topk = 32;
};

struct HotGraph {
  uint64_t fingerprint = 0;
  uint64_t estimate = 0;
};

class HotnessTracker {
 public:
  explicit HotnessTracker(const HotnessOptions& options = HotnessOptions());

  HotnessTracker(const HotnessTracker&) = delete;
  HotnessTracker& operator=(const HotnessTracker&) = delete;

  struct RecordResult {
    // Post-update estimate of the graph marginal.
    uint64_t graph_estimate = 0;
    // True when the tenant marginal was 0 before this record — count-min
    // never underestimates, so 0 proves the tenant is genuinely unseen.
    // (Approximate in the other direction: collisions can make a
    // first-seen tenant look already-seen.)
    bool first_tenant = false;
  };

  // Stream one request through all structures. fingerprint == 0 means
  // "graph unresolved" (e.g. a rejected submit): the tenant marginal
  // still counts, but the graph marginal and top-k are skipped.
  RecordResult Record(const std::string& tenant, uint64_t graph_fingerprint);

  // Point estimates (count-min: never underestimate the truth).
  uint64_t EstimateGraph(uint64_t graph_fingerprint) const;
  uint64_t EstimateTenant(const std::string& tenant) const;

  // Current heavy-hitter graphs, hottest first. limit == 0 -> all slots.
  std::vector<HotGraph> TopGraphs(size_t limit = 0) const;

  uint64_t Observations() const {
    return observations_.load(std::memory_order_relaxed);
  }
  size_t SketchWidth() const { return cm_.width(); }
  size_t SketchDepth() const { return cm_.depth(); }
  size_t TopKCapacity() const { return topk_.k(); }

  // Sketch keys for the marginals (exposed so tests can cross-check the
  // tracker against raw sketches fed the same key stream).
  static uint64_t TenantKey(const std::string& tenant);
  static uint64_t GraphKey(uint64_t graph_fingerprint);

 private:
  CountMinSketch cm_;
  TopK topk_;
  std::atomic<uint64_t> observations_{0};
};

}  // namespace slfe
