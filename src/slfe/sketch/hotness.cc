#include "slfe/sketch/hotness.h"

#include "slfe/common/fnv.h"

namespace slfe {
namespace {

// Marginal salts keep the two key families disjoint in the shared sketch
// even when a tenant string happens to hash like a graph fingerprint.
constexpr uint64_t kTenantSalt = 0x54656e616e744b79ull;  // "TenantKy"
constexpr uint64_t kGraphSalt = 0x47726170684b6579ull;   // "GraphKey"

}  // namespace

HotnessTracker::HotnessTracker(const HotnessOptions& options)
    : cm_(options.sketch), topk_(options.topk) {}

uint64_t HotnessTracker::TenantKey(const std::string& tenant) {
  return SketchMix64(Fnv1aBytes(tenant.data(), tenant.size(), kFnvBasis) ^
                     kTenantSalt);
}

uint64_t HotnessTracker::GraphKey(uint64_t graph_fingerprint) {
  return SketchMix64(graph_fingerprint ^ kGraphSalt);
}

HotnessTracker::RecordResult HotnessTracker::Record(
    const std::string& tenant, uint64_t graph_fingerprint) {
  RecordResult result;
  const uint64_t tenant_key = TenantKey(tenant);
  result.first_tenant = cm_.Estimate(tenant_key) == 0;
  cm_.Update(tenant_key);
  if (graph_fingerprint != 0) {
    result.graph_estimate = cm_.Update(GraphKey(graph_fingerprint));
    topk_.Offer(graph_fingerprint, result.graph_estimate);
  }
  observations_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

uint64_t HotnessTracker::EstimateGraph(uint64_t graph_fingerprint) const {
  return cm_.Estimate(GraphKey(graph_fingerprint));
}

uint64_t HotnessTracker::EstimateTenant(const std::string& tenant) const {
  return cm_.Estimate(TenantKey(tenant));
}

std::vector<HotGraph> HotnessTracker::TopGraphs(size_t limit) const {
  std::vector<HotGraph> out;
  for (const HeavyHitter& hh : topk_.Items(limit)) {
    out.push_back(HotGraph{hh.key, hh.estimate});
  }
  return out;
}

}  // namespace slfe
