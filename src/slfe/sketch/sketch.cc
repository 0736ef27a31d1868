#include "slfe/sketch/sketch.h"

#include <algorithm>
#include <cmath>

namespace slfe {
namespace {

// Deterministic seed stream so differential tests are reproducible;
// rows still hash independently because splitmix64 decorrelates
// consecutive seeds.
uint64_t RowSeed(uint64_t salt, size_t row) {
  return SketchMix64(salt + 0x5851f42d4c957f2dull * (row + 1));
}

}  // namespace

size_t SketchOptions::ResolveWidth() const {
  if (width > 0) return width;
  const double e = 2.718281828459045;
  double w = std::ceil(e / (epsilon > 0 ? epsilon : 1.0 / 1024.0));
  return static_cast<size_t>(std::max(8.0, w));
}

size_t SketchOptions::ResolveDepth() const {
  if (depth > 0) return depth;
  double d = std::ceil(std::log(1.0 / (delta > 0 ? delta : 0.01)));
  return static_cast<size_t>(std::min(16.0, std::max(2.0, d)));
}

CountMinSketch::CountMinSketch(const SketchOptions& options)
    : width_(options.ResolveWidth()),
      depth_(std::min<size_t>(16, options.ResolveDepth())),
      seeds_(depth_),
      cells_(width_ * depth_) {
  for (size_t row = 0; row < depth_; ++row) {
    seeds_[row] = RowSeed(0x436f756e744d696eull, row);  // "CountMin"
  }
}

uint64_t CountMinSketch::Update(uint64_t key, uint64_t count) {
  if (count == 0) return Estimate(key);
  // Serialize same-key updates so the conservative read-modify-write is
  // atomic per key; other keys proceed on other stripes and can only
  // raise our cells (which the CAS-max below tolerates).
  std::lock_guard<std::mutex> lock(stripes_[SketchMix64(key) % kStripes]);
  uint64_t est = UINT64_MAX;
  size_t idx[/*depth upper bound*/ 16];
  for (size_t row = 0; row < depth_; ++row) {
    idx[row] = CellIndex(row, key);
    est = std::min(est, cells_[idx[row]].load(std::memory_order_relaxed));
  }
  const uint64_t target = est + count;
  for (size_t row = 0; row < depth_; ++row) {
    std::atomic<uint64_t>& cell = cells_[idx[row]];
    uint64_t cur = cell.load(std::memory_order_relaxed);
    // CAS-max: only raise cells below the new estimate — the
    // conservative update — and never lower a concurrently-raised one.
    while (cur < target &&
           !cell.compare_exchange_weak(cur, target,
                                       std::memory_order_relaxed)) {
    }
  }
  total_.fetch_add(count, std::memory_order_relaxed);
  return target;
}

uint64_t CountMinSketch::Estimate(uint64_t key) const {
  uint64_t est = UINT64_MAX;
  for (size_t row = 0; row < depth_; ++row) {
    est = std::min(est,
                   cells_[CellIndex(row, key)].load(std::memory_order_relaxed));
  }
  return est;
}

}  // namespace slfe
