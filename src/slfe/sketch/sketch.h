#pragma once

// Frequency sketch for the request-stream telemetry plane.
//
// CountMinSketch over 64-bit keys, sized from an (epsilon, delta)
// accuracy contract — width = ceil(e / epsilon) columns, depth =
// ceil(ln(1 / delta)) rows — or from explicit dimensions when the
// caller wants exact control. Point estimates are biased high with the
// classic guarantee  estimate <= exact + epsilon * N  at confidence
// 1 - delta (N = total stream weight). Updates are *conservative*: only
// the cells that currently hold the row minimum are raised, so
// collisions inflate estimates far less than the textbook update.
//
// Concurrency: cells are std::atomic and estimates are wait-free reads.
// Conservative update needs a read-modify-write over a whole row set,
// so same-key updates serialize on one of kStripes key-hashed mutexes;
// cross-key updates that collide in a cell only ever *raise* it
// (CAS-max), preserving the never-underestimate invariant of count-min
// under full concurrency.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace slfe {

// splitmix64 finalizer: cheap, well-distributed 64->64 mixing used to
// derive per-row hash functions from a shared seed.
inline uint64_t SketchMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct SketchOptions {
  // Explicit dimensions win when non-zero; otherwise the sketch is
  // sized from the (epsilon, delta) contract below. Depth is clamped
  // to 16 rows (ln(1/delta) = 16 is delta ~ 1e-7 — already absurd).
  size_t width = 0;
  size_t depth = 0;
  // Additive error bound as a fraction of the stream total (count-min:
  // estimate - exact <= epsilon * N with probability >= 1 - delta).
  double epsilon = 1.0 / 1024.0;
  double delta = 0.01;

  size_t ResolveWidth() const;
  size_t ResolveDepth() const;
};

class CountMinSketch {
 public:
  explicit CountMinSketch(const SketchOptions& options = SketchOptions());

  CountMinSketch(const CountMinSketch&) = delete;
  CountMinSketch& operator=(const CountMinSketch&) = delete;

  // Conservative update: raises only the cells below the new estimate.
  // Returns the post-update estimate for `key`.
  uint64_t Update(uint64_t key, uint64_t count = 1);

  // Wait-free; never underestimates the true count.
  uint64_t Estimate(uint64_t key) const;

  // Total stream weight N ingested since construction.
  uint64_t TotalWeight() const { return total_.load(std::memory_order_relaxed); }

  size_t width() const { return width_; }
  size_t depth() const { return depth_; }
  // Bytes of counter storage — the O(1)-memory claim made concrete.
  size_t MemoryBytes() const { return cells_.size() * sizeof(cells_[0]); }

 private:
  size_t CellIndex(size_t row, uint64_t key) const {
    return row * width_ + SketchMix64(key ^ seeds_[row]) % width_;
  }

  static constexpr size_t kStripes = 64;

  size_t width_;
  size_t depth_;
  std::vector<uint64_t> seeds_;
  std::vector<std::atomic<uint64_t>> cells_;
  std::atomic<uint64_t> total_{0};
  std::array<std::mutex, kStripes> stripes_;
};

}  // namespace slfe
