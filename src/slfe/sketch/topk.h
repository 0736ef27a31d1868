#pragma once

// Hashheap-backed top-k heavy-hitter tracker.
//
// A bounded min-heap ordered by estimate, paired with a hash index from
// key to heap slot so membership checks and in-place estimate updates
// are O(1)/O(log k) instead of a heap rebuild. Fed with (key, estimate)
// pairs from the count-min sketch after each update; keys that never
// beat the current k-th estimate are rejected at the root in O(1).
//
// Guarded by one mutex: k is small (tens), operations are O(log k), and
// the caller (HotnessTracker) already paid a striped lock per update —
// this is not the hot path's contention point.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace slfe {

struct HeavyHitter {
  uint64_t key = 0;
  uint64_t estimate = 0;
};

class TopK {
 public:
  explicit TopK(size_t k);

  TopK(const TopK&) = delete;
  TopK& operator=(const TopK&) = delete;

  // Record that `key` now has `estimate` weight. Tracked keys are
  // updated in place (up, or down when racing updates deliver a stale
  // estimate last); untracked keys enter when the heap has room or they
  // beat the current minimum.
  void Offer(uint64_t key, uint64_t estimate);

  // Heavy hitters sorted by descending estimate (key breaks ties so
  // renders are deterministic). `limit == 0` means all tracked.
  std::vector<HeavyHitter> Items(size_t limit = 0) const;

  size_t k() const { return k_; }
  size_t Size() const;

 private:
  // Heap maintenance; `slot` re-settles and the index follows the moves.
  void SiftUpLocked(size_t slot);
  void SiftDownLocked(size_t slot);
  void SwapLocked(size_t a, size_t b);

  const size_t k_;
  mutable std::mutex mu_;
  std::vector<HeavyHitter> heap_;                // min-heap by estimate
  std::unordered_map<uint64_t, size_t> index_;   // key -> heap slot
};

}  // namespace slfe
