#include "slfe/sketch/topk.h"

#include <algorithm>

namespace slfe {
namespace {

// Min-heap order with a deterministic key tie-break.
bool HeapLess(const HeavyHitter& a, const HeavyHitter& b) {
  if (a.estimate != b.estimate) return a.estimate < b.estimate;
  return a.key < b.key;
}

}  // namespace

TopK::TopK(size_t k) : k_(k == 0 ? 1 : k) {
  heap_.reserve(k_);
  index_.reserve(k_ * 2);
}

void TopK::Offer(uint64_t key, uint64_t estimate) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    size_t slot = it->second;
    uint64_t old = heap_[slot].estimate;
    heap_[slot].estimate = estimate;
    if (estimate > old) {
      SiftDownLocked(slot);
    } else if (estimate < old) {
      SiftUpLocked(slot);
    }
    return;
  }
  if (heap_.size() < k_) {
    heap_.push_back(HeavyHitter{key, estimate});
    index_[key] = heap_.size() - 1;
    SiftUpLocked(heap_.size() - 1);
    return;
  }
  if (!HeapLess(heap_[0], HeavyHitter{key, estimate})) return;
  index_.erase(heap_[0].key);
  heap_[0] = HeavyHitter{key, estimate};
  index_[key] = 0;
  SiftDownLocked(0);
}

std::vector<HeavyHitter> TopK::Items(size_t limit) const {
  std::vector<HeavyHitter> items;
  {
    std::lock_guard<std::mutex> lock(mu_);
    items = heap_;
  }
  std::sort(items.begin(), items.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              return a.key < b.key;
            });
  if (limit != 0 && items.size() > limit) items.resize(limit);
  return items;
}

size_t TopK::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return heap_.size();
}

void TopK::SwapLocked(size_t a, size_t b) {
  std::swap(heap_[a], heap_[b]);
  index_[heap_[a].key] = a;
  index_[heap_[b].key] = b;
}

void TopK::SiftUpLocked(size_t slot) {
  while (slot > 0) {
    size_t parent = (slot - 1) / 2;
    if (!HeapLess(heap_[slot], heap_[parent])) break;
    SwapLocked(slot, parent);
    slot = parent;
  }
}

void TopK::SiftDownLocked(size_t slot) {
  const size_t n = heap_.size();
  for (;;) {
    size_t smallest = slot;
    size_t left = 2 * slot + 1;
    size_t right = 2 * slot + 2;
    if (left < n && HeapLess(heap_[left], heap_[smallest])) smallest = left;
    if (right < n && HeapLess(heap_[right], heap_[smallest])) smallest = right;
    if (smallest == slot) return;
    SwapLocked(slot, smallest);
    slot = smallest;
  }
}

}  // namespace slfe
