#ifndef SLFE_COMMON_BITMAP_H_
#define SLFE_COMMON_BITMAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "slfe/common/logging.h"

namespace slfe {

/// Fixed-size bitmap with atomic set/reset, used for vertex active sets.
/// Concurrent `SetBit`/`TestBit` are safe; `Resize`/`Clear`/`Fill` must not
/// race with readers.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t size) { Resize(size); }

  Bitmap(const Bitmap& other) { CopyFrom(other); }
  Bitmap& operator=(const Bitmap& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }

  /// Number of addressable bits.
  size_t size() const { return size_; }

  /// Resizes to `size` bits, clearing all of them.
  void Resize(size_t size) {
    size_ = size;
    words_.assign(WordCount(size), Word{0});
  }

  /// Clears all bits.
  void Clear() {
    for (auto& w : words_) w.v.store(0, std::memory_order_relaxed);
  }

  /// Sets all bits in [0, size).
  void Fill() {
    size_t full_words = size_ / 64;
    for (size_t i = 0; i < full_words; ++i)
      words_[i].v.store(~uint64_t{0}, std::memory_order_relaxed);
    size_t rem = size_ % 64;
    if (rem != 0) {
      words_[full_words].v.store((uint64_t{1} << rem) - 1,
                                 std::memory_order_relaxed);
    }
  }

  bool TestBit(size_t i) const {
    SLFE_CHECK_LT(i, size_);
    return (words_[i / 64].v.load(std::memory_order_relaxed) >>
            (i % 64)) & 1;
  }

  /// Atomically sets bit i. Returns true iff this call changed it 0 -> 1.
  bool SetBit(size_t i) {
    SLFE_CHECK_LT(i, size_);
    uint64_t mask = uint64_t{1} << (i % 64);
    uint64_t old =
        words_[i / 64].v.fetch_or(mask, std::memory_order_relaxed);
    return (old & mask) == 0;
  }

  /// Atomically clears bit i. Returns true iff this call changed it 1 -> 0.
  bool ResetBit(size_t i) {
    SLFE_CHECK_LT(i, size_);
    uint64_t mask = uint64_t{1} << (i % 64);
    uint64_t old =
        words_[i / 64].v.fetch_and(~mask, std::memory_order_relaxed);
    return (old & mask) != 0;
  }

  /// Population count over the whole bitmap.
  size_t CountOnes() const { return CountOnesIn(0, size_); }

  /// Population count over bits [begin, end), a 64-bit word at a time.
  size_t CountOnesIn(size_t begin, size_t end) const {
    size_t n = 0;
    if (begin >= end) return n;
    SLFE_CHECK_LE(end, size_);
    for (size_t wi = begin / 64; wi <= (end - 1) / 64; ++wi) {
      n += static_cast<size_t>(__builtin_popcountll(WordIn(wi, begin, end)));
    }
    return n;
  }

  /// Invokes fn(i) for every set bit i, in ascending order.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    ForEachSetBitIn(0, size_, fn);
  }

  /// Invokes fn(i) for every set bit i in [begin, end), in ascending order.
  /// Reads a 64-bit word at a time, so a sparse range costs its word count
  /// plus its set bits, not one test per bit.
  template <typename Fn>
  void ForEachSetBitIn(size_t begin, size_t end, Fn&& fn) const {
    if (begin >= end) return;
    SLFE_CHECK_LE(end, size_);
    for (size_t wi = begin / 64; wi <= (end - 1) / 64; ++wi) {
      uint64_t w = WordIn(wi, begin, end);
      while (w != 0) {
        fn(wi * 64 + static_cast<size_t>(__builtin_ctzll(w)));
        w &= w - 1;
      }
    }
  }

 private:
  // std::atomic<uint64_t> is neither copyable nor movable; wrapping it lets
  // us keep the words in a std::vector.
  struct Word {
    Word() = default;
    explicit Word(uint64_t init) : v(init) {}
    Word(const Word& o) : v(o.v.load(std::memory_order_relaxed)) {}
    Word& operator=(const Word& o) {
      v.store(o.v.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
      return *this;
    }
    std::atomic<uint64_t> v{0};
  };

  static size_t WordCount(size_t bits) { return (bits + 63) / 64; }

  // Word wi with the bits outside [begin, end) cleared (begin < end).
  uint64_t WordIn(size_t wi, size_t begin, size_t end) const {
    uint64_t w = words_[wi].v.load(std::memory_order_relaxed);
    if (wi == begin / 64) w &= ~uint64_t{0} << (begin % 64);
    if (wi == (end - 1) / 64 && end % 64 != 0) {
      w &= (uint64_t{1} << (end % 64)) - 1;
    }
    return w;
  }

  void CopyFrom(const Bitmap& other) {
    size_ = other.size_;
    words_ = other.words_;
  }

  size_t size_ = 0;
  std::vector<Word> words_;
};

}  // namespace slfe

#endif  // SLFE_COMMON_BITMAP_H_
