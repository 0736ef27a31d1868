// Unit tests for the common substrate: Status/Result, Bitmap, Random,
// ThreadPool, and the work-stealing scheduler.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "slfe/common/bitmap.h"
#include "slfe/common/counters.h"
#include "slfe/common/random.h"
#include "slfe/common/status.h"
#include "slfe/common/thread_pool.h"
#include "slfe/common/timer.h"
#include "slfe/common/work_stealing.h"

namespace slfe {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IOError: disk on fire");
}

TEST(StatusTest, AllFactoryFunctionsSetDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("x").code(), Status::NotFound("x").code(),
      Status::IOError("x").code(),         Status::OutOfRange("x").code(),
      Status::Corruption("x").code(),      Status::Unimplemented("x").code(),
      Status::Internal("x").code(),        Status::FailedPrecondition("x").code(),
  };
  EXPECT_EQ(codes.size(), 8u);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnMacro(int x) {
  SLFE_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnMacro(1).ok());
  EXPECT_EQ(UsesReturnMacro(-1).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Bitmap

TEST(BitmapTest, StartsCleared) {
  Bitmap b(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.CountOnes(), 0u);
  for (size_t i = 0; i < 200; ++i) EXPECT_FALSE(b.TestBit(i));
}

TEST(BitmapTest, SetAndTest) {
  Bitmap b(130);
  EXPECT_TRUE(b.SetBit(0));
  EXPECT_TRUE(b.SetBit(63));
  EXPECT_TRUE(b.SetBit(64));
  EXPECT_TRUE(b.SetBit(129));
  EXPECT_FALSE(b.SetBit(129));  // second set reports no change
  EXPECT_EQ(b.CountOnes(), 4u);
  EXPECT_TRUE(b.TestBit(63));
  EXPECT_TRUE(b.TestBit(64));
  EXPECT_FALSE(b.TestBit(1));
}

TEST(BitmapTest, ResetBit) {
  Bitmap b(100);
  b.SetBit(42);
  EXPECT_TRUE(b.ResetBit(42));
  EXPECT_FALSE(b.ResetBit(42));
  EXPECT_FALSE(b.TestBit(42));
}

TEST(BitmapTest, FillRespectsSize) {
  for (size_t size : {1u, 63u, 64u, 65u, 127u, 128u, 1000u}) {
    Bitmap b(size);
    b.Fill();
    EXPECT_EQ(b.CountOnes(), size) << "size=" << size;
  }
}

TEST(BitmapTest, ForEachSetBitVisitsAscending) {
  Bitmap b(300);
  std::vector<size_t> want = {0, 5, 63, 64, 128, 299};
  for (size_t i : want) b.SetBit(i);
  std::vector<size_t> got;
  b.ForEachSetBit([&](size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
}

TEST(BitmapTest, RangeWalksAgreeWithTestBit) {
  // Both range ends on and beside word boundaries and the bitmap's end,
  // empty and inverted ranges included, over sparse, dense and full maps.
  Random rng(17);
  for (size_t size : {1u, 63u, 64u, 65u, 130u, 1000u}) {
    for (double density : {0.1, 0.5, 1.0}) {
      Bitmap b(size);
      for (size_t i = 0; i < size; ++i) {
        if (rng.Bernoulli(density)) b.SetBit(i);
      }
      const std::vector<size_t> ends = {0,   1,   63,       64,  65,
                                        127, 128, size - 1, size};
      for (size_t begin : ends) {
        for (size_t end : ends) {
          if (begin > size || end > size) continue;
          std::vector<size_t> want;
          for (size_t i = begin; i < end; ++i) {
            if (b.TestBit(i)) want.push_back(i);
          }
          std::vector<size_t> got;
          b.ForEachSetBitIn(begin, end, [&](size_t i) { got.push_back(i); });
          EXPECT_EQ(got, want) << "size=" << size << " density=" << density
                               << " [" << begin << ", " << end << ")";
          EXPECT_EQ(b.CountOnesIn(begin, end), want.size())
              << "size=" << size << " density=" << density << " [" << begin
              << ", " << end << ")";
        }
      }
    }
  }
}

TEST(BitmapTest, ConcurrentSetsAreLossless) {
  constexpr size_t kBits = 1 << 14;
  Bitmap b(kBits);
  ThreadPool pool(4);
  pool.ParallelRun([&](size_t w) {
    for (size_t i = w; i < kBits; i += 4) b.SetBit(i);
  });
  EXPECT_EQ(b.CountOnes(), kBits);
}

TEST(BitmapTest, CopyIsDeep) {
  Bitmap a(64);
  a.SetBit(7);
  Bitmap b = a;
  b.SetBit(8);
  EXPECT_TRUE(a.TestBit(7));
  EXPECT_FALSE(a.TestBit(8));
  EXPECT_TRUE(b.TestBit(8));
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformInBounds) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliRoughlyUnbiased) {
  Random rng(77);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int count = 0;
  pool.ParallelRun([&](size_t w) {
    EXPECT_EQ(w, 0u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPoolTest, AllWorkersInvoked) {
  ThreadPool pool(4);
  std::atomic<uint64_t> mask{0};
  pool.ParallelRun([&](size_t w) { mask.fetch_or(1ull << w); });
  EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(ThreadPoolTest, RepeatedJobsWork) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int i = 0; i < 50; ++i) {
    pool.ParallelRun([&](size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(5, 5, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

// -------------------------------------------------- WorkStealingScheduler

class WorkStealingParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, bool>> {};

TEST_P(WorkStealingParamTest, EveryElementProcessedExactlyOnce) {
  auto [threads, elements, stealing] = GetParam();
  ThreadPool pool(threads);
  WorkStealingScheduler scheduler(stealing);
  std::vector<std::atomic<int>> hits(elements);
  auto chunks = scheduler.Run(pool, 0, elements,
                              [&](size_t, size_t lo, size_t hi) {
                                for (size_t i = lo; i < hi; ++i) {
                                  hits[i].fetch_add(1);
                                }
                              });
  for (size_t i = 0; i < elements; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "element " << i;
  }
  uint64_t total_chunks = 0;
  for (uint64_t c : chunks) total_chunks += c;
  EXPECT_EQ(total_chunks,
            (elements + WorkStealingScheduler::kMiniChunk - 1) /
                WorkStealingScheduler::kMiniChunk);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WorkStealingParamTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(0, 1, 255, 256, 257, 10000),
                       ::testing::Bool()));

TEST(WorkStealingTest, MiniChunkKnobChangesGranularityNotCoverage) {
  // The tunable granularity (ROADMAP multicore-crossover knob) must change
  // only how work is chopped, never what gets processed.
  ThreadPool pool(3);
  for (size_t mini : {size_t{1}, size_t{7}, size_t{256}, size_t{1024}}) {
    WorkStealingScheduler scheduler(true, mini);
    EXPECT_EQ(scheduler.mini_chunk(), mini);
    constexpr size_t kElements = 1000;
    std::vector<std::atomic<int>> hits(kElements);
    auto chunks = scheduler.Run(pool, 0, kElements,
                                [&](size_t, size_t lo, size_t hi) {
                                  for (size_t i = lo; i < hi; ++i) {
                                    hits[i].fetch_add(1);
                                  }
                                });
    for (size_t i = 0; i < kElements; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "mini=" << mini << " element " << i;
    }
    uint64_t total = 0;
    for (uint64_t c : chunks) total += c;
    EXPECT_EQ(total, (kElements + mini - 1) / mini) << "mini=" << mini;
  }
}

TEST(WorkStealingTest, MiniChunkZeroFallsBackToDefault) {
  WorkStealingScheduler scheduler(true, 0);
  EXPECT_EQ(scheduler.mini_chunk(), WorkStealingScheduler::kMiniChunk);
  scheduler.set_mini_chunk(32);
  EXPECT_EQ(scheduler.mini_chunk(), 32u);
  scheduler.set_mini_chunk(0);
  EXPECT_EQ(scheduler.mini_chunk(), WorkStealingScheduler::kMiniChunk);
}

TEST(WorkStealingTest, RunBandsHonorsMiniChunk) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(true, 16);
  std::vector<size_t> sizes = {40, 0, 17, 300};
  std::vector<std::vector<std::atomic<int>>> hits;
  for (size_t s : sizes) hits.emplace_back(s);
  auto chunks = scheduler.RunBands(
      pool, sizes, [&](size_t, size_t band, size_t lo, size_t hi) {
        EXPECT_LE(hi - lo, 16u);
        for (size_t i = lo; i < hi; ++i) hits[band][i].fetch_add(1);
      });
  uint64_t total = 0;
  for (uint64_t c : chunks) total += c;
  uint64_t want_chunks = 0;
  for (size_t b = 0; b < sizes.size(); ++b) {
    want_chunks += (sizes[b] + 15) / 16;
    for (size_t i = 0; i < sizes[b]; ++i) {
      ASSERT_EQ(hits[b][i].load(), 1) << "band " << b << " item " << i;
    }
  }
  EXPECT_EQ(total, want_chunks);
}

TEST(WorkStealingTest, StealingRebalancesSkewedWork) {
  // Worker 0's band gets all the heavy chunks; with stealing enabled the
  // other workers should take over some of them.
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(true);
  auto chunks = scheduler.Run(pool, 0, 4096, [&](size_t w, size_t lo, size_t) {
    if (w == 0 && lo < 1024) {
      // Simulated heavy chunk: burn some cycles.
      volatile uint64_t x = 0;
      for (int i = 0; i < 200000; ++i) x = x + i;
    }
  });
  uint64_t total = 0;
  for (uint64_t c : chunks) total += c;
  EXPECT_EQ(total, 16u);  // 4096 / 256
}

// ---------------------------------------------------------------- Timer

TEST(TimerTest, AccumTimerSumsIntervals) {
  AccumTimer t;
  t.Start();
  t.Stop();
  double first = t.Seconds();
  t.Start();
  t.Stop();
  EXPECT_GE(t.Seconds(), first);
  t.Reset();
  EXPECT_EQ(t.Seconds(), 0.0);
}

TEST(CountersTest, WorkMetricsResetClearsAll) {
  WorkMetrics m;
  m.computations.Add(5);
  m.updates.Add(2);
  m.bytes.Add(100);
  m.Reset();
  EXPECT_EQ(m.computations.Get(), 0u);
  EXPECT_EQ(m.updates.Get(), 0u);
  EXPECT_EQ(m.bytes.Get(), 0u);
}

TEST(CountersTest, IterationTraceAccumulates) {
  IterationTrace trace;
  trace.Record(10);
  trace.Record(20);
  EXPECT_EQ(trace.Total(), 30u);
  EXPECT_EQ(trace.series().size(), 2u);
  trace.Clear();
  EXPECT_EQ(trace.Total(), 0u);
}

}  // namespace
}  // namespace slfe
