// Unit tests for the simulated cluster runtime: barriers, collectives,
// and the cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "slfe/sim/cluster.h"
#include "slfe/sim/comm.h"

namespace slfe::sim {
namespace {

TEST(CostModelTest, LatencyAndBandwidthTerms) {
  CostModel model;
  model.latency_per_message = 1e-6;
  model.bytes_per_second = 1e9;
  // 1000 messages of 1e6 bytes total: 1ms latency + 1ms transfer.
  EXPECT_DOUBLE_EQ(model.Cost(1000, 1000000), 1e-3 + 1e-3);
  EXPECT_DOUBLE_EQ(model.Cost(0, 0), 0.0);
}

TEST(ClusterTest, RunInvokesEveryRankOnce) {
  Cluster cluster(4);
  std::atomic<uint64_t> mask{0};
  cluster.Run([&](NodeContext& ctx) {
    EXPECT_EQ(ctx.num_nodes, 4);
    mask.fetch_or(1ull << ctx.rank);
  });
  EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(ClusterTest, BarrierSynchronizesPhases) {
  // Every rank increments a counter, barriers, then checks that all
  // increments are visible — repeated across many phases to catch
  // sense-reversal bugs.
  constexpr int kRanks = 4;
  constexpr int kPhases = 50;
  Cluster cluster(kRanks);
  std::atomic<int> counter{0};
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    for (int phase = 1; phase <= kPhases; ++phase) {
      counter.fetch_add(1);
      ctx.world->Barrier();
      if (counter.load() < phase * kRanks) failures.fetch_add(1);
      ctx.world->Barrier();
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, AllReduceSumAcrossRanks) {
  Cluster cluster(5);
  std::vector<uint64_t> results(5);
  cluster.Run([&](NodeContext& ctx) {
    results[ctx.rank] =
        ctx.world->AllReduceSum(ctx.rank, static_cast<uint64_t>(ctx.rank + 1));
  });
  for (uint64_t r : results) EXPECT_EQ(r, 15u);  // 1+2+3+4+5
}

TEST(ClusterTest, AllReduceSumRepeatedUsesCleanScratch) {
  Cluster cluster(3);
  std::atomic<int> failures{0};
  cluster.Run([&](NodeContext& ctx) {
    for (int round = 0; round < 20; ++round) {
      uint64_t sum = ctx.world->AllReduceSum(ctx.rank, 1);
      if (sum != 3) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(ClusterTest, AllReduceMaxAndMin) {
  Cluster cluster(4);
  std::vector<double> maxes(4), mins(4);
  cluster.Run([&](NodeContext& ctx) {
    double mine = static_cast<double>(ctx.rank * 10);
    maxes[ctx.rank] = ctx.world->AllReduce(
        ctx.rank, mine, [](double a, double b) { return std::max(a, b); });
    mins[ctx.rank] = ctx.world->AllReduce(
        ctx.rank, mine, [](double a, double b) { return std::min(a, b); });
  });
  for (double m : maxes) EXPECT_DOUBLE_EQ(m, 30.0);
  for (double m : mins) EXPECT_DOUBLE_EQ(m, 0.0);
}

// Rank `rank`'s contribution to round `round`. The magnitudes span many
// binades, so the rounding of a double sum depends on the order it is
// folded in: only the rank-order fold matches the expectation.
double RoundValue(int round, int rank) {
  return std::ldexp(1.0 + 0.1 * rank + 1e-3 * round,
                    (round * 7 + rank * 13) % 61 - 30);
}

TEST(ClusterTest, CollectivesFoldInRankOrderBackToBack) {
  // Back-to-back collectives with no barrier between them: the fast rank
  // of round k writes its next slot while slower ranks may still fold
  // round k, so a single slot set would hand them the wrong values.
  constexpr int kRounds = 1000;
  for (int ranks : {2, 3, 8}) {
    Cluster cluster(ranks);
    std::atomic<int> failures{0};
    cluster.Run([&](NodeContext& ctx) {
      for (int round = 0; round < kRounds; ++round) {
        double want_sum = RoundValue(round, 0);
        double want_max = want_sum;
        uint64_t want_u64 = 0;
        for (int r = 0; r < ranks; ++r) {
          if (r > 0) want_sum += RoundValue(round, r);
          want_max = std::max(want_max, RoundValue(round, r));
          want_u64 += static_cast<uint64_t>(round) * 1000003u + r;
        }
        double mine = RoundValue(round, ctx.rank);
        // Rotate the call order so each kind follows each other kind.
        for (int i = 0; i < 3; ++i) {
          switch ((round + i) % 3) {
            case 0: {
              double sum = ctx.world->AllReduce(
                  ctx.rank, mine, [](double a, double b) { return a + b; });
              if (std::bit_cast<uint64_t>(sum) !=
                  std::bit_cast<uint64_t>(want_sum)) {
                failures.fetch_add(1);
              }
              break;
            }
            case 1: {
              double max = ctx.world->AllReduce(
                  ctx.rank, mine,
                  [](double a, double b) { return std::max(a, b); });
              if (max != want_max) failures.fetch_add(1);
              break;
            }
            default: {
              uint64_t sum = ctx.world->AllReduceSum(
                  ctx.rank, static_cast<uint64_t>(round) * 1000003u +
                                static_cast<uint64_t>(ctx.rank));
              if (sum != want_u64) failures.fetch_add(1);
              break;
            }
          }
        }
      }
    });
    EXPECT_EQ(failures.load(), 0) << "ranks=" << ranks;
  }
}

TEST(ClusterTest, PerNodePoolsAreIndependent) {
  Cluster cluster(2, /*threads_per_node=*/3);
  std::atomic<int> total{0};
  cluster.Run([&](NodeContext& ctx) {
    ctx.pool->ParallelRun([&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 6);
}

TEST(ClusterTest, SequentialRunsReuseWorld) {
  Cluster cluster(3);
  for (int i = 0; i < 3; ++i) {
    std::atomic<int> count{0};
    cluster.Run([&](NodeContext& ctx) {
      ctx.world->Barrier();
      count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 3);
  }
}

}  // namespace
}  // namespace slfe::sim
