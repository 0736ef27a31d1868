// Differential tests for the sketch subsystem: every estimator is run
// against an exact hash-map counter over the same stream, on three
// stream shapes — zipf (the service's expected skew), uniform (worst
// case for top-k), and adversarial (one elephant behind a wall of
// singletons) — and the (epsilon, delta) contract is checked literally:
// count-min never underestimates, overshoot beyond epsilon*N happens on
// at most a delta fraction of keys, top-k recall on skewed streams stays
// >= 0.9, and a multi-threaded hammer preserves the never-underestimate
// invariant.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "slfe/sketch/hotness.h"
#include "slfe/sketch/sketch.h"
#include "slfe/sketch/topk.h"

namespace slfe {
namespace {

// Zipf-ish sampler over [0, num_keys): weight of rank r is 1/(r+1)^s.
// discrete_distribution + a fixed mt19937 seed keeps every run identical.
std::vector<uint64_t> ZipfStream(size_t num_keys, size_t n, double s,
                                 uint32_t seed) {
  std::vector<double> weights(num_keys);
  for (size_t r = 0; r < num_keys; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  std::discrete_distribution<size_t> dist(weights.begin(), weights.end());
  std::mt19937 rng(seed);
  std::vector<uint64_t> stream(n);
  for (size_t i = 0; i < n; ++i) {
    // Spread ranks over the key space so key value and rank are unrelated.
    stream[i] = SketchMix64(dist(rng));
  }
  return stream;
}

std::vector<uint64_t> UniformStream(size_t num_keys, size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> dist(0, num_keys - 1);
  std::vector<uint64_t> stream(n);
  for (size_t i = 0; i < n; ++i) stream[i] = SketchMix64(dist(rng));
  return stream;
}

// One elephant carrying half the stream, the rest all-distinct
// singletons: maximum table pollution per unit of elephant weight.
std::vector<uint64_t> AdversarialStream(size_t n) {
  std::vector<uint64_t> stream;
  stream.reserve(n);
  const uint64_t elephant = SketchMix64(0xe1e9);
  for (size_t i = 0; i < n; ++i) {
    stream.push_back(i % 2 == 0 ? elephant : SketchMix64(0x51000000 + i));
  }
  return stream;
}

std::unordered_map<uint64_t, uint64_t> ExactCounts(
    const std::vector<uint64_t>& stream) {
  std::unordered_map<uint64_t, uint64_t> exact;
  for (uint64_t key : stream) ++exact[key];
  return exact;
}

// The differential check shared by every stream shape: feed sketch and
// exact map the same stream, then demand (a) estimate >= exact for every
// key — the conservative-update invariant, deterministic, no slack — and
// (b) overshoot > epsilon*N on at most a delta fraction of keys.
void CheckCountMinContract(const std::vector<uint64_t>& stream,
                           const SketchOptions& options) {
  CountMinSketch sketch(options);
  auto exact = ExactCounts(stream);
  for (uint64_t key : stream) sketch.Update(key);

  const uint64_t n = sketch.TotalWeight();
  ASSERT_EQ(n, stream.size());
  const double bound = options.epsilon * static_cast<double>(n);
  size_t violations = 0;
  for (const auto& [key, count] : exact) {
    uint64_t est = sketch.Estimate(key);
    ASSERT_GE(est, count) << "count-min underestimated key " << key;
    if (static_cast<double>(est - count) > bound) ++violations;
  }
  EXPECT_LE(static_cast<double>(violations),
            options.delta * static_cast<double>(exact.size()))
      << violations << " of " << exact.size() << " keys overshot epsilon*N="
      << bound;
}

TEST(SketchOptions, SizesFromEpsilonDelta) {
  SketchOptions opt;
  opt.epsilon = 0.001;
  opt.delta = 0.01;
  // width = ceil(e / epsilon), depth = ceil(ln(1 / delta)).
  EXPECT_EQ(opt.ResolveWidth(), static_cast<size_t>(std::ceil(M_E / 0.001)));
  EXPECT_EQ(opt.ResolveDepth(), static_cast<size_t>(std::ceil(std::log(100.0))));

  SketchOptions explicit_opt;
  explicit_opt.width = 77;
  explicit_opt.depth = 3;
  EXPECT_EQ(explicit_opt.ResolveWidth(), 77u);
  EXPECT_EQ(explicit_opt.ResolveDepth(), 3u);

  SketchOptions tiny;
  tiny.delta = 1e-30;  // would be depth 70; clamped inside the sketches
  CountMinSketch sketch(tiny);
  EXPECT_LE(sketch.depth(), 16u);
  EXPECT_GE(sketch.depth(), 2u);
  EXPECT_EQ(sketch.MemoryBytes(), sketch.width() * sketch.depth() * 8);
}

TEST(CountMinDifferential, ZipfStream) {
  CheckCountMinContract(ZipfStream(5000, 100000, 1.1, 20180808),
                        SketchOptions());
}

TEST(CountMinDifferential, UniformStream) {
  CheckCountMinContract(UniformStream(5000, 100000, 20180809),
                        SketchOptions());
}

TEST(CountMinDifferential, AdversarialStream) {
  // 50k singletons try to pollute the table under a 50k-count elephant.
  std::vector<uint64_t> stream = AdversarialStream(100000);
  CheckCountMinContract(stream, SketchOptions());

  // The elephant itself must sit essentially exact: conservative update
  // never raises a cell past the running row minimum + count, so
  // singleton collisions barely move it.
  CountMinSketch sketch;
  for (uint64_t key : stream) sketch.Update(key);
  const uint64_t elephant = SketchMix64(0xe1e9);
  uint64_t est = sketch.Estimate(elephant);
  EXPECT_GE(est, 50000u);
  EXPECT_LE(est, 50000u + static_cast<uint64_t>(
                              SketchOptions().epsilon * 100000.0));
}

TEST(CountMinDifferential, TinySketchStillNeverUnderestimates) {
  // Deliberately undersized (64 cells for 5000 keys): estimates are
  // garbage-high, but the one-sided invariant must survive saturation.
  SketchOptions opt;
  opt.width = 16;
  opt.depth = 4;
  std::vector<uint64_t> stream = ZipfStream(5000, 20000, 1.1, 7);
  CountMinSketch sketch(opt);
  auto exact = ExactCounts(stream);
  for (uint64_t key : stream) sketch.Update(key);
  for (const auto& [key, count] : exact) {
    EXPECT_GE(sketch.Estimate(key), count);
  }
}

TEST(CountMin, UpdateReturnsPostUpdateEstimate) {
  CountMinSketch sketch;
  EXPECT_EQ(sketch.Update(42, 3), 3u);
  EXPECT_EQ(sketch.Update(42, 2), 5u);
  EXPECT_EQ(sketch.Estimate(42), 5u);
  EXPECT_EQ(sketch.TotalWeight(), 5u);
}

TEST(TopK, TracksUpdatesInPlaceAndEvictsMin) {
  TopK topk(3);
  topk.Offer(1, 10);
  topk.Offer(2, 20);
  topk.Offer(3, 30);
  topk.Offer(4, 5);  // loses to the current min (10) -> rejected
  std::vector<HeavyHitter> items = topk.Items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].key, 3u);
  EXPECT_EQ(items[2].key, 1u);

  topk.Offer(1, 40);  // tracked: raised in place, now the max
  topk.Offer(4, 25);  // now beats the min (20) -> evicts key 2
  items = topk.Items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].key, 1u);
  EXPECT_EQ(items[0].estimate, 40u);
  EXPECT_EQ(items[1].key, 3u);
  EXPECT_EQ(items[2].key, 4u);

  // Racing updates can deliver a tracked key's estimates out of order, so
  // a lower offer must sift the key down, not just up.
  topk.Offer(1, 1);
  items = topk.Items();
  EXPECT_EQ(items.back().key, 1u);
  EXPECT_EQ(items.back().estimate, 1u);
}

TEST(TopKDifferential, ZipfRecallAtLeastNinetyPercent) {
  const size_t kTrueTop = 20;
  std::vector<uint64_t> stream = ZipfStream(2000, 100000, 1.2, 20180811);
  auto exact = ExactCounts(stream);

  // The tracker's exact feeding pattern: every update offers the fresh
  // count-min estimate to the heap.
  CountMinSketch sketch;
  TopK topk(32);
  for (uint64_t key : stream) topk.Offer(key, sketch.Update(key));

  std::vector<std::pair<uint64_t, uint64_t>> ranked(exact.begin(),
                                                    exact.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<HeavyHitter> tracked = topk.Items();
  size_t hits = 0;
  for (size_t r = 0; r < kTrueTop; ++r) {
    for (const HeavyHitter& h : tracked) {
      if (h.key == ranked[r].first) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(kTrueTop), 0.9)
      << "recall " << hits << "/" << kTrueTop;
}

TEST(CountMinConcurrency, HammerPreservesNeverUnderestimate) {
  // 8 threads x 64 keys x 500 updates of weight (key_index + 1): every
  // per-key exact total is known, and the striped-lock + CAS-max design
  // must never let a racing pair of updates lose an increment.
  const size_t kThreads = 8;
  const size_t kKeys = 64;
  const size_t kRounds = 500;
  CountMinSketch sketch;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sketch] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < kKeys; ++k) {
          sketch.Update(SketchMix64(k), k + 1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  uint64_t n = sketch.TotalWeight();
  EXPECT_EQ(n, kThreads * kRounds * (kKeys * (kKeys + 1) / 2));
  const double bound = SketchOptions().epsilon * static_cast<double>(n);
  for (size_t k = 0; k < kKeys; ++k) {
    uint64_t exact = kThreads * kRounds * (k + 1);
    uint64_t est = sketch.Estimate(SketchMix64(k));
    EXPECT_GE(est, exact) << "key index " << k;
    EXPECT_LE(static_cast<double>(est - exact), bound) << "key index " << k;
  }
}

TEST(HotnessTracker, MarginalsMatchRawSketchFedSameKeys) {
  HotnessTracker tracker;
  CountMinSketch mirror;
  auto record = [&](const std::string& tenant, uint64_t fp) {
    tracker.Record(tenant, fp);
    mirror.Update(HotnessTracker::TenantKey(tenant));
    if (fp != 0) mirror.Update(HotnessTracker::GraphKey(fp));
  };
  for (int i = 0; i < 5; ++i) record("acme", 0x1111);
  for (int i = 0; i < 3; ++i) record("globex", 0x2222);
  record("acme", 0);  // unresolved graph: no graph marginal

  EXPECT_EQ(tracker.Observations(), 9u);
  EXPECT_EQ(tracker.EstimateTenant("acme"),
            mirror.Estimate(HotnessTracker::TenantKey("acme")));
  EXPECT_EQ(tracker.EstimateGraph(0x1111),
            mirror.Estimate(HotnessTracker::GraphKey(0x1111)));
  EXPECT_GE(tracker.EstimateTenant("acme"), 6u);
  EXPECT_GE(tracker.EstimateGraph(0x2222), 3u);
  EXPECT_EQ(tracker.EstimateTenant("initech"), 0u);

  std::vector<HotGraph> top = tracker.TopGraphs();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].fingerprint, 0x1111u);
  EXPECT_GE(top[0].estimate, 5u);
  EXPECT_EQ(top[1].fingerprint, 0x2222u);
}

TEST(HotnessTracker, FirstTenantDetectsGenuinelyNewTenants) {
  HotnessTracker tracker;
  EXPECT_TRUE(tracker.Record("acme", 1).first_tenant);
  EXPECT_FALSE(tracker.Record("acme", 1).first_tenant);
  EXPECT_TRUE(tracker.Record("globex", 1).first_tenant);
  EXPECT_FALSE(tracker.Record("globex", 2).first_tenant);
}

TEST(HotnessTracker, GeometryKnobsAreHonored) {
  HotnessOptions opt;
  opt.sketch.width = 128;
  opt.sketch.depth = 3;
  opt.topk = 2;
  HotnessTracker tracker(opt);
  EXPECT_EQ(tracker.SketchWidth(), 128u);
  EXPECT_EQ(tracker.SketchDepth(), 3u);
  EXPECT_EQ(tracker.TopKCapacity(), 2u);
  tracker.Record("t", 1);
  tracker.Record("t", 2);
  tracker.Record("t", 2);
  tracker.Record("t", 3);
  tracker.Record("t", 3);
  tracker.Record("t", 3);
  std::vector<HotGraph> top = tracker.TopGraphs();
  ASSERT_EQ(top.size(), 2u);  // capacity 2: fingerprint 1 evicted
  EXPECT_EQ(top[0].fingerprint, 3u);
  EXPECT_EQ(top[1].fingerprint, 2u);
}

}  // namespace
}  // namespace slfe
