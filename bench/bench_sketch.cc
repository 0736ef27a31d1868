// bench_sketch — the sketch plane's cost/accuracy card: ingest throughput
// for the raw conservative-update count-min and for the full
// HotnessTracker::Record path (tenant + graph count-min marginals + top-k
// heap offer), then a differential accuracy pass against exact counts on a
// zipf stream — overshoot vs the epsilon*N contract, top-k recall vs the true
// heavy hitters — and the counter-storage footprint. Emits
// BENCH_sketch.json; exits non-zero if any accuracy gate fails, so a
// regressed hash mix or a broken conservative update can't land as a
// "perf-only" change.
//
//   bench_sketch                       # full run, ~2M updates
//   bench_sketch --smoke               # CI: ~200k updates, same gates
//   bench_sketch --json=PATH           # artifact path (default in cwd)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "slfe/sketch/hotness.h"
#include "slfe/sketch/sketch.h"
#include "slfe/sketch/topk.h"

namespace slfe {
namespace {

using Clock = std::chrono::steady_clock;

double NsPerOp(Clock::time_point start, Clock::time_point end, size_t ops) {
  return std::chrono::duration<double, std::nano>(end - start).count() /
         static_cast<double>(ops);
}

// Zipf-ish stream (weight 1/(rank+1)^s), fixed seed: every run measures
// the same byte-identical workload.
std::vector<uint64_t> ZipfStream(size_t num_keys, size_t n, double s) {
  std::vector<double> weights(num_keys);
  for (size_t r = 0; r < num_keys; ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  std::discrete_distribution<size_t> dist(weights.begin(), weights.end());
  std::mt19937 rng(20180808);
  std::vector<uint64_t> stream(n);
  for (size_t i = 0; i < n; ++i) stream[i] = SketchMix64(dist(rng));
  return stream;
}

}  // namespace

int Main(int argc, char** argv) {
  size_t n = 2'000'000;
  size_t num_keys = 20'000;
  std::string json_path = "BENCH_sketch.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      n = 200'000;
      num_keys = 5'000;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--n=", 4) == 0) {
      n = static_cast<size_t>(std::strtoull(argv[i] + 4, nullptr, 10));
    } else if (std::strncmp(argv[i], "--keys=", 7) == 0) {
      num_keys = static_cast<size_t>(std::strtoull(argv[i] + 7, nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: bench_sketch [--smoke] [--n=N] [--keys=K] "
                   "[--json=PATH]\n");
      return 2;
    }
  }

  bench::PrintHeader("sketch: count-min ingest + accuracy vs exact");
  std::vector<uint64_t> stream = ZipfStream(num_keys, n, 1.1);
  std::unordered_map<uint64_t, uint64_t> exact;
  exact.reserve(num_keys * 2);
  for (uint64_t key : stream) ++exact[key];

  // --- ingest: raw conservative-update count-min ---
  const SketchOptions options;  // the service's defaults
  CountMinSketch sketch(options);
  Clock::time_point t0 = Clock::now();
  for (uint64_t key : stream) sketch.Update(key);
  Clock::time_point t1 = Clock::now();
  const double cm_ns = NsPerOp(t0, t1, stream.size());

  // --- ingest: the full Record path the service pays per request ---
  HotnessTracker tracker;
  const std::string tenants[] = {"acme", "globex", "initech", "umbrella"};
  t0 = Clock::now();
  for (size_t i = 0; i < stream.size(); ++i) {
    tracker.Record(tenants[i & 3], stream[i]);
  }
  t1 = Clock::now();
  const double record_ns = NsPerOp(t0, t1, stream.size());

  // --- accuracy: the (epsilon, delta) contract, checked literally ---
  const double bound = options.epsilon * static_cast<double>(n);
  uint64_t max_overshoot = 0;
  double overshoot_sum = 0;
  size_t violations = 0;
  bool underestimated = false;
  for (const auto& [key, count] : exact) {
    uint64_t est = sketch.Estimate(key);
    if (est < count) underestimated = true;
    uint64_t over = est - count;
    max_overshoot = std::max(max_overshoot, over);
    overshoot_sum += static_cast<double>(over);
    if (static_cast<double>(over) > bound) ++violations;
  }
  const double mean_overshoot =
      overshoot_sum / static_cast<double>(exact.size());
  const double violation_rate =
      static_cast<double>(violations) / static_cast<double>(exact.size());

  // --- top-k recall: tracker's heap vs the exact top 20 ---
  const size_t kTrueTop = 20;
  std::vector<std::pair<uint64_t, uint64_t>> ranked(exact.begin(),
                                                    exact.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<HotGraph> top = tracker.TopGraphs();
  size_t recalled = 0;
  for (size_t r = 0; r < kTrueTop && r < ranked.size(); ++r) {
    for (const HotGraph& hit : top) {
      if (hit.fingerprint == ranked[r].first) {
        ++recalled;
        break;
      }
    }
  }
  const double recall =
      static_cast<double>(recalled) / static_cast<double>(kTrueTop);

  const bool ok = !underestimated && violation_rate <= options.delta &&
                  recall >= 0.9;

  bench::PrintRule();
  std::printf(
      "updates=%zu keys=%zu width=%zu depth=%zu mem=%zuB\n"
      "ingest: count-min %.1f ns/op, tracker record %.1f ns/op\n"
      "error:  mean overshoot %.2f, max %llu, >eps*N on %.4f%% of keys "
      "(gate %.2f%%)\n"
      "top-k:  recall %.0f%% of the true top %zu (gate 90%%)\n",
      stream.size(), exact.size(), sketch.width(), sketch.depth(),
      sketch.MemoryBytes(), cm_ns, record_ns, mean_overshoot,
      static_cast<unsigned long long>(max_overshoot), violation_rate * 100.0,
      options.delta * 100.0, recall * 100.0, kTrueTop);

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_sketch: cannot write %s\n", json_path.c_str());
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("bench", "sketch");
  json.Field("updates", static_cast<uint64_t>(stream.size()));
  json.Field("distinct_keys", static_cast<uint64_t>(exact.size()));
  json.Field("width", static_cast<uint64_t>(sketch.width()));
  json.Field("depth", static_cast<uint64_t>(sketch.depth()));
  json.Field("memory_bytes", static_cast<uint64_t>(sketch.MemoryBytes()));
  json.Field("epsilon", options.epsilon);
  json.Field("delta", options.delta);
  json.Field("countmin_update_ns", cm_ns);
  json.Field("tracker_record_ns", record_ns);
  json.Field("mean_overshoot", mean_overshoot);
  json.Field("max_overshoot", max_overshoot);
  json.Field("violation_rate", violation_rate);
  json.Field("never_underestimates", !underestimated);
  json.Field("topk_recall", recall);
  json.Field("ok", ok);
  json.EndObject();
  std::fputc('\n', out);
  std::fclose(out);

  std::printf("-> %s (%s)\n", json_path.c_str(), ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace slfe

int main(int argc, char** argv) { return slfe::Main(argc, argv); }
