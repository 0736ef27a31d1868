// Ablation bench for SLFE's design choices:
//   1. dense/sparse switch threshold (Gemini's |E|/20 vs alternatives);
//   2. chunk partitioner alpha (edge weight in the balance metric);
//   3. guidance generation (serial sweep vs partitioned sweep at several
//      worker counts vs cached retrieval).
// Each section prints its cost figures side by side.

#include <cstdio>

#include "bench/bench_util.h"
#include "slfe/apps/sssp.h"
#include "slfe/common/thread_pool.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/graph/partitioner.h"

namespace slfe {
namespace {

void ThresholdAblation() {
  std::printf("\n[1] dense/sparse switch threshold (SSSP w/ RR, 8N, FS)\n");
  std::printf("%-12s %-12s %-14s %-12s\n", "threshold", "supersteps",
              "computations", "runtime(s)");
  bench::PrintRule();
  const Graph& g = bench::LoadGraph("FS");
  for (double fraction : {0.01, 0.05, 0.2, 1.0}) {
    AppConfig cfg = bench::ClusterConfig(8, true);
    cfg.dense_fraction = fraction;
    SsspResult r = RunSssp(g, cfg);
    std::printf("|E|*%-7.2f %-12llu %-14llu %-12.4f\n", fraction,
                static_cast<unsigned long long>(r.info.supersteps),
                static_cast<unsigned long long>(r.info.stats.computations),
                r.info.stats.RuntimeSeconds());
  }
  std::printf("(1.0 = push-only in practice; Gemini's default is 0.05)\n");
}

void PartitionerAblation() {
  std::printf("\n[2] chunk partitioner alpha (edge weight in balance "
              "metric), FS, 8 parts\n");
  std::printf("%-8s %-18s\n", "alpha", "edge imbalance");
  bench::PrintRule();
  const Graph& g = bench::LoadGraph("FS");
  for (double alpha : {0.0, 0.5, 1.0, 4.0, 16.0}) {
    ChunkPartitioner::Options opt;
    opt.alpha = alpha;
    ChunkPartitioner partitioner(opt);
    auto ranges = partitioner.Partition(g, 8);
    std::printf("%-8.1f %-18.3f\n", alpha,
                ChunkPartitioner::EdgeImbalance(g, ranges));
  }
  std::printf("(alpha=0 balances vertices only; larger alpha balances "
              "edges, which drives pull-mode work)\n");
}

void GuidanceGenerationAblation() {
  std::printf("\n[3] guidance generation (single-source roots; "
              "bk = per-iteration bookkeeping share)\n");
  std::printf("%-8s %-22s %-14s %-14s %-12s\n", "graph", "sweep",
              "seconds", "bookkeeping", "vs serial");
  bench::PrintRule();
  for (const char* alias : {"LJ", "FS"}) {
    const Graph& g = bench::LoadGraph(alias);
    double serial =
        RRGuidance::GenerateSerial(g, {0}).generation_seconds();
    std::printf("%-8s %-22s %-14.6f %-14s %-12s\n", alias,
                "serial (reference)", serial, "-", "1.00x");
    for (size_t workers : {2u, 4u}) {
      ThreadPool pool(workers);
      RRGuidance part = RRGuidance::GeneratePartitioned(g, {0}, pool);
      std::printf("%-8s partitioned x%-9zu %-14.6f %-14.6f %.2fx\n", alias,
                  workers, part.generation_seconds(),
                  part.bookkeeping_seconds(),
                  part.generation_seconds() > 0
                      ? serial / part.generation_seconds()
                      : 0.0);
    }
    GuidanceProvider provider;
    provider.AcquireForRoots(g, {0});  // warm the cache
    double hit = provider.AcquireForRoots(g, {0}).acquire_seconds;
    std::printf("%-8s %-22s %-14.6f %-14s %.0fx\n", alias,
                "cached retrieval", hit, "-",
                hit > 0 ? serial / hit : 0.0);
  }
  std::printf("(partitioned slices by the DistGraph ranges and fuses the "
              "frontier-edge count into discovery; cached retrieval is the "
              "paper's multi-job amortization path, ~8.7 jobs/graph)\n");
}

void Run() {
  bench::PrintHeader("Ablations: mode threshold, partitioner, guidance");
  ThresholdAblation();
  PartitionerAblation();
  GuidanceGenerationAblation();
}

}  // namespace
}  // namespace slfe

int main() {
  slfe::Run();
  return 0;
}
