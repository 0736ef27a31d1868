// Reproduces paper Fig. 6: intra-node scalability of SLFE (1..68 cores in
// the paper; a thread sweep here) running CC and PageRank on the FS and LJ
// graphs, compared against Ligra (shared-memory edgeMap engine) and
// GraphChi (out-of-core sharded engine). A thread sweep on one host is
// bounded by its core count, so alongside wall time we report each
// configuration's per-thread work spread, which is what determines the
// scaling shape.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "slfe/apps/cc.h"
#include "slfe/apps/pr.h"
#include "slfe/ooc/ooc_engine.h"
#include "slfe/shm/shm_engine.h"

namespace slfe {
namespace {

constexpr uint32_t kPrIters = 10;

void SweepThreads(const char* app, const char* alias) {
  bool symmetric = std::string(app) == "CC";
  const Graph& g = bench::LoadGraph(alias, symmetric);
  std::printf("\n[%s-%s] SLFE thread sweep\n", app, alias);
  std::printf("%-9s %-12s %-14s %-16s\n", "threads", "runtime(s)",
              "computations", "chunk spread max/min");
  bench::PrintRule();
  for (int threads : {1, 2, 4, 8}) {
    AppConfig cfg = bench::ClusterConfig(1, /*enable_rr=*/true);
    cfg.threads_per_node = threads;
    EngineStats stats;
    if (symmetric) {
      stats = RunCc(g, cfg).info.stats;
    } else {
      cfg.max_iters = kPrIters;
      cfg.epsilon = 0.0;
      stats = RunPr(g, cfg).info.stats;
    }
    uint64_t max_chunks = 0, min_chunks = UINT64_MAX;
    for (uint64_t c : stats.per_thread_chunks) {
      max_chunks = std::max(max_chunks, c);
      min_chunks = std::min(min_chunks, c);
    }
    std::printf("%-9d %-12.4f %-14llu %llu/%llu\n", threads,
                stats.RuntimeSeconds(),
                static_cast<unsigned long long>(stats.computations),
                static_cast<unsigned long long>(max_chunks),
                static_cast<unsigned long long>(min_chunks));
  }
}

void Baselines(const char* alias) {
  const Graph& g = bench::LoadGraph(alias, /*symmetric=*/true);
  const Graph& gd = bench::LoadGraph(alias, /*symmetric=*/false);
  std::printf("\n[baselines on %s]\n", alias);

  std::vector<uint32_t> labels;
  shm::ShmStats ligra_cc = shm::ShmCc(g, 2, &labels);
  std::vector<float> ranks;
  shm::ShmStats ligra_pr = shm::ShmPr(gd, kPrIters, 2, &ranks);
  std::printf("Ligra-style  : CC %.4fs  PR %.4fs\n", ligra_cc.seconds,
              ligra_pr.seconds);

  std::string dir = "/tmp/slfe_fig6_" + std::string(alias);
  auto engine = ooc::OocEngine::Build(g, dir, 8).value();
  std::vector<uint32_t> ooc_labels;
  ooc::OocStats chi_cc = ooc::OocCc(engine, &ooc_labels);
  auto engine_d = ooc::OocEngine::Build(gd, dir + "_d", 8).value();
  std::vector<float> ooc_ranks;
  ooc::OocStats chi_pr = ooc::OocPr(engine_d, gd, kPrIters, &ooc_ranks);
  std::printf(
      "GraphChi-like: CC %.4fs (io %.4fs)  PR %.4fs (io %.4fs)\n",
      chi_cc.RuntimeSeconds(), chi_cc.io_seconds, chi_pr.RuntimeSeconds(),
      chi_pr.io_seconds);
  engine.RemoveFiles();
  engine_d.RemoveFiles();

  AppConfig cfg = bench::ClusterConfig(1, /*enable_rr=*/true);
  double slfe_cc = RunCc(g, cfg).info.stats.RuntimeSeconds();
  cfg.max_iters = kPrIters;
  cfg.epsilon = 0.0;
  double slfe_pr = RunPr(gd, cfg).info.stats.RuntimeSeconds();
  std::printf("SLFE         : CC %.4fs  PR %.4fs\n", slfe_cc, slfe_pr);
  std::printf("  (paper: SLFE up to 9.3x over Ligra, up to 508x over "
              "GraphChi)\n");
}

void Run() {
  bench::PrintHeader("Fig. 6: intra-node scalability and single-node baselines");
  SweepThreads("CC", "FS");
  SweepThreads("CC", "LJ");
  SweepThreads("PR", "FS");
  SweepThreads("PR", "LJ");
  Baselines("FS");
  Baselines("LJ");
}

}  // namespace
}  // namespace slfe

int main() {
  slfe::Run();
  return 0;
}
