// Reproduces paper Table 2: updates per vertex of SSSP in PowerLyra and
// Gemini across the seven graphs. The paper reports 9.1 (PowerLyra) and
// 7.5 (Gemini) on average; the ideal with no redundancy is 1. Our scaled
// synthetic graphs are shallower than the full datasets, so the absolute
// values are lower — the comparison that matters is "well above 1, and
// GAS above the dual-mode engine".

#include <cstdio>

#include "bench/bench_util.h"
#include "slfe/apps/sssp.h"
#include "slfe/gas/gas_apps.h"

namespace slfe {
namespace {

void Run() {
  bench::PrintHeader(
      "Table 2: updates per vertex of SSSP (PowerLyra-style GAS vs Gemini)");
  std::printf("%-10s %-12s %-12s %-12s\n", "graph", "PowerLyra", "Gemini",
              "SLFE(w/ RR)");
  bench::PrintRule();
  double sum_pl = 0, sum_gem = 0, sum_slfe = 0;
  int count = 0;
  for (const std::string& alias : bench::PaperGraphs()) {
    const Graph& g = bench::LoadGraph(alias);

    gas::GasOptions pl;
    pl.num_nodes = 8;
    pl.placement = gas::Placement::kHybridCut;
    auto r_pl = gas::RunGasSssp(g, 0, pl);

    AppConfig gemini = bench::ClusterConfig(8, /*enable_rr=*/false);
    auto r_gem = RunSssp(g, gemini);

    AppConfig slfe = bench::ClusterConfig(8, /*enable_rr=*/true);
    auto r_slfe = RunSssp(g, slfe);

    double n = static_cast<double>(g.num_vertices());
    double upv_pl = static_cast<double>(r_pl.stats.updates) / n;
    double upv_gem = static_cast<double>(r_gem.info.stats.updates) / n;
    double upv_slfe = static_cast<double>(r_slfe.info.stats.updates) / n;
    std::printf("%-10s %-12.2f %-12.2f %-12.2f\n", alias.c_str(), upv_pl,
                upv_gem, upv_slfe);
    sum_pl += upv_pl;
    sum_gem += upv_gem;
    sum_slfe += upv_slfe;
    ++count;
  }
  bench::PrintRule();
  std::printf("%-10s %-12.2f %-12.2f %-12.2f   (paper: 9.1 / 7.5 / ~1)\n",
              "avg", sum_pl / count, sum_gem / count, sum_slfe / count);
}

}  // namespace
}  // namespace slfe

int main() {
  slfe::Run();
  return 0;
}
