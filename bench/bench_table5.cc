// Reproduces paper Table 5: 8-node runtime of PowerGraph, PowerLyra, and
// SLFE for five applications across the seven graphs, with SLFE's speedup
// per cell and the geometric mean at the end. PR and TR report
// per-iteration runtime, as in the paper. Runtime = compute wall time plus
// simulated network time (the cost model in sim/comm.h).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "slfe/apps/cc.h"
#include "slfe/apps/pr.h"
#include "slfe/apps/sssp.h"
#include "slfe/apps/tr.h"
#include "slfe/apps/wp.h"
#include "slfe/gas/gas_apps.h"

namespace slfe {
namespace {

constexpr int kNodes = 8;
constexpr uint32_t kArithIters = 10;  // fixed supersteps for PR/TR cells

struct Cell {
  double powerg = 0;
  double powerl = 0;
  double slfe = 0;
};

gas::GasOptions GasConfig(gas::Placement placement) {
  gas::GasOptions opt;
  opt.num_nodes = kNodes;
  opt.placement = placement;
  return opt;
}

Cell RunSsspCell(const Graph& g) {
  Cell c;
  c.powerg = gas::RunGasSssp(g, 0, GasConfig(gas::Placement::kRandomVertexCut))
                 .stats.RuntimeSeconds();
  c.powerl = gas::RunGasSssp(g, 0, GasConfig(gas::Placement::kHybridCut))
                 .stats.RuntimeSeconds();
  c.slfe = RunSssp(g, bench::ClusterConfig(kNodes, true))
               .info.stats.RuntimeSeconds();
  return c;
}

Cell RunCcCell(const Graph& g) {
  Cell c;
  c.powerg = gas::RunGasCc(g, GasConfig(gas::Placement::kRandomVertexCut))
                 .stats.RuntimeSeconds();
  c.powerl = gas::RunGasCc(g, GasConfig(gas::Placement::kHybridCut))
                 .stats.RuntimeSeconds();
  c.slfe =
      RunCc(g, bench::ClusterConfig(kNodes, true)).info.stats.RuntimeSeconds();
  return c;
}

Cell RunWpCell(const Graph& g) {
  Cell c;
  c.powerg = gas::RunGasWp(g, 0, GasConfig(gas::Placement::kRandomVertexCut))
                 .stats.RuntimeSeconds();
  c.powerl = gas::RunGasWp(g, 0, GasConfig(gas::Placement::kHybridCut))
                 .stats.RuntimeSeconds();
  c.slfe =
      RunWp(g, bench::ClusterConfig(kNodes, true)).info.stats.RuntimeSeconds();
  return c;
}

Cell RunPrCell(const Graph& g) {
  Cell c;
  auto pg = gas::RunGasPr(g, kArithIters,
                          GasConfig(gas::Placement::kRandomVertexCut));
  auto pl =
      gas::RunGasPr(g, kArithIters, GasConfig(gas::Placement::kHybridCut));
  AppConfig cfg = bench::ClusterConfig(kNodes, true);
  cfg.max_iters = kArithIters;
  cfg.epsilon = 0.0;
  auto sl = RunPr(g, cfg);
  c.powerg = pg.stats.RuntimeSeconds() / kArithIters;
  c.powerl = pl.stats.RuntimeSeconds() / kArithIters;
  c.slfe = sl.info.stats.RuntimeSeconds() / kArithIters;
  return c;
}

Cell RunTrCell(const Graph& g) {
  Cell c;
  auto pg = gas::RunGasTr(g, kArithIters,
                          GasConfig(gas::Placement::kRandomVertexCut));
  auto pl =
      gas::RunGasTr(g, kArithIters, GasConfig(gas::Placement::kHybridCut));
  AppConfig cfg = bench::ClusterConfig(kNodes, true);
  cfg.max_iters = kArithIters;
  cfg.epsilon = 0.0;
  auto sl = RunTr(g, cfg);
  c.powerg = pg.stats.RuntimeSeconds() / kArithIters;
  c.powerl = pl.stats.RuntimeSeconds() / kArithIters;
  c.slfe = sl.info.stats.RuntimeSeconds() / kArithIters;
  return c;
}

void Run() {
  bench::PrintHeader(
      "Table 5: 8-node runtime (s), PowerGraph vs PowerLyra vs SLFE");
  struct AppSpec {
    const char* name;
    bool symmetric;
    Cell (*run)(const Graph&);
  };
  std::vector<AppSpec> apps = {
      {"SSSP", false, RunSsspCell}, {"CC", true, RunCcCell},
      {"WP", false, RunWpCell},     {"PR", false, RunPrCell},
      {"TR", false, RunTrCell},
  };
  double log_speedup_sum = 0;
  int cells = 0;
  for (const AppSpec& app : apps) {
    std::printf("\n[%s]%s\n", app.name,
                (std::string(app.name) == "PR" || std::string(app.name) == "TR")
                    ? " (per-iteration runtime)"
                    : "");
    std::printf("%-8s %-12s %-12s %-12s %-10s\n", "graph", "PowerG",
                "PowerL", "SLFE", "speedup");
    bench::PrintRule();
    for (const std::string& alias : bench::PaperGraphs()) {
      const Graph& g = bench::LoadGraph(alias, app.symmetric);
      Cell c = app.run(g);
      double best_baseline = std::min(c.powerg, c.powerl);
      double speedup = c.slfe > 0 ? best_baseline / c.slfe : 0;
      std::printf("%-8s %-12.4f %-12.4f %-12.4f %-10.1fx\n", alias.c_str(),
                  c.powerg, c.powerl, c.slfe, speedup);
      if (speedup > 0) {
        log_speedup_sum += std::log(speedup);
        ++cells;
      }
    }
  }
  bench::PrintRule();
  std::printf("GEOMEAN speedup over best GAS baseline: %.1fx  (paper: 25.4x "
              "over PowerG/PowerL)\n",
              std::exp(log_speedup_sum / cells));
}

}  // namespace
}  // namespace slfe

int main() {
  slfe::Run();
  return 0;
}
