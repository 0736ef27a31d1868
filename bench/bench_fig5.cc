// Reproduces paper Fig. 5: SLFE's runtime improvement over Gemini on the
// 8-node cluster for the five applications across the seven graphs.
// "Gemini" is our engine with redundancy reduction disabled (the paper's
// own framing: SLFE = Gemini-style runtime + RR). The paper reports
// 34.2/43.1/42.7/47.5/41.6 % average improvement for SSSP/CC/WP/PR/TR;
// our scaled graphs are shallower, so expect the same sign and ordering
// with smaller magnitudes.
//
// Runs through the api::Session facade — the bench declares WHICH apps
// and knobs per row; dispatch belongs to the AppRegistry.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace slfe {
namespace {

constexpr int kNodes = 8;
// PR/TR run to (near) convergence: "finish early" pays off in the long
// tail where most vertices are already stable (paper Fig. 9e/9f run
// 150-250 iterations).
constexpr uint32_t kArithIters = 150;

constexpr bench::BenchApp kApps[] = {
    {"sssp"}, {"cc"}, {"wp"},
    {"pr", kArithIters, 0.0}, {"tr", kArithIters, 0.0},
};

double RuntimeOf(const bench::BenchApp& app, const std::string& alias,
                 bool rr) {
  return bench::RunApp(bench::SessionFor(kNodes),
                       bench::MakeRequest(app, alias, rr))
      .info.stats.RuntimeSeconds();
}

void Run() {
  bench::PrintHeader("Fig. 5: SLFE runtime improvement over Gemini (8N)");
  // GRID is an extra deep-diameter workload (not in the paper's suite):
  // the scaled-down RMAT graphs are too shallow to show min/max
  // redundancy, so this column demonstrates the "start late" win in the
  // regime the full-size datasets occupy.
  std::vector<std::string> graphs = bench::PaperGraphs();
  graphs.push_back("GRID");
  std::printf("%-8s", "app");
  for (const std::string& alias : graphs) {
    std::printf(" %-8s", alias.c_str());
  }
  std::printf(" %-8s\n", "average");
  bench::PrintRule();
  for (const bench::BenchApp& app : kApps) {
    std::printf("%-8s", app.name);
    double sum = 0;
    int count = 0;
    for (const std::string& alias : graphs) {
      // Median of 3 runs to damp scheduling noise.
      std::vector<double> gem(3), slfe(3);
      for (int i = 0; i < 3; ++i) {
        gem[i] = RuntimeOf(app, alias, false);
        slfe[i] = RuntimeOf(app, alias, true);
      }
      double gem_med = bench::Median(gem);
      double slfe_med = bench::Median(slfe);
      double improvement = 100.0 * (gem_med - slfe_med) / gem_med;
      std::printf(" %-8.1f", improvement);
      sum += improvement;
      ++count;
    }
    std::printf(" %-8.1f\n", sum / count);
  }
  std::printf("(values are %% runtime improvement; paper averages: SSSP 34.2, "
              "CC 43.1, WP 42.7, PR 47.5, TR 41.6)\n");
}

}  // namespace
}  // namespace slfe

int main() {
  slfe::Run();
  return 0;
}
