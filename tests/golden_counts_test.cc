// Pins the work counts of the four start-late apps at 1 node x 1 thread,
// where a run is sequential and every count repeats exactly. How the
// engine seeds, walks its active sets and reduces across ranks is
// bookkeeping: changing it must not move any number here. A change that
// means to move one re-records its row from the failure message, which
// prints the row as it now reads.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "slfe/apps/bfs.h"
#include "slfe/apps/cc.h"
#include "slfe/apps/sssp.h"
#include "slfe/apps/wp.h"
#include "slfe/core/guidance_provider.h"
#include "slfe/graph/generators.h"

namespace slfe {
namespace {

struct Golden {
  const char* app;    // sssp | bfs | wp | cc
  const char* graph;  // Rmat | Grid
  bool rr;
  uint64_t supersteps;
  uint64_t computations;
  uint64_t updates;
  uint64_t skipped;
  uint64_t safety_sweep_updates;
  std::vector<uint64_t> per_iter_computations;
};

// The RMAT and weighted 24x24 grid shapes of rr_runners_test. cc runs on
// the RMAT's symmetric closure, as Session runs it (the grid is symmetric).
Graph MakeGraph(const std::string& graph, const std::string& app) {
  if (graph == "Grid") {
    return Graph::FromEdges(GenerateGrid(24, 24, true, 8, 128.0f));
  }
  RmatOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 8000;
  opt.weighted = true;
  opt.max_weight = 256.0f;
  opt.seed = 31;
  EdgeList edges = GenerateRmat(opt);
  if (app == "cc") edges.Symmetrize();
  edges.Deduplicate();
  return Graph::FromEdges(edges);
}

AppRunInfo RunApp(const Golden& row) {
  Graph g = MakeGraph(row.graph, row.app);
  GuidanceProviderOptions provider_options;
  provider_options.generation_threads = 1;
  GuidanceProvider provider(provider_options);
  AppConfig config;  // 1 node x 1 thread, root 0
  config.enable_rr = row.rr;
  config.guidance_provider = &provider;
  const std::string app = row.app;
  if (app == "sssp") return RunSssp(g, config).info;
  if (app == "bfs") return RunBfs(g, config).info;
  if (app == "wp") return RunWp(g, config).info;
  return RunCc(g, config).info;
}

std::string RowLiteral(const Golden& row, const AppRunInfo& got) {
  std::ostringstream out;
  out << "{\"" << row.app << "\", \"" << row.graph << "\", "
      << (row.rr ? "true" : "false") << ", " << got.supersteps << ", "
      << got.stats.computations << ", " << got.stats.updates << ", "
      << got.stats.skipped << ", " << got.safety_sweep_updates << ",\n {";
  const auto& series = got.stats.per_iter_computations;
  for (size_t i = 0; i < series.size(); ++i) {
    out << (i == 0 ? "" : ", ") << series[i];
  }
  out << "}},";
  return out.str();
}

// Recorded at 1 node x 1 thread, guidance generated serially.
const std::vector<Golden>& Table() {
  static const std::vector<Golden> table = {
      {"sssp", "Rmat", false, 7, 10817, 1043, 0, 0,
       {222, 4459, 4538, 1341, 203, 44, 10}},
      {"sssp", "Rmat", true, 10, 12213, 1226, 14435, 0,
       {222, 607, 4069, 3982, 1648, 1242, 363, 71, 9, 0}},
      {"sssp", "Grid", false, 49, 4140, 1268, 0, 0,
       {2, 6, 10, 14, 18, 22, 29, 33, 41, 49, 59, 60, 60, 72, 76, 88, 91, 107,
        115, 131, 134, 146, 165, 175, 184, 181, 187, 184, 182, 161, 149, 136,
        134, 129, 110, 109, 97, 85, 64, 59, 56, 45, 45, 41, 36, 28, 20, 9, 6}},
      {"sssp", "Grid", true, 52, 4998, 1204, 9328, 0,
       {2, 6, 10, 14, 18, 22, 29, 33, 41, 49, 59, 60, 60, 72, 76, 88, 91, 107,
        648, 61, 51, 60, 72, 96, 104, 593, 435, 237, 184, 162, 162, 147, 142,
        142, 98, 92, 75, 79, 66, 62, 57, 56, 53, 42, 45, 41, 36, 28, 20, 9, 6,
        392}},
      {"bfs", "Rmat", false, 4, 6415, 695, 0, 0,
       {222, 4459, 1678, 56}},
      {"bfs", "Rmat", true, 7, 7687, 695, 14435, 0,
       {222, 607, 4061, 2674, 114, 9, 0}},
      {"bfs", "Grid", false, 47, 2208, 575, 0, 0,
       {2, 6, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46, 50, 54, 58, 62, 66, 70,
        74, 78, 82, 86, 90, 92, 90, 86, 82, 78, 74, 70, 66, 62, 58, 54, 50, 46,
        42, 38, 34, 30, 26, 22, 18, 14, 10, 6, 2}},
      {"bfs", "Grid", true, 48, 2208, 575, 0, 0,
       {2, 6, 10, 14, 18, 22, 26, 30, 34, 38, 42, 46, 50, 54, 58, 62, 66, 70,
        74, 78, 82, 86, 90, 92, 90, 86, 82, 78, 74, 70, 66, 62, 58, 54, 50, 46,
        42, 38, 34, 30, 26, 22, 18, 14, 10, 6, 2, 2208}},
      {"wp", "Rmat", false, 18, 20355, 1491, 0, 0,
       {222, 4459, 5813, 4113, 2638, 1379, 506, 491, 303, 69, 53, 67, 23, 26,
        20, 42, 111, 20}},
      {"wp", "Rmat", true, 23, 24210, 1859, 14435, 0,
       {222, 607, 4067, 4486, 3982, 2934, 2373, 2243, 1251, 554, 495, 451, 144,
        39, 53, 67, 23, 26, 20, 42, 111, 20, 0}},
      {"wp", "Grid", false, 76, 9064, 2437, 0, 0,
       {2, 6, 10, 14, 21, 28, 40, 44, 48, 55, 67, 87, 95, 102, 117, 140, 152,
        168, 184, 191, 202, 206, 222, 248, 272, 290, 302, 291, 305, 332, 318,
        303, 281, 293, 285, 305, 299, 276, 248, 235, 195, 167, 144, 117, 118,
        120, 100, 77, 62, 74, 83, 81, 78, 73, 45, 39, 51, 59, 34, 26, 22, 29,
        11, 8, 8, 16, 19, 23, 24, 7, 10, 12, 16, 16, 12, 4}},
      {"wp", "Grid", true, 79, 8689, 2035, 17774, 0,
       {2, 6, 10, 14, 21, 28, 40, 44, 48, 55, 67, 87, 95, 102, 392, 103, 70,
        93, 104, 100, 415, 227, 174, 171, 192, 216, 249, 254, 264, 270, 255,
        267, 264, 272, 267, 264, 266, 247, 240, 228, 193, 162, 134, 123, 108,
        133, 137, 110, 94, 68, 72, 86, 83, 77, 78, 76, 57, 52, 46, 49, 34, 31,
        14, 14, 4, 4, 8, 16, 19, 23, 24, 7, 10, 12, 16, 16, 12, 4, 0}},
      {"cc", "Rmat", false, 4, 23505, 795, 0, 0,
       {11916, 11534, 54, 1}},
      {"cc", "Rmat", true, 7, 23887, 795, 23832, 757,
       {8, 8, 11908, 11908, 54, 1, 0}},
      {"cc", "Grid", false, 2, 4414, 575, 0, 0,
       {2208, 2206}},
      {"cc", "Grid", true, 4, 2216, 575, 4416, 575,
       {0, 2208, 8, 2200}},
  };
  return table;
}

void PrintTo(const Golden& row, std::ostream* os) {
  *os << row.app << " on " << row.graph << (row.rr ? " with RR" : "");
}

class GoldenCountsTest : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenCountsTest, RepeatsTheRecordedCounts) {
  const Golden& want = GetParam();
  AppRunInfo got = RunApp(want);
  EXPECT_EQ(got.supersteps, want.supersteps);
  EXPECT_EQ(got.stats.computations, want.computations);
  EXPECT_EQ(got.stats.updates, want.updates);
  EXPECT_EQ(got.stats.skipped, want.skipped);
  EXPECT_EQ(got.safety_sweep_updates, want.safety_sweep_updates);
  EXPECT_EQ(got.stats.per_iter_computations, want.per_iter_computations);
  if (HasFailure()) {
    ADD_FAILURE() << "row now reads:\n" << RowLiteral(want, got);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StartLateApps, GoldenCountsTest, ::testing::ValuesIn(Table()),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(info.param.app) + "_" + info.param.graph +
             (info.param.rr ? "_rr" : "_baseline");
    });

}  // namespace
}  // namespace slfe
