// Reproduces paper Fig. 10: the effect of redundancy reduction on load
// balance.
//   (a) intra-node: runtime with and without work stealing (the paper
//       measures -21% runtime for arithmetic apps and -15% for min/max
//       apps with stealing on);
//   (b) inter-node: the spread between the earliest- and latest-finishing
//       node, with and without RR (the paper measures <7% without RR and
//       about +2% added by RR).
//
// Runs through the api::Session facade — per-app knobs live in a table;
// dispatch belongs to the AppRegistry.

#include <algorithm>
#include <cstdio>
#include <utility>

#include "bench/bench_util.h"

namespace slfe {
namespace {

constexpr bench::BenchApp kApps[] = {
    {"sssp"}, {"cc"}, {"wp"}, {"pr", 15, 0.0}, {"tr", 15, 0.0}};

EngineStats RunOne(const bench::BenchApp& app, api::Session& session,
                   bool rr, bool stealing) {
  api::AppRequest request = bench::MakeRequest(app, "FS", rr);
  request.enable_stealing = stealing;
  return bench::RunApp(session, request).info.stats;
}

void IntraNode() {
  std::printf("\n(a) intra-node: normalized runtime w/ stealing (baseline = "
              "w/o stealing), 1 node x 4 threads, FS graph\n");
  std::printf("%-8s %-16s %-16s %-14s %-22s\n", "app", "w/o steal(s)",
              "w/ steal(s)", "normalized", "chunk spread w/o->w/");
  bench::PrintRule();
  api::Session& session = bench::SessionFor(1, /*threads_per_node=*/4);
  for (const bench::BenchApp& app : kApps) {
    EngineStats off = RunOne(app, session, /*rr=*/true, /*stealing=*/false);
    EngineStats on = RunOne(app, session, /*rr=*/true, /*stealing=*/true);
    auto spread = [](const EngineStats& s) {
      uint64_t mx = 0, mn = UINT64_MAX;
      for (uint64_t c : s.per_thread_chunks) {
        mx = std::max(mx, c);
        mn = std::min(mn, c);
      }
      return std::pair<uint64_t, uint64_t>(mx, mn);
    };
    auto [mx0, mn0] = spread(off);
    auto [mx1, mn1] = spread(on);
    std::printf("%-8s %-16.4f %-16.4f %-14.3f %llu/%llu -> %llu/%llu\n",
                app.name, off.RuntimeSeconds(), on.RuntimeSeconds(),
                on.RuntimeSeconds() / off.RuntimeSeconds(),
                static_cast<unsigned long long>(mx0),
                static_cast<unsigned long long>(mn0),
                static_cast<unsigned long long>(mx1),
                static_cast<unsigned long long>(mn1));
  }
  std::printf("(paper: stealing removes ~21%% runtime for PR/TR, ~15%% for "
              "min/max apps; the chunk-spread column shows the rebalance "
              "independently of wall-clock noise)\n");
}

void InterNode() {
  std::printf("\n(b) inter-node: finish-time spread across 8 nodes, "
              "(max-min)/max per app\n");
  std::printf("%-8s %-14s %-14s\n", "app", "w/o RR", "w/ RR");
  bench::PrintRule();
  api::Session& session = bench::SessionFor(8);
  for (const bench::BenchApp& app : kApps) {
    double imbalance_off =
        RunOne(app, session, /*rr=*/false, /*stealing=*/true)
            .InterNodeImbalance();
    double imbalance_on =
        RunOne(app, session, /*rr=*/true, /*stealing=*/true)
            .InterNodeImbalance();
    std::printf("%-8s %-14.1f%% %-14.1f%%\n", app.name,
                100.0 * imbalance_off, 100.0 * imbalance_on);
  }
  std::printf("(paper: <7%% without RR; RR adds ~2%% on average)\n");
}

void Run() {
  bench::PrintHeader("Fig. 10: RR effects on intra/inter-node balance");
  IntraNode();
  InterNode();
}

}  // namespace
}  // namespace slfe

int main() {
  slfe::Run();
  return 0;
}
