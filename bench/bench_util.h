#ifndef SLFE_BENCH_BENCH_UTIL_H_
#define SLFE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "slfe/api/session.h"
#include "slfe/apps/app_common.h"
#include "slfe/graph/generators.h"
#include "slfe/graph/graph.h"

namespace slfe::bench {

/// Extra shrink factor on top of the ~1/100-scale dataset suite
/// (ScaledDatasets in graph/generators.h) so every bench binary finishes
/// in seconds.
/// Override with SLFE_BENCH_SCALE=1 for the full scaled suite.
inline uint32_t ScaleDivisor() {
  const char* env = std::getenv("SLFE_BENCH_SCALE");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 1) return static_cast<uint32_t>(v);
  }
  return 4;
}

/// The seven real-graph stand-ins of paper Table 4 (excludes the RMAT
/// scale-out graph, which only Fig. 7e uses).
inline std::vector<std::string> PaperGraphs() {
  return {"PK", "OK", "LJ", "WK", "DI", "ST", "FS"};
}

/// The one alias-to-edges recipe all bench loaders share, so the
/// Session-based benches and the LoadGraph-based ones can never drift.
inline EdgeList EdgesFor(const std::string& alias) {
  if (alias == "GRID") {
    // Deep road-network-like topology: large diameter creates the
    // many-updates-per-vertex redundancy regime of the paper's full-size
    // graphs, which the shallow scaled RMAT suite cannot.
    // Fixed size: shrinking it leaves superstep overhead dominating its
    // several-hundred-iteration runs.
    return GenerateGrid(192, 192, /*weighted=*/true, 77,
                        /*max_weight=*/256.0f);
  }
  DatasetSpec spec = FindDataset(alias).value();
  return MakeDataset(spec, ScaleDivisor());
}

/// Materializes (and memoizes) a dataset by alias. `symmetric` produces
/// the undirected closure used by CC.
inline const Graph& LoadGraph(const std::string& alias,
                              bool symmetric = false) {
  static std::map<std::string, Graph>* cache = new std::map<std::string, Graph>;
  std::string key = alias + (symmetric ? "/sym" : "");
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  EdgeList edges = EdgesFor(alias);
  if (symmetric) {
    edges.Symmetrize();
    edges.Deduplicate();
  }
  return cache->emplace(key, Graph::FromEdges(edges)).first->second;
}

/// A memoized api::Session per cluster shape: benches run through the
/// same Session::Run facade as the CLI and the JobService (no bench-side
/// app dispatch), and reuse sessions so guidance amortizes across a
/// bench's repeated runs exactly like production jobs.
inline api::Session& SessionFor(int num_nodes, int threads_per_node = 1) {
  static auto* cache =
      new std::map<std::pair<int, int>, std::unique_ptr<api::Session>>;
  auto key = std::make_pair(num_nodes, threads_per_node);
  auto it = cache->find(key);
  if (it == cache->end()) {
    api::SessionOptions opt;
    opt.num_nodes = num_nodes;
    opt.threads_per_node = threads_per_node;
    it = cache->emplace(key, std::make_unique<api::Session>(opt)).first;
  }
  return *it->second;
}

/// Registers a dataset alias into `session` on first use (the session
/// derives symmetrized variants for needs_symmetric apps itself).
inline void EnsureSessionGraph(api::Session& session,
                               const std::string& alias) {
  if (session.HasGraph(alias)) return;
  Status added = session.AddGraph(alias, Graph::FromEdges(EdgesFor(alias)));
  if (!added.ok()) {
    std::fprintf(stderr, "bench: AddGraph(%s): %s\n", alias.c_str(),
                 added.ToString().c_str());
    std::exit(1);
  }
}

/// One row of a bench's per-app knob table: which app plus the
/// iteration/convergence knobs that figure runs it with. The tables stay
/// in the bench binaries (each figure picks its own caps, per the
/// paper); the row shape and request mapping live here once.
struct BenchApp {
  const char* name;
  uint32_t max_iters = 50;
  double epsilon = 1e-7;  // ClusterConfig's defaults
};

inline api::AppRequest MakeRequest(const BenchApp& app,
                                   const std::string& graph, bool rr) {
  api::AppRequest request;
  request.app = app.name;
  request.graph = graph;
  request.enable_rr = rr;
  request.max_iters = app.max_iters;
  request.epsilon = app.epsilon;
  return request;
}

/// Session::Run with bench ergonomics: registers the graph on first use
/// and treats a failed run as a bench bug (exit 1, not a silent zero).
inline api::AppOutcome RunApp(api::Session& session, api::AppRequest request) {
  EnsureSessionGraph(session, request.graph);
  api::AppOutcome outcome = session.Run(request);
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "bench: %s on %s over %s: %s\n",
                 request.app.c_str(), request.engine.c_str(),
                 request.graph.c_str(), outcome.status.ToString().c_str());
    std::exit(1);
  }
  return outcome;
}

/// Default 8-node cluster config matching the paper's testbed shape.
inline AppConfig ClusterConfig(int num_nodes, bool enable_rr) {
  AppConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.threads_per_node = 1;  // one worker thread per simulated node
  cfg.enable_rr = enable_rr;
  cfg.max_iters = 50;
  cfg.epsilon = 1e-7;
  return cfg;
}

/// Median of a sample (benches run everything 3x to damp scheduling
/// noise). Takes the vector by value: callers keep their sample.
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Minimal JSON emitter for machine-readable bench artifacts (the CI
/// baseline-comparison path): correct comma placement for nested
/// objects/arrays, string escaping for the characters bench data can
/// actually contain. Not a general serializer — benches emit flat,
/// known-shape documents.
class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}

  void BeginObject(const char* key = nullptr) { Open(key, '{'); }
  void EndObject() { Close('}'); }
  void BeginArray(const char* key = nullptr) { Open(key, '['); }
  void EndArray() { Close(']'); }

  void Field(const char* key, const std::string& value) {
    Prefix(key);
    std::fputc('"', out_);
    for (char c : value) {
      if (c == '"' || c == '\\') std::fputc('\\', out_);
      std::fputc(c, out_);
    }
    std::fputc('"', out_);
  }
  void Field(const char* key, const char* value) {
    Field(key, std::string(value));
  }
  void Field(const char* key, double value) {
    Prefix(key);
    std::fprintf(out_, "%.6g", value);
  }
  void Field(const char* key, uint64_t value) {
    Prefix(key);
    std::fprintf(out_, "%llu", static_cast<unsigned long long>(value));
  }
  void Field(const char* key, bool value) {
    Prefix(key);
    std::fputs(value ? "true" : "false", out_);
  }

 private:
  void Prefix(const char* key) {
    if (need_comma_) std::fputc(',', out_);
    need_comma_ = true;
    if (key != nullptr) std::fprintf(out_, "\"%s\":", key);
  }
  void Open(const char* key, char bracket) {
    Prefix(key);
    std::fputc(bracket, out_);
    need_comma_ = false;
  }
  void Close(char bracket) {
    std::fputc(bracket, out_);
    need_comma_ = true;
  }

  std::FILE* out_;
  bool need_comma_ = false;
};

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void PrintRule() {
  std::printf("-------------------------------------------------------------------------------\n");
}

}  // namespace slfe::bench

#endif  // SLFE_BENCH_BENCH_UTIL_H_
