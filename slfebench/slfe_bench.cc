// slfe_bench — the end-to-end benchmark behind BENCHMARK.json. One process
// runs one workload: it sets the system up three times (reporting the
// median set-up time), drives the workload's request stream for a fixed
// measuring time, checks the results against RR-off baselines, and prints
// one `metric ...` line per metric followed by one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// An untraced run (--trace=0) reports the end-to-end metrics. A traced run
// (--trace=1) records spans around every call into the system and reports
// the per-layer metrics instead. README.md maps each metric to its layer
// and to the end-to-end metric it should move.
//
//   slfe_bench --workload=arith-batch --seed=1 --seconds=20 --trace=0
//              [--scale=4] [--out=detail.json] [--spans=spans.json]
//
// The seed drives only the generated request stream (mix order, roots,
// delta edges, arrival times); the graphs are fixed, so set-up is the same
// for every seed.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "slfe/api/session.h"
#include "slfe/common/version.h"
#include "slfe/engine/dist_graph.h"
#include "slfe/graph/delta.h"
#include "slfe/graph/generators.h"
#include "slfe/net/net_server.h"
#include "slfe/obs/metrics.h"
#include "slfe/service/job_service.h"

#ifndef SLFE_BENCH_BUILD_TYPE
#define SLFE_BENCH_BUILD_TYPE "unknown"
#endif

namespace slfe::perf {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Simulated cluster shape of the batch workloads: 4 nodes x 1 thread,
/// one simulated node per core of the 4-core reference host.
constexpr int kBatchNodes = 4;
/// Batch jobs are checked against an RR-off baseline on the first job of
/// each (app, graph) pair and then on every kCheckEvery-th job.
constexpr uint64_t kCheckEvery = 25;
/// Requests of serve-mixed replayed in-process for the engine-layer
/// metrics of a traced run.
constexpr size_t kReplayJobs = 64;
/// A latency limit for nothing but the serve-mixed validity check: a
/// generator that sends later than this at p95 no longer makes an open loop.
constexpr double kMaxLagP95Ms = 2.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }
double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linearly interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Dataset shrink factor (MakeDataset's scale_divisor). The benchmark
  /// runs at 4; only the smoke run uses 16.
  uint32_t scale = 4;
  std::string out_path;
  std::string spans_path;
};

// ---------------------------------------------------------------------------
// Inputs

/// The benchmark's own dataset recipe, kept here so that a change to the
/// other bench binaries cannot change this benchmark's inputs.
EdgeList DatasetEdges(const std::string& alias, uint32_t scale) {
  if (alias == "GRID") {
    // Deep (diameter ~380) road-like graph; fixed size at every scale.
    return GenerateGrid(192, 192, /*weighted=*/true, 77, /*max_weight=*/256.0f);
  }
  Result<DatasetSpec> spec = FindDataset(alias);
  if (!spec.ok()) {
    std::fprintf(stderr, "slfe_bench: %s\n", spec.status().ToString().c_str());
    std::exit(1);
  }
  return MakeDataset(spec.value(), scale);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  double Uniform() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return gen_() % n; }

 private:
  std::mt19937_64 gen_;
};

/// Zipf(s=1) over ranks [0, n): rank r has weight 1/(r+1).
class Zipf {
 public:
  explicit Zipf(size_t n) {
    double sum = 0;
    for (size_t r = 1; r <= n; ++r) cdf_.push_back(sum += 1.0 / r);
    for (double& c : cdf_) c /= sum;
  }
  VertexId Sample(Rng& rng) const {
    size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Uniform()) -
               cdf_.begin();
    return static_cast<VertexId>(std::min(r, cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// One kind of request in a workload's mix, drawn `weight` times per deck.
struct MixEntry {
  const char* app;
  const char* graph;
  int weight;
};

/// Draws mix entries from a shuffled deck that holds each entry `weight`
/// times. Every full deck realizes the mix exactly, so runs with different
/// seeds differ in the order of requests, not in how many of each kind
/// they contain — which keeps the latency percentiles from drifting with
/// the seed.
class Deck {
 public:
  explicit Deck(std::vector<MixEntry> mix) : mix_(std::move(mix)) {
    for (size_t i = 0; i < mix_.size(); ++i) {
      cards_.insert(cards_.end(), static_cast<size_t>(mix_[i].weight), i);
    }
    next_ = cards_.size();
  }
  const MixEntry& Next(Rng& rng) {
    if (next_ == cards_.size()) {
      for (size_t i = cards_.size() - 1; i > 0; --i) {
        std::swap(cards_[i], cards_[rng.Below(i + 1)]);
      }
      next_ = 0;
    }
    return mix_[cards_[next_++]];
  }
  const std::vector<MixEntry>& mix() const { return mix_; }

 private:
  std::vector<MixEntry> mix_;
  std::vector<size_t> cards_;
  size_t next_ = 0;
};

/// `erase` deletions of existing edges of `graph` (a random out-edge of a
/// random vertex with out-edges) and `insert` insertions of random
/// non-loop edges with weights in [1, 64].
GraphDelta RandomDelta(const Graph& graph, int insert, int erase, Rng& rng) {
  GraphDelta delta;
  const VertexId n = graph.num_vertices();
  while (static_cast<int>(delta.erase.size()) < erase) {
    VertexId v = static_cast<VertexId>(rng.Below(n));
    VertexId degree = graph.out_degree(v);
    if (degree == 0) continue;
    EdgeId e = graph.out().begin(v) + rng.Below(degree);
    delta.erase.emplace_back(v, graph.out().neighbor(e));
  }
  while (static_cast<int>(delta.insert.size()) < insert) {
    VertexId src = static_cast<VertexId>(rng.Below(n));
    VertexId dst = static_cast<VertexId>(rng.Below(n));
    if (src == dst) continue;
    delta.insert.push_back(
        Edge{src, dst, static_cast<Weight>(1 + rng.Below(64))});
  }
  return delta;
}

// ---------------------------------------------------------------------------
// Spans

/// Spans recorded by the benchmark around its calls into the system, kept
/// in memory and written out when the run ends. Times are milliseconds from
/// the log's epoch; spans of one job share its id.
class SpanLog {
 public:
  struct Span {
    uint64_t id;
    uint64_t parent;  // 0 = a root span
    uint64_t job;
    std::string name;
    double start_ms;
    double dur_ms;
  };

  double OffsetMs(Clock::time_point t) const { return MsBetween(epoch_, t); }

  uint64_t Add(uint64_t parent, uint64_t job, std::string name,
               double start_ms, double dur_ms) {
    spans_.push_back(
        {spans_.size() + 1, parent, job, std::move(name), start_ms, dur_ms});
    return spans_.back().id;
  }

  /// Records one batch job: a `job` span over its wall time, the
  /// guidance_acquire.* and engine_execute spans the session recorded into
  /// `trace`, and an `engine.compute` child of engine_execute holding the
  /// engine's pull + push time. Returns the share of the job's wall time
  /// its child spans cover.
  double AddJob(uint64_t job, Clock::time_point start, double wall_ms,
                const obs::JobTrace& trace, const EngineStats& stats) {
    const double base = OffsetMs(start);
    uint64_t root = Add(0, job, "job", base, wall_ms);
    double covered = 0;
    for (const obs::TraceSpan& s : trace.Snapshot()) {
      double s_start = base + s.start_seconds * 1e3;
      double s_dur = s.duration_seconds * 1e3;
      uint64_t id = Add(root, job, s.name, s_start, s_dur);
      covered += s_dur;
      if (s.name == "engine_execute") {
        Add(id, job, "engine.compute", s_start,
            (stats.pull_seconds + stats.push_seconds) * 1e3);
      }
    }
    return Ratio(covered, wall_ms);
  }

  /// Self time per span name: each span's duration minus its children's.
  std::map<std::string, double> SelfMs() const {
    std::vector<double> child_ms(spans_.size() + 1, 0.0);
    for (const Span& s : spans_) child_ms[s.parent] += s.dur_ms;
    std::map<std::string, double> self;
    for (const Span& s : spans_) self[s.name] += s.dur_ms - child_ms[s.id];
    return self;
  }

  bool Write(const std::string& path, const std::string& workload,
             uint64_t seed) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":[",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"id\":%llu,\"parent\":%llu,\"job\":%llu,"
                   "\"name\":\"%s\",\"start_ms\":%.4f,\"dur_ms\":%.4f}",
                   i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.job), s.name.c_str(),
                   s.start_ms, s.dur_ms);
    }
    std::fputs("\n]}\n", out);
    return std::fclose(out) == 0;
  }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Accounting

/// What the guidance layer did for a run's jobs.
struct GuidanceTally {
  uint64_t guided = 0;  // jobs that acquired guidance
  uint64_t hits = 0;    // ... from the cache or another job's sweep
  std::vector<double> generate_ms;
  std::vector<double> repair_ms;
  double guidance_ms = 0;
  double wall_ms = 0;

  void Add(bool acquired, bool hit, bool repaired, double ms, double wall) {
    wall_ms += wall;
    if (!acquired) return;
    ++guided;
    guidance_ms += ms;
    if (hit) {
      ++hits;
    } else if (repaired) {
      repair_ms.push_back(ms);
    } else {
      generate_ms.push_back(ms);
    }
  }
};

double ComputeMs(const api::AppOutcome& outcome) {
  return (outcome.info.stats.pull_seconds + outcome.info.stats.push_seconds) *
         1e3;
}

/// A job's wall time outside guidance acquisition and the engine's pull and
/// push phases: runner set-up, seed barriers, partitioning.
double OutsideMs(const api::AppOutcome& outcome, double wall_ms) {
  return std::max(0.0, wall_ms - ComputeMs(outcome) -
                           outcome.info.guidance_seconds * 1e3);
}

/// Engine- and sim-layer accounting over a run's query jobs, read from the
/// EngineStats each Session run returns.
struct EngineTally {
  uint64_t jobs = 0;
  uint64_t untiled = 0;
  std::vector<double> compute_ms, outside_ms, comm_ms;
  double wall_ms = 0, outside_total_ms = 0;
  double supersteps = 0, computations = 0, skipped = 0;
  double messages = 0, bytes = 0, imbalance = 0;

  void Add(const api::AppOutcome& outcome, double wall) {
    const EngineStats& s = outcome.info.stats;
    double compute = ComputeMs(outcome);
    double outside = OutsideMs(outcome, wall);
    ++jobs;
    compute_ms.push_back(compute);
    outside_ms.push_back(outside);
    comm_ms.push_back(s.comm_seconds * 1e3);
    wall_ms += wall;
    outside_total_ms += outside;
    supersteps += static_cast<double>(outcome.info.supersteps);
    computations += static_cast<double>(s.computations);
    skipped += static_cast<double>(s.skipped);
    messages += static_cast<double>(s.messages);
    bytes += static_cast<double>(s.bytes);
    imbalance += s.InterNodeImbalance();
  }
};

/// RR-on vs RR-off for one (app, graph) pair of a workload, measured after
/// the run on the pair's first request (the paper's Fig. 5 and Fig. 9).
struct PairResult {
  std::string app;
  std::string graph;
  uint64_t jobs = 0;  // the pair's share of the run's query jobs
  double partition_ms = 0;
  double rr_ms = 0;
  double rr_outside_ms = 0;  // of rr_ms, outside guidance and pull + push
  double base_ms = 0;
  uint64_t rr_computations = 0;
  uint64_t base_computations = 0;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct RunResult {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;   // completed query jobs
  std::vector<double> mutation_ms;  // completed mutations
  double measured_s = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed, rejected, lost or wrong jobs
  std::vector<std::string> problems;
  std::vector<Metric> layers;  // traced runs only
  std::vector<PairResult> pairs;
  std::map<std::string, double> self_ms;

  void Fail(std::string why) {
    ++failed;
    if (problems.size() < 20) problems.push_back(std::move(why));
  }
};

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Running jobs through the Session

struct JobRun {
  api::AppOutcome outcome;
  double wall_ms = 0;
  double tiled = 1.0;  // share of wall time covered by child spans
};

/// One query job. Untraced runs take the user path, Session::Run; traced
/// runs resolve the graph and call Session::RunOn with a JobTrace, which
/// adds the session's own guidance_acquire.* and engine_execute spans.
JobRun Execute(api::Session& session, const api::AppRequest& request,
               SpanLog* spans, uint64_t job) {
  JobRun run;
  if (spans == nullptr) {
    Clock::time_point start = Clock::now();
    run.outcome = session.Run(request);
    run.wall_ms = MsSince(start);
    return run;
  }
  obs::JobTrace trace;
  Clock::time_point start = Clock::now();
  Result<std::shared_ptr<const Graph>> graph = session.ResolveGraph(request);
  if (graph.ok()) {
    run.outcome = session.RunOn(request, graph.value(), &trace);
  } else {
    run.outcome.status = graph.status();
  }
  run.wall_ms = MsSince(start);
  run.tiled =
      spans->AddJob(job, start, run.wall_ms, trace, run.outcome.info.stats);
  return run;
}

/// RR and RR-off runs of one request must agree: exactly for the min/max
/// apps, within `tolerance` per value for the arithmetic ones (the
/// finish-early freeze point, the property_sweep bar).
bool Agrees(const api::AppOutcome& rr, const api::AppOutcome& base,
            double tolerance) {
  if (rr.values.size() != base.values.size()) return false;
  if (rr.values.empty()) return rr.summary == base.summary;
  for (size_t v = 0; v < rr.values.size(); ++v) {
    double a = rr.values[v], b = base.values[v];
    if (a == b) continue;  // also equal infinities
    if (!(std::fabs(a - b) <= tolerance)) return false;
  }
  return true;
}

api::AppOutcome Baseline(api::Session& session, api::AppRequest request) {
  request.enable_rr = false;
  return session.Run(request);
}

/// RR-off baselines keyed by request and graph version, so the arithmetic
/// apps (whose result does not depend on the root) run theirs once.
class BaselineCache {
 public:
  const api::AppOutcome& Get(api::Session& session,
                             const api::AppRequest& request) {
    std::shared_ptr<const Graph> graph = session.GetGraph(request.graph);
    std::string key = request.app + "/" + request.graph + "/" +
                      std::to_string(request.root) + "/" +
                      std::to_string(graph ? graph->fingerprint() : 0);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    if (cache_.size() >= 16) cache_.clear();  // bounds the bench's own RSS
    return cache_.emplace(key, Baseline(session, request)).first->second;
  }

 private:
  std::map<std::string, api::AppOutcome> cache_;
};

/// Median wall time of `reps` runs of `request`; `*last` gets the last
/// run's outcome and `*outside_ms`, when given, the median OutsideMs.
double MedianWallMs(api::Session& session, const api::AppRequest& request,
                    int reps, api::AppOutcome* last, double* outside_ms) {
  std::vector<double> walls, outside;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point start = Clock::now();
    *last = session.Run(request);
    walls.push_back(MsSince(start));
    outside.push_back(OutsideMs(*last, walls.back()));
  }
  if (outside_ms != nullptr) *outside_ms = Median(outside);
  return Median(walls);
}

/// The traced run's per-pair panel: the partition cost every job of the
/// pair pays (DistGraph::Build on the graph the job resolves to), and the
/// pair's RR speedup and work ratio, each a median of 3 runs.
PairResult MeasurePair(api::Session& session, const api::AppRequest& request,
                       uint64_t jobs) {
  PairResult pair;
  pair.app = request.app;
  pair.graph = request.graph;
  pair.jobs = jobs;
  Result<std::shared_ptr<const Graph>> graph = session.ResolveGraph(request);
  if (graph.ok()) {
    std::vector<double> builds;
    for (int i = 0; i < 5; ++i) {
      Clock::time_point start = Clock::now();
      DistGraph dg = DistGraph::Build(*graph.value(),
                                      session.options().num_nodes);
      builds.push_back(MsSince(start));
    }
    pair.partition_ms = Median(builds);
  }
  api::AppRequest rr = request;
  rr.enable_rr = true;
  api::AppRequest base = request;
  base.enable_rr = false;
  api::AppOutcome outcome;
  pair.rr_ms = MedianWallMs(session, rr, 3, &outcome, &pair.rr_outside_ms);
  pair.rr_computations = outcome.info.stats.computations;
  pair.base_ms = MedianWallMs(session, base, 3, &outcome, nullptr);
  pair.base_computations = outcome.info.stats.computations;
  return pair;
}

/// Median time of Graph delta application (graph/delta.h) for a 16+16
/// edge delta on `graph`: the graph layer's part of a mutation,
/// side-measured on the graph a workload mutates.
double DeltaApplyMs(const Graph& graph, uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  GraphDelta delta = RandomDelta(graph, 16, 16, rng);
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    Clock::time_point start = Clock::now();
    Result<Graph> next = ApplyDelta(graph, delta);
    times.push_back(MsSince(start));
  }
  return Median(times);
}

/// Pairs seen in a run, in first-seen order, with the first request of each.
class PairCounter {
 public:
  /// Returns true on the pair's first job.
  bool Count(const api::AppRequest& request) {
    std::string key = request.app + "/" + request.graph;
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++pairs_[it->second].second;
      return false;
    }
    index_.emplace(key, pairs_.size());
    pairs_.emplace_back(request, 1);
    return true;
  }
  const std::vector<std::pair<api::AppRequest, uint64_t>>& pairs() const {
    return pairs_;
  }

 private:
  std::map<std::string, size_t> index_;
  std::vector<std::pair<api::AppRequest, uint64_t>> pairs_;
};

/// Adds the metrics every workload derives the same way: the engine, sim,
/// guidance and rr layers, and the pair panel.
void AddSharedLayers(const EngineTally& engine, const GuidanceTally& guidance,
                     const GuidanceProviderStats& before,
                     const GuidanceProviderStats& after,
                     const std::vector<PairResult>& pairs,
                     std::vector<Metric>* out) {
  const double jobs = std::max<double>(1, static_cast<double>(engine.jobs));
  double weight = 0, partition = 0, rr_ms = 0, base_ms = 0;
  double rr_work = 0, base_work = 0;
  for (const PairResult& p : pairs) {
    double w = static_cast<double>(p.jobs);
    weight += w;
    partition += w * p.partition_ms;
    rr_ms += w * p.rr_ms;
    base_ms += w * p.base_ms;
    rr_work += w * static_cast<double>(p.rr_computations);
    base_work += w * static_cast<double>(p.base_computations);
  }
  const uint64_t repairs = after.repairs - before.repairs;
  const uint64_t fallbacks = after.repair_fallbacks - before.repair_fallbacks;
  std::vector<Metric> m = {
      {"engine.partition_ms", Ratio(partition, weight), "ms"},
      {"engine.compute_ms_p50", Quantile(engine.compute_ms, 0.5), "ms"},
      {"engine.outside_ms_p50", Quantile(engine.outside_ms, 0.5), "ms"},
      {"engine.outside_share", Ratio(engine.outside_total_ms, engine.wall_ms),
       "ratio"},
      {"engine.supersteps_mean", engine.supersteps / jobs, "count"},
      {"engine.computations_mean", engine.computations / jobs, "count"},
      {"engine.skipped_mean", engine.skipped / jobs, "count"},
      {"engine.skip_ratio",
       Ratio(engine.skipped, engine.skipped + engine.computations), "ratio"},
      {"engine.imbalance_mean", engine.imbalance / jobs, "ratio"},
      {"guidance.hit_ratio",
       Ratio(static_cast<double>(guidance.hits),
             static_cast<double>(guidance.guided)),
       "ratio"},
      {"guidance.generations",
       static_cast<double>(after.generations - before.generations), "count"},
      {"guidance.coalesced",
       static_cast<double>(after.coalesced - before.coalesced), "count"},
      {"guidance.repairs", static_cast<double>(repairs), "count"},
      {"guidance.repair_ratio",
       Ratio(static_cast<double>(repairs),
             static_cast<double>(repairs + fallbacks)),
       "ratio"},
      {"guidance.generate_ms_p50", Quantile(guidance.generate_ms, 0.5), "ms"},
      {"guidance.repair_ms_p50", Quantile(guidance.repair_ms, 0.5), "ms"},
      {"guidance.share", Ratio(guidance.guidance_ms, guidance.wall_ms),
       "ratio"},
      {"sim.messages_mean", engine.messages / jobs, "count"},
      {"sim.bytes_mean", engine.bytes / jobs, "bytes"},
      {"sim.comm_model_ms_p50", Quantile(engine.comm_ms, 0.5), "ms"},
      {"rr.speedup", Ratio(base_ms, rr_ms), "x"},
      {"rr.work_ratio", Ratio(rr_work, base_work), "ratio"},
      {"obs.untiled_jobs", static_cast<double>(engine.untiled), "count"},
  };
  out->insert(out->end(), m.begin(), m.end());
}

// ---------------------------------------------------------------------------
// Batch workloads: one client thread, closed loop, through one Session

/// One request of a batch stream: a query, or a mutation of
/// `request.graph` when `mutation` is set.
struct BatchJob {
  api::AppRequest request;
  bool mutation = false;
  GraphDelta delta;
};

struct BatchSpec {
  /// Registered at set-up.
  std::vector<std::string> graphs;
  /// Run once per set-up (compiles the symmetrized variants and warms
  /// guidance and caches); counted in setup_s.
  std::vector<api::AppRequest> warmup;
  /// Allowed per-value |RR - baseline|; 0 = exact.
  double tolerance = 0;
  std::function<BatchJob(api::Session&)> next;
};

RunResult RunBatch(const Options& opt, const BatchSpec& spec) {
  RunResult r;
  std::unique_ptr<api::Session> session;
  std::vector<double> build_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();  // one set-up's memory at a time
    Clock::time_point start = Clock::now();
    api::SessionOptions so;
    so.num_nodes = kBatchNodes;
    so.threads_per_node = 1;
    session = std::make_unique<api::Session>(so);
    double build = 0;
    for (const std::string& name : spec.graphs) {
      EdgeList edges = DatasetEdges(name, opt.scale);
      Clock::time_point built = Clock::now();
      Graph graph = Graph::FromEdges(edges);
      build += MsSince(built);
      Status added = session->AddGraph(name, std::move(graph));
      if (!added.ok()) {
        std::fprintf(stderr, "slfe_bench: AddGraph(%s): %s\n", name.c_str(),
                     added.ToString().c_str());
        std::exit(1);
      }
    }
    for (const api::AppRequest& request : spec.warmup) {
      api::AppOutcome outcome = session->Run(request);
      if (!outcome.status.ok()) {
        std::fprintf(stderr, "slfe_bench: warm-up %s on %s: %s\n",
                     request.app.c_str(), request.graph.c_str(),
                     outcome.status.ToString().c_str());
        std::exit(1);
      }
    }
    r.setup_s.push_back(SecondsSince(start));
    build_ms.push_back(build);
  }

  std::unique_ptr<SpanLog> spans =
      opt.trace ? std::make_unique<SpanLog>() : nullptr;
  EngineTally engine;
  GuidanceTally guidance;
  PairCounter pairs;
  BaselineCache baselines;
  std::string mutated;  // the graph mutation jobs apply to, if any
  const GuidanceProviderStats before = session->provider().stats();
  double check_s = 0;
  uint64_t job = 0;
  Clock::time_point start = Clock::now();
  while (SecondsSince(start) - check_s < opt.seconds) {
    BatchJob next = spec.next(*session);
    ++job;
    ++r.attempted;
    if (next.mutation) {
      const std::string& name = next.request.graph;
      mutated = name;
      EdgeId edges_before = session->GetGraph(name)->num_edges();
      Clock::time_point t = Clock::now();
      Result<api::GraphMutationResult> m =
          session->MutateGraph(name, next.delta);
      double ms = MsSince(t);
      if (spans != nullptr) {
        spans->Add(0, job, "mutate", spans->OffsetMs(t), ms);
      }
      if (!m.ok()) {
        r.Fail("mutate " + name + ": " + m.status().ToString());
        continue;
      }
      const GraphDeltaStats& d = m.value().delta_stats;
      if (m.value().num_edges !=
          edges_before + d.edges_inserted - d.edges_deleted) {
        r.Fail("mutate " + name + ": edge count does not add up");
        continue;
      }
      r.mutation_ms.push_back(ms);
      continue;
    }
    JobRun run = Execute(*session, next.request, spans.get(), job);
    if (!run.outcome.status.ok()) {
      r.Fail(next.request.app + " on " + next.request.graph + ": " +
             run.outcome.status.ToString());
      continue;
    }
    r.latency_ms.push_back(run.wall_ms);
    engine.Add(run.outcome, run.wall_ms);
    if (run.tiled < 0.95 || run.tiled > 1.05) ++engine.untiled;
    const AppRunInfo& info = run.outcome.info;
    guidance.Add(info.guidance_acquired,
                 info.guidance_cache_hit || info.guidance_coalesced,
                 info.guidance_repaired, info.guidance_seconds * 1e3,
                 run.wall_ms);
    if (pairs.Count(next.request) || job % kCheckEvery == 0) {
      Clock::time_point checked = Clock::now();
      if (!Agrees(run.outcome, baselines.Get(*session, next.request),
                  spec.tolerance)) {
        r.Fail("wrong result: " + next.request.app + " on " +
               next.request.graph + " root " +
               std::to_string(next.request.root));
      }
      check_s += SecondsSince(checked);
    }
  }
  r.measured_s = SecondsSince(start) - check_s;
  if (!opt.trace) return r;

  const GuidanceProviderStats after = session->provider().stats();
  for (const auto& [request, count] : pairs.pairs()) {
    r.pairs.push_back(MeasurePair(*session, request, count));
  }
  r.layers = {
      {"graph.build_ms", Median(build_ms), "ms"},
      {"graph.delta_apply_ms",
       mutated.empty() ? 0.0
                       : DeltaApplyMs(*session->GetGraph(mutated), opt.seed),
       "ms"},
      {"graph.mutate_ms_p50", Median(r.mutation_ms), "ms"},
      // Batch workloads bypass the queue, the socket and the generator.
      {"service.queue_wait_ms_p50", 0, "ms"},
      {"service.queue_wait_ms_p95", 0, "ms"},
      {"service.job_ms_p50", 0, "ms"},
      {"service.job_ms_p95", 0, "ms"},
      {"net.client_overhead_ms_p50", 0, "ms"},
      {"load.lag_ms_p95", 0, "ms"},
  };
  AddSharedLayers(engine, guidance, before, after, r.pairs, &r.layers);
  r.self_ms = spans->SelfMs();
  if (!opt.spans_path.empty() &&
      !spans->Write(opt.spans_path, opt.workload, opt.seed)) {
    r.problems.push_back("cannot write " + opt.spans_path);
  }
  return r;
}

/// Finish-early: PageRank and TunkRank, 100 iterations with epsilon 0 so
/// every job runs every iteration and RR's freezing does the saving. LJ
/// (155k edges) fits the L2 cache, FS (1.6M edges) does not; the 80/20
/// split puts p50 inside the LJ-pr mode and p95 inside the FS-pr mode.
/// Guidance is warmed at set-up, so every acquire is a cache hit.
RunResult ArithBatch(const Options& opt) {
  const std::vector<MixEntry> mix = {
      {"pr", "LJ", 40}, {"tr", "LJ", 40}, {"pr", "FS", 10}, {"tr", "FS", 10}};
  auto request = [](const MixEntry& e) {
    api::AppRequest r;
    r.app = e.app;
    r.graph = e.graph;
    r.max_iters = 100;
    r.epsilon = 0;
    return r;
  };
  BatchSpec spec;
  spec.graphs = {"LJ", "FS"};
  spec.tolerance = 5e-3;
  for (const MixEntry& e : mix) spec.warmup.push_back(request(e));
  Rng rng(opt.seed);
  Deck deck(mix);
  spec.next = [&](api::Session&) {
    BatchJob job;
    job.request = request(deck.Next(rng));
    return job;
  };
  return RunBatch(opt, spec);
}

/// Start-late: the min/max apps on a deep graph (GRID, ~380 push
/// supersteps) and a shallow one (FS). Roots are zipf over 1024 vertices,
/// so some guidance acquires hit and the rest generate. cc pays per-job
/// runner set-up outside the engine. Sorted by latency the modes are FS
/// (42%, 20-35 ms), GRID (50%, 50-60 ms) and cc on FS (8%, ~450 ms): p50
/// falls inside the GRID mode and p95 inside the cc mode.
RunResult MinmaxBatch(const Options& opt) {
  const std::vector<MixEntry> mix = {
      {"sssp", "GRID", 20}, {"wp", "GRID", 10}, {"bfs", "GRID", 20},
      {"sssp", "FS", 14},   {"wp", "FS", 8},    {"bfs", "FS", 20},
      {"cc", "FS", 8}};
  auto request = [](const MixEntry& e, VertexId root) {
    api::AppRequest r;
    r.app = e.app;
    r.graph = e.graph;
    r.root = root;
    return r;
  };
  BatchSpec spec;
  spec.graphs = {"GRID", "FS"};
  for (const MixEntry& e : mix) spec.warmup.push_back(request(e, 0));
  Rng rng(opt.seed);
  Deck deck(mix);
  Zipf roots(1024);
  spec.next = [&](api::Session&) {
    BatchJob job;
    const MixEntry& e = deck.Next(rng);
    job.request = request(e, roots.Sample(rng));
    return job;
  };
  return RunBatch(opt, spec);
}

/// Writes beside reads on WK: every round mutates (16 inserts, 16 deletes
/// of existing edges), then runs sssp and bfs from 4 fixed roots and one
/// pr. Each round's first acquire per root repairs the previous version's
/// guidance. Job latency covers the queries, so p95 falls inside pr (the
/// slowest ninth). The mutations, about half the wall time, show in
/// throughput; their latency swings with the host's cache contention
/// (70-150 ms between runs on a shared virtual machine) and stays a
/// per-layer metric.
RunResult MutateQuery(const Options& opt) {
  const std::string graph = "WK";
  std::vector<api::AppRequest> round;
  for (VertexId root : {0u, 1u, 2u, 3u}) {
    for (const char* app : {"sssp", "bfs"}) {
      api::AppRequest r;
      r.app = app;
      r.graph = graph;
      r.root = root;
      round.push_back(r);
    }
  }
  api::AppRequest pr;
  pr.app = "pr";
  pr.graph = graph;
  round.push_back(pr);

  BatchSpec spec;
  spec.graphs = {graph};
  spec.warmup = round;
  Rng rng(opt.seed);
  size_t step = 0;
  spec.next = [&](api::Session& session) {
    BatchJob job;
    size_t slot = step++ % (round.size() + 1);
    if (slot == 0) {
      job.mutation = true;
      job.request.graph = graph;
      job.delta = RandomDelta(*session.GetGraph(graph), 16, 16, rng);
    } else {
      job.request = round[slot - 1];
    }
    return job;
  };
  return RunBatch(opt, spec);
}

// ---------------------------------------------------------------------------
// serve-mixed: open loop over TCP against an in-process JobService

/// A blocking line-protocol client on 127.0.0.1.
class LineClient {
 public:
  explicit LineClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval tv{};
    tv.tv_sec = 30;  // a stuck server fails the run instead of hanging it
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  bool Send(const std::string& text) {
    size_t off = 0;
    while (off < text.size()) {
      ssize_t n = ::send(fd_, text.data() + off, text.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// One read (blocking until data, EOF or the receive timeout); appends
  /// every complete line. False on EOF, timeout or error.
  bool Receive(std::vector<std::string>* lines) {
    char tmp[8192];
    ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
    size_t pos;
    while ((pos = buf_.find('\n')) != std::string::npos) {
      lines->push_back(buf_.substr(0, pos));
      buf_.erase(0, pos + 1);
    }
    return true;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The value of ` key=value` in a protocol line, or "".
std::string FieldOf(const std::string& line, const std::string& key) {
  std::string needle = " " + key + "=";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return "";
  pos += needle.size();
  return line.substr(pos, line.find(' ', pos) - pos);
}

/// The in-process serving stack: JobService + NetServer on an ephemeral
/// loopback port, its event loop on its own thread. Jobs run on one
/// simulated node each: with 2 workers, the event loop and the generator
/// that makes one thread per core. Two-node jobs oversubscribe the cores
/// and put every superstep barrier's cross-core wake-up on the latency
/// path, which on a shared virtual machine moved job_p50_ms by up to 50%
/// between runs; the batch workloads keep the multi-node engine.
class Server {
 public:
  explicit Server(uint32_t scale) {
    service::JobServiceOptions so;
    so.workers = 2;
    so.job_nodes = 1;
    service_ = std::make_unique<service::JobService>(so);
    for (const char* name : {"PK", "LJ"}) {
      EdgeList edges = DatasetEdges(name, scale);
      Clock::time_point built = Clock::now();
      Graph graph = Graph::FromEdges(edges);
      build_ms_ += MsSince(built);
      Status added = service_->RegisterGraph(name, std::move(graph));
      if (!added.ok()) Die("RegisterGraph", added);
    }
    net_ = std::make_unique<net::NetServer>(*service_,
                                            net::NetServerOptions{});
    Status started = net_->Start();
    if (!started.ok()) Die("NetServer::Start", started);
    loop_ = std::thread([this] { net_->Serve(); });
  }
  ~Server() {
    StopNet();
    service_->Shutdown();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops accepting connections (drains live ones); the service stays up
  /// for the traced run's in-process replay.
  void StopNet() {
    if (!loop_.joinable()) return;
    net_->Stop();
    loop_.join();
  }

  uint16_t port() const { return net_->port(); }
  service::JobService& service() { return *service_; }
  double build_ms() const { return build_ms_; }

 private:
  static void Die(const char* what, const Status& status) {
    std::fprintf(stderr, "slfe_bench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  }

  double build_ms_ = 0;
  std::unique_ptr<service::JobService> service_;
  std::unique_ptr<net::NetServer> net_;
  std::thread loop_;
};

/// Bucket counts of a server histogram, so a run can take quantiles over
/// just the observations made after set-up.
class HistogramWindow {
 public:
  explicit HistogramWindow(const obs::Histogram* h) : h_(h) {
    for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
      start_.push_back(h->BucketCount(i));
    }
  }
  /// Quantile in milliseconds over the observations since construction,
  /// interpolated inside the (sqrt(2)-wide) bucket.
  double QuantileMs(double q) const {
    std::vector<double> counts;
    double total = 0;
    for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
      counts.push_back(static_cast<double>(h_->BucketCount(i) - start_[i]));
      total += counts.back();
    }
    if (total == 0) return 0;
    const size_t last = obs::Histogram::kFiniteBounds - 1;
    double rank = q * total, seen = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0 || seen + counts[i] < rank) {
        seen += counts[i];
        continue;
      }
      double lo = i == 0 ? 0.0 : h_->Bound(std::min(i - 1, last));
      double hi = h_->Bound(std::min(i, last));
      return (lo + (hi - lo) * (rank - seen) / counts[i]) * 1e3;
    }
    return h_->Bound(last) * 1e3;
  }

 private:
  const obs::Histogram* h_;
  std::vector<uint64_t> start_;
};

/// One generated request of the open loop.
struct Request {
  std::string app;  // "mutate" for a mutation
  std::string graph;
  VertexId root = 0;
  std::string line;
  Clock::time_point due;
  Clock::time_point sent;
  bool done = false;
};

struct Connection {
  std::unique_ptr<LineClient> client;
  std::deque<size_t> awaiting_ack;  // request indices in send order
  std::map<uint64_t, size_t> by_req;
  bool open = true;
};

/// Runs `lines` through one fresh connection and waits for every result;
/// returns the number of job lines that did not end with status ok (or -1
/// when the connection failed).
int RunOverTcp(uint16_t port, const std::vector<std::string>& lines) {
  LineClient client(port);
  if (!client.connected()) return -1;
  std::string batch;
  for (const std::string& line : lines) batch += line;
  if (!client.Send(batch + "wait\nquit\n")) return -1;
  int bad = 0;
  std::vector<std::string> got;
  while (client.Receive(&got)) {
  }
  size_t jobs = 0;
  for (const std::string& line : got) {
    if (StartsWith(line, "reject:")) ++bad;
    if (!StartsWith(line, "job ")) continue;
    ++jobs;
    if (FieldOf(line, "status") != "ok") ++bad;
  }
  return jobs == lines.size() ? bad : -1;
}

/// Open loop: Poisson arrivals at kRate requests/s from one generator
/// thread over 4 connections (one tenant each) to the in-process server
/// (2 workers x 1-node jobs), about half its capacity. Queries hit PK
/// (read-only) and LJ (mutated by 2% of requests); roots are zipf over 256
/// vertices. Latency runs from each request's scheduled send time to its
/// completion line. Sorted by service time, p50 falls among the 5-15 ms
/// LJ traversals (bfs, cc, sssp: 40% of the mix) and p95 inside pr on LJ,
/// the slowest request (~70 ms, the top 8%).
RunResult ServeMixed(const Options& opt) {
  constexpr double kRate = 60;
  constexpr int kConns = 4;
  const std::vector<MixEntry> mix = {
      {"bfs", "PK", 10},  {"sssp", "PK", 14}, {"wp", "PK", 6},
      {"bfs", "LJ", 10},  {"sssp", "LJ", 20}, {"wp", "LJ", 8},
      {"mutate", "LJ", 2}, {"pr", "PK", 7},   {"cc", "PK", 5},
      {"pr", "LJ", 8},    {"cc", "LJ", 10}};
  auto submit_line = [](const std::string& tenant, const MixEntry& e,
                        VertexId root) {
    return "submit " + tenant + " " + e.app + " " + e.graph + " " +
           std::to_string(root) + "\n";
  };

  RunResult r;
  std::unique_ptr<Server> server;
  std::vector<double> build_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    Clock::time_point start = Clock::now();
    server = std::make_unique<Server>(opt.scale);
    std::vector<std::string> warmup;
    for (const MixEntry& e : mix) {
      if (std::strcmp(e.app, "mutate") != 0) {
        warmup.push_back(submit_line("warmup", e, 0));
      }
    }
    if (RunOverTcp(server->port(), warmup) != 0) {
      std::fprintf(stderr, "slfe_bench: serve-mixed warm-up failed\n");
      std::exit(1);
    }
    r.setup_s.push_back(SecondsSince(start));
    build_ms.push_back(server->build_ms());
  }
  service::JobService& svc = server->service();
  api::Session& session = svc.session();

  // Set-up-time RR-off summaries on the read-only PK graph, for the first
  // 16 roots of the zipf order and for cc.
  std::map<std::string, uint64_t> expected;
  for (const char* app : {"sssp", "bfs", "wp", "cc"}) {
    for (VertexId root = 0; root < 16; ++root) {
      api::AppRequest request;
      request.app = app;
      request.graph = "PK";
      request.root = root;
      api::AppOutcome base = Baseline(session, request);
      expected[std::string(app) + "/" + std::to_string(root)] = base.summary;
      if (std::strcmp(app, "cc") == 0) break;
    }
  }

  // The request stream: a fixed count of arrivals, spread over the
  // measuring time as a Poisson process conditioned on that count.
  Rng rng(opt.seed);
  Deck deck(mix);
  Zipf roots(256);
  std::shared_ptr<const Graph> lj = session.GetGraph("LJ");
  const size_t n = static_cast<size_t>(std::llround(kRate * opt.seconds));
  std::vector<double> offsets;
  for (size_t i = 0; i < n; ++i) offsets.push_back(rng.Uniform() * opt.seconds);
  std::sort(offsets.begin(), offsets.end());
  std::vector<Request> requests(n);
  for (size_t i = 0; i < n; ++i) {
    const MixEntry& e = deck.Next(rng);
    Request& q = requests[i];
    q.app = e.app;
    q.graph = e.graph;
    std::string tenant = "t" + std::to_string(i % kConns);
    if (q.app == "mutate") {
      GraphDelta delta = RandomDelta(*lj, 8, 8, rng);
      q.line = "mutate " + tenant + " " + q.graph;
      for (const Edge& ed : delta.insert) {
        q.line += " ins " + std::to_string(ed.src) + " " +
                  std::to_string(ed.dst) + " " +
                  std::to_string(static_cast<int>(ed.weight));
      }
      for (const auto& [src, dst] : delta.erase) {
        q.line += " del " + std::to_string(src) + " " + std::to_string(dst);
      }
      q.line += "\n";
    } else {
      q.root = q.app == "cc" ? 0 : roots.Sample(rng);
      q.line = submit_line(tenant, e, q.root);
    }
  }

  std::vector<Connection> conns(kConns);
  std::vector<pollfd> fds(kConns);
  for (int c = 0; c < kConns; ++c) {
    conns[c].client = std::make_unique<LineClient>(server->port());
    if (!conns[c].client->connected()) {
      std::fprintf(stderr, "slfe_bench: cannot connect to the server\n");
      std::exit(1);
    }
    fds[c] = pollfd{conns[c].client->fd(), POLLIN, 0};
  }

  obs::MetricsRegistry& metrics = svc.metrics();
  HistogramWindow queue_wait(
      metrics.GetHistogram("slfe_job_queue_wait_seconds", ""));
  HistogramWindow job_latency(
      metrics.GetHistogram("slfe_job_latency_seconds", ""));
  const GuidanceProviderStats before = svc.provider().stats();
  std::unique_ptr<SpanLog> spans =
      opt.trace ? std::make_unique<SpanLog>() : nullptr;
  GuidanceTally guidance;
  PairCounter pairs;
  std::vector<double> lag_ms, sent_latency_ms;
  uint64_t completed = 0, rejected = 0, duplicated = 0;

  auto handle = [&](Connection& conn, const std::string& line,
                    Clock::time_point now) {
    if (StartsWith(line, "queued req=") || StartsWith(line, "reject:")) {
      if (conn.awaiting_ack.empty()) return;
      size_t index = conn.awaiting_ack.front();
      conn.awaiting_ack.pop_front();
      if (line[0] == 'q') {
        conn.by_req[std::strtoull(line.c_str() + 11, nullptr, 10)] = index;
      } else {
        ++rejected;
        requests[index].done = true;
        r.Fail("rejected: " + line);
      }
      return;
    }
    if (!StartsWith(line, "job ")) return;
    auto it = conn.by_req.find(std::strtoull(FieldOf(line, "req").c_str(),
                                             nullptr, 10));
    if (it == conn.by_req.end()) return;
    Request& q = requests[it->second];
    if (q.done) {
      ++duplicated;
      r.Fail("duplicated completion: " + line);
      return;
    }
    q.done = true;
    ++completed;
    if (FieldOf(line, "status") != "ok") {
      r.Fail("failed: " + line);
      return;
    }
    double latency = MsBetween(q.due, now);
    (q.app == "mutate" ? r.mutation_ms : r.latency_ms).push_back(latency);
    sent_latency_ms.push_back(MsBetween(q.sent, now));
    if (spans != nullptr) {
      uint64_t id = spans->Add(0, it->second + 1, "request",
                               spans->OffsetMs(q.due), latency);
      spans->Add(id, it->second + 1, "send_lag", spans->OffsetMs(q.due),
                 MsBetween(q.due, q.sent));
    }
    if (q.app == "mutate") return;
    std::string served = FieldOf(line, "served");
    guidance.Add(served != "none", served == "cache" || served == "coalesced",
                 served == "repaired",
                 std::atof(FieldOf(line, "guidance").c_str()) * 1e3,
                 MsBetween(q.sent, now));
    if (q.graph == "PK") {
      auto want = expected.find(q.app + "/" + std::to_string(q.root));
      if (want != expected.end() &&
          std::strtoull(FieldOf(line, "summary").c_str(), nullptr, 10) !=
              want->second) {
        r.Fail("wrong summary: " + line);
      }
    }
  };
  auto receive = [&](int c, Clock::time_point now) {
    std::vector<std::string> lines;
    if (!conns[c].client->Receive(&lines)) conns[c].open = false;
    for (const std::string& line : lines) handle(conns[c], line, now);
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t i = 0; i < n; ++i) {
    requests[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(offsets[i]));
  }
  // The loop sends each request when it falls due and reads completions
  // in between; ppoll's timeout is the time to the next send.
  const Clock::time_point give_up =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt.seconds + 60));
  Clock::time_point last_done = start;
  size_t next = 0;
  while (Clock::now() < give_up) {
    Clock::time_point now = Clock::now();
    if (next < n && now >= requests[next].due) {
      Request& q = requests[next];
      Connection& conn = conns[next % kConns];
      q.sent = Clock::now();
      lag_ms.push_back(MsBetween(q.due, q.sent));
      conn.awaiting_ack.push_back(next);
      ++r.attempted;
      if (!conn.client->Send(q.line)) {
        r.Fail("send failed");
        conn.open = false;
      }
      ++next;
      continue;
    }
    if (next == n && completed + rejected >= n) break;
    auto wait = next < n ? requests[next].due - now
                         : std::chrono::duration_cast<Clock::duration>(
                               std::chrono::milliseconds(100));
    timespec ts{};
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait);
    ts.tv_sec = static_cast<time_t>(ns.count() / 1000000000);
    ts.tv_nsec = static_cast<long>(ns.count() % 1000000000);
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    now = Clock::now();
    for (int c = 0; c < kConns; ++c) {
      if (fds[c].revents == 0) continue;
      uint64_t done_before = completed;
      receive(c, now);
      if (completed != done_before) last_done = now;
      if (!conns[c].open) fds[c].fd = -1;  // ppoll skips negative fds
    }
  }
  r.measured_s = MsBetween(start, last_done) / 1e3;
  const uint64_t lost = n - completed - rejected;
  for (uint64_t i = 0; i < lost; ++i) r.Fail("lost request");
  for (int c = 0; c < kConns; ++c) {
    if (!conns[c].open) continue;
    conns[c].client->Send("quit\n");
    while (conns[c].open) receive(c, Clock::now());
  }
  server->StopNet();
  if (lost == 0 && duplicated == 0 && Quantile(lag_ms, 0.95) > kMaxLagP95Ms) {
    r.problems.push_back("generator lag p95 above 2 ms: run invalid");
    ++r.failed;
  }
  if (!opt.trace) return r;

  // Engine-layer view of the same mix: the first kReplayJobs queries of
  // the stream replayed in-process, one at a time, on the now-idle service.
  const GuidanceProviderStats after = svc.provider().stats();
  EngineTally engine;
  uint64_t replayed = 0;
  for (size_t i = 0; i < n && replayed < kReplayJobs; ++i) {
    if (requests[i].app == "mutate") continue;
    api::AppRequest request;
    request.app = requests[i].app;
    request.graph = requests[i].graph;
    request.root = requests[i].root;
    JobRun run = Execute(session, request, spans.get(), n + ++replayed);
    if (!run.outcome.status.ok()) {
      r.Fail("replay failed: " + run.outcome.status.ToString());
      continue;
    }
    engine.Add(run.outcome, run.wall_ms);
    if (run.tiled < 0.95 || run.tiled > 1.05) ++engine.untiled;
  }
  for (const Request& q : requests) {
    if (q.app == "mutate") continue;
    api::AppRequest request;
    request.app = q.app;
    request.graph = q.graph;
    request.root = q.root;
    pairs.Count(request);
  }
  for (const auto& [request, count] : pairs.pairs()) {
    r.pairs.push_back(MeasurePair(session, request, count));
  }
  const double client_p50 = Quantile(sent_latency_ms, 0.5);
  r.layers = {
      {"graph.build_ms", Median(build_ms), "ms"},
      {"graph.delta_apply_ms", DeltaApplyMs(*session.GetGraph("LJ"), opt.seed),
       "ms"},
      {"graph.mutate_ms_p50", Median(r.mutation_ms), "ms"},
      {"service.queue_wait_ms_p50", queue_wait.QuantileMs(0.5), "ms"},
      {"service.queue_wait_ms_p95", queue_wait.QuantileMs(0.95), "ms"},
      {"service.job_ms_p50", job_latency.QuantileMs(0.5), "ms"},
      {"service.job_ms_p95", job_latency.QuantileMs(0.95), "ms"},
      {"net.client_overhead_ms_p50",
       client_p50 - job_latency.QuantileMs(0.5), "ms"},
      {"load.lag_ms_p95", Quantile(lag_ms, 0.95), "ms"},
  };
  AddSharedLayers(engine, guidance, before, after, r.pairs, &r.layers);
  r.self_ms = spans->SelfMs();
  if (!opt.spans_path.empty() &&
      !spans->Write(opt.spans_path, opt.workload, opt.seed)) {
    r.problems.push_back("cannot write " + opt.spans_path);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::vector<Metric> EndToEnd(const RunResult& r) {
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"job_p50_ms", Quantile(r.latency_ms, 0.5), "ms"},
      {"job_p95_ms", Quantile(r.latency_ms, 0.95), "ms"},
      {"throughput_jobs_s",
       Ratio(static_cast<double>(r.latency_ms.size() + r.mutation_ms.size()),
             r.measured_s),
       "jobs/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// The run's full record: host and build, inputs, every metric computed,
/// the per-pair RR panel and the span self times.
bool WriteDetail(const Options& opt, const RunResult& r,
                 const std::vector<Metric>& end_to_end) {
  std::FILE* out = std::fopen(opt.out_path.c_str(), "w");
  if (out == nullptr) return false;
  std::string doc = "{\"bench\": \"slfe\", \"workload\": \"" + opt.workload +
                    "\", \"seed\": " + std::to_string(opt.seed) +
                    ", \"seconds\": " + Num(opt.seconds) +
                    ", \"trace\": " + (opt.trace ? "true" : "false") +
                    ", \"scale_divisor\": " + std::to_string(opt.scale);
  doc += ", \"host\": {\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" SLFE_BENCH_BUILD_TYPE "\", \"compiler\": \"" +
         JsonEscape(__VERSION__) + "\", \"commit\": \"" + BuildCommit() +
         "\", \"version\": \"" + BuildVersion() + "\"}";
  doc += ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"samples\": " + std::to_string(r.latency_ms.size()) +
         ", \"mutations\": " + std::to_string(r.mutation_ms.size()) +
         ", \"measured_s\": " + Num(r.measured_s);
  doc += ", \"setup_s_samples\": [";
  for (size_t i = 0; i < r.setup_s.size(); ++i) {
    doc += (i == 0 ? "" : ", ") + Num(r.setup_s[i]);
  }
  doc += "], \"metrics\": " +
         MetricsJson(opt.trace ? r.layers : end_to_end);
  doc += ", \"rr_pairs\": [";
  for (size_t i = 0; i < r.pairs.size(); ++i) {
    const PairResult& p = r.pairs[i];
    doc += std::string(i == 0 ? "" : ", ") + "{\"app\": \"" + p.app +
           "\", \"graph\": \"" + p.graph + "\", \"jobs\": " +
           std::to_string(p.jobs) + ", \"rr_ms\": " + Num(p.rr_ms) +
           ", \"outside_share\": " + Num(Ratio(p.rr_outside_ms, p.rr_ms)) +
           ", \"base_ms\": " + Num(p.base_ms) +
           ", \"speedup\": " + Num(Ratio(p.base_ms, p.rr_ms)) +
           ", \"rr_computations\": " + std::to_string(p.rr_computations) +
           ", \"base_computations\": " + std::to_string(p.base_computations) +
           ", \"work_ratio\": " +
           Num(Ratio(static_cast<double>(p.rr_computations),
                     static_cast<double>(p.base_computations))) +
           ", \"partition_ms\": " + Num(p.partition_ms) + "}";
  }
  doc += "], \"span_self_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : r.self_ms) {
    doc += (first ? "\"" : ", \"") + name + "\": " + Num(ms);
    first = false;
  }
  doc += "}, \"problems\": [";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    doc += std::string(i == 0 ? "\"" : ", \"") + JsonEscape(r.problems[i]) +
           "\"";
  }
  doc += "]}\n";
  std::fputs(doc.c_str(), out);
  return std::fclose(out) == 0;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

int Usage() {
  std::fprintf(stderr,
               "usage: slfe_bench --workload=arith-batch|minmax-batch|"
               "mutate-query|serve-mixed\n"
               "  [--seed=N] [--seconds=S] [--trace=0|1] [--scale=D]\n"
               "  [--out=DETAIL.json] [--spans=SPANS.json]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      opt.workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      opt.seconds = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      opt.trace = v == "1";
    } else if (ParseFlag(argv[i], "--scale", &v)) {
      opt.scale = static_cast<uint32_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "--out", &v)) {
      opt.out_path = v;
    } else if (ParseFlag(argv[i], "--spans", &v)) {
      opt.spans_path = v;
    } else {
      return Usage();
    }
  }
  if (opt.seconds <= 0 || opt.scale < 1) return Usage();

  RunResult r;
  if (opt.workload == "arith-batch") {
    r = ArithBatch(opt);
  } else if (opt.workload == "minmax-batch") {
    r = MinmaxBatch(opt);
  } else if (opt.workload == "mutate-query") {
    r = MutateQuery(opt);
  } else if (opt.workload == "serve-mixed") {
    r = ServeMixed(opt);
  } else {
    return Usage();
  }

  std::vector<Metric> end_to_end = EndToEnd(r);
  if (!opt.out_path.empty() && !WriteDetail(opt, r, end_to_end)) {
    r.problems.push_back("cannot write " + opt.out_path);
  }
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "slfe_bench: %s: %s\n", opt.workload.c_str(),
                 p.c_str());
  }
  const std::vector<Metric>& shown = opt.trace ? r.layers : end_to_end;
  for (const Metric& m : shown) {
    std::printf("metric %s %s %s %s\n", opt.workload.c_str(), m.name.c_str(),
                Num(m.value).c_str(), m.unit);
  }
  // A run too short to send one request checked nothing.
  const bool correct =
      r.attempted > 0 && r.failed == 0 && r.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(1, r.attempted)),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(shown).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace slfe::perf

int main(int argc, char** argv) { return slfe::perf::Main(argc, argv); }
