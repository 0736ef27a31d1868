#include "slfe/ooc/ooc_engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "slfe/common/scoped_file.h"
#include "slfe/common/timer.h"

namespace slfe::ooc {

namespace {

/// On-disk edge record (12 bytes, packed by construction).
struct Record {
  uint32_t src;
  uint32_t dst;
  float weight;
};

}  // namespace

std::string OocEngine::ShardPath(uint32_t shard) const {
  return work_dir_ + "/shard_" + std::to_string(shard) + ".bin";
}

Result<OocEngine> OocEngine::Build(const Graph& graph,
                                   const std::string& work_dir,
                                   uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  ::mkdir(work_dir.c_str(), 0755);

  OocEngine engine;
  engine.work_dir_ = work_dir;
  engine.num_shards_ = num_shards;
  engine.num_vertices_ = graph.num_vertices();
  engine.num_edges_ = graph.num_edges();

  // Interval i covers destinations [i*span, (i+1)*span). Within a shard,
  // edges are written grouped by destination with ascending sources
  // (GraphChi keeps them src-sorted for its sliding windows; here the
  // order matters only for determinism).
  VertexId span = (graph.num_vertices() + num_shards - 1) / num_shards;
  const Csr& in = graph.in();
  for (uint32_t s = 0; s < num_shards; ++s) {
    ScopedFile f(engine.ShardPath(s), "wb");
    if (!f.ok()) {
      return Status::IOError("cannot create shard " + engine.ShardPath(s));
    }
    VertexId lo = s * span;
    VertexId hi = std::min<VertexId>(lo + span, graph.num_vertices());
    for (VertexId dst = lo; dst < hi; ++dst) {
      for (EdgeId e = in.begin(dst); e < in.end(dst); ++e) {
        Record r{in.neighbor(e), dst, in.weight(e)};
        if (std::fwrite(&r, sizeof(Record), 1, f.get()) != 1) {
          return Status::IOError("shard write failed");
        }
      }
    }
  }
  return engine;
}

Status OocEngine::RunIteration(
    const std::function<void(VertexId, VertexId, Weight)>& fn,
    OocStats* stats) {
  std::vector<Record> buf(8192);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Timer io_timer;
    ScopedFile f(ShardPath(s), "rb");
    if (!f.ok()) return Status::IOError("missing shard " + ShardPath(s));
    while (true) {
      size_t got = std::fread(buf.data(), sizeof(Record), buf.size(), f.get());
      if (stats != nullptr) {
        stats->io_seconds += io_timer.Seconds();
        stats->bytes_read += got * sizeof(Record);
      }
      if (got == 0) break;
      Timer compute_timer;
      for (size_t i = 0; i < got; ++i) {
        fn(buf[i].src, buf[i].dst, buf[i].weight);
      }
      if (stats != nullptr) {
        stats->computations += got;
        stats->compute_seconds += compute_timer.Seconds();
      }
      io_timer.Reset();
    }
  }
  if (stats != nullptr) ++stats->iterations;
  return Status::OK();
}

Status OocEngine::RemoveFiles() {
  for (uint32_t s = 0; s < num_shards_; ++s) {
    std::remove(ShardPath(s).c_str());
  }
  return Status::OK();
}

OocStats OocPr(OocEngine& engine, const Graph& graph, uint32_t iterations,
               std::vector<float>* ranks) {
  OocStats stats;
  VertexId n = engine.num_vertices();
  ranks->assign(n, 1.0f);
  std::vector<float>& r = *ranks;
  std::vector<float> contrib(n), acc(n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId od = graph.out_degree(v);
    contrib[v] = od > 0 ? 1.0f / static_cast<float>(od) : 1.0f;
  }
  for (uint32_t it = 0; it < iterations; ++it) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    engine.RunIteration(
        [&](VertexId src, VertexId dst, Weight) { acc[dst] += contrib[src]; },
        &stats);
    for (VertexId v = 0; v < n; ++v) {
      r[v] = 0.15f + 0.85f * acc[v];
      VertexId od = graph.out_degree(v);
      contrib[v] = od > 0 ? r[v] / static_cast<float>(od) : r[v];
    }
  }
  return stats;
}

OocStats OocCc(OocEngine& engine, std::vector<uint32_t>* labels) {
  OocStats stats;
  VertexId n = engine.num_vertices();
  labels->resize(n);
  std::iota(labels->begin(), labels->end(), 0u);
  std::vector<uint32_t>& l = *labels;
  bool changed = true;
  while (changed) {
    changed = false;
    engine.RunIteration(
        [&](VertexId src, VertexId dst, Weight) {
          if (l[src] < l[dst]) {
            l[dst] = l[src];
            changed = true;
          }
        },
        &stats);
  }
  return stats;
}

}  // namespace slfe::ooc
