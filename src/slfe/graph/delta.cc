#include "slfe/graph/delta.h"

#include <string>
#include <unordered_set>
#include <vector>

#include "slfe/graph/edge_list.h"

namespace slfe {

namespace {

/// (src, dst) folded into one 64-bit set key (VertexId is u32).
inline uint64_t PairKey(VertexId src, VertexId dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}

/// Marks on a base out-row: which of the batch's two set lookups its
/// edges need. An unmarked row needs neither and is copied as is.
constexpr uint8_t kRowHasErase = 1;
constexpr uint8_t kRowHasInsert = 2;

}  // namespace

Result<Graph> ApplyDelta(const Graph& base, const GraphDelta& delta,
                         GraphDeltaStats* stats) {
  GraphDeltaStats local;
  const VertexId base_n = base.num_vertices();
  const Csr& out = base.out();
  std::vector<uint8_t> touched(base_n, 0);

  std::unordered_set<uint64_t> erase_set;
  erase_set.reserve(delta.erase.size() * 2);
  for (const auto& [src, dst] : delta.erase) {
    if (src >= base_n || dst >= base_n) {
      return Status::InvalidArgument(
          "delta deletes edge (" + std::to_string(src) + ", " +
          std::to_string(dst) + ") outside the base graph (|V|=" +
          std::to_string(base_n) + ")");
    }
    erase_set.insert(PairKey(src, dst));
    touched[src] |= kRowHasErase;
  }

  // An insertion can only duplicate a pair of its own source row, so
  // `present` needs the surviving pairs of the rows insertions land on,
  // not of the whole graph.
  size_t present_bound = delta.insert.size();
  for (const Edge& e : delta.insert) {
    if (e.src == kInvalidVertex || e.dst == kInvalidVertex) {
      // |V| = id + 1 would wrap to 0.
      return Status::InvalidArgument(
          "delta inserts edge (" + std::to_string(e.src) + ", " +
          std::to_string(e.dst) + ") naming the reserved vertex id " +
          std::to_string(kInvalidVertex));
    }
    if (e.src < base_n && (touched[e.src] & kRowHasInsert) == 0) {
      touched[e.src] |= kRowHasInsert;
      present_bound += out.degree(e.src);
    }
  }

  // Pass 1: the base's out-rows in order, deleted pairs filtered. This IS
  // the deterministic-order contract: FromEdges' counting sort is stable,
  // so survivors keep their relative row positions in the new CSR.
  EdgeList edges(base_n);
  edges.Reserve(base.num_edges() + delta.insert.size());
  std::unordered_set<uint64_t> present;
  present.reserve(present_bound);
  std::unordered_set<uint64_t> erase_hit;
  erase_hit.reserve(erase_set.size());
  for (VertexId v = 0; v < base_n; ++v) {
    const uint8_t marks = touched[v];
    for (EdgeId e = out.begin(v); e < out.end(v); ++e) {
      VertexId dst = out.neighbor(e);
      uint64_t key = PairKey(v, dst);
      if ((marks & kRowHasErase) != 0 && erase_set.count(key) != 0) {
        ++local.edges_deleted;
        erase_hit.insert(key);
        continue;
      }
      edges.Add(v, dst, out.weight(e));
      if ((marks & kRowHasInsert) != 0) present.insert(key);
    }
  }
  // Requested pairs that removed no copy never existed: counted, never an
  // error, so a client can replay a batch idempotently.
  local.missing_deletes = erase_set.size() - erase_hit.size();

  // Pass 2: insertions in batch order, duplicate pairs skipped (first
  // weight wins: a live pair, or the batch's earlier copy, keeps its own).
  for (const Edge& e : delta.insert) {
    uint64_t key = PairKey(e.src, e.dst);
    if (!present.insert(key).second) {
      ++local.duplicate_inserts;
      continue;
    }
    edges.Add(e.src, e.dst, e.weight);  // grows the vertex bound as needed
    ++local.edges_inserted;
  }

  if (stats != nullptr) *stats = local;
  return Graph::FromEdges(edges);
}

}  // namespace slfe
