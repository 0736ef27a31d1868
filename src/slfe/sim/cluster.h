#ifndef SLFE_SIM_CLUSTER_H_
#define SLFE_SIM_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "slfe/common/thread_pool.h"
#include "slfe/sim/comm.h"

namespace slfe::sim {

/// Everything one SPMD rank needs: its id, the shared World, and a private
/// thread pool for intra-node parallelism (the paper's 68 cores per node).
struct NodeContext {
  int rank = 0;
  int num_nodes = 1;
  World* world = nullptr;
  ThreadPool* pool = nullptr;
};

/// Drives an SPMD program over N simulated nodes, each a dedicated OS
/// thread with `threads_per_node` worker threads. This substitutes for
/// `mpirun -np N` on the paper's cluster.
class Cluster {
 public:
  Cluster(int num_nodes, int threads_per_node = 1);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_nodes() const { return num_nodes_; }
  World& world() { return *world_; }

  /// Runs `fn(ctx)` once per rank, concurrently, and joins. Can be invoked
  /// repeatedly; the World's barrier state persists across runs.
  void Run(const std::function<void(NodeContext&)>& fn);

 private:
  int num_nodes_;
  std::unique_ptr<World> world_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

}  // namespace slfe::sim

#endif  // SLFE_SIM_CLUSTER_H_
