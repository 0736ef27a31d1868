#ifndef SLFE_SIM_COMM_H_
#define SLFE_SIM_COMM_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "slfe/common/logging.h"

namespace slfe::sim {

/// Models the network of the paper's 8-node InfiniBand cluster. Virtual
/// communication time for a superstep is
///   latency_per_message * messages + bytes / bandwidth
/// evaluated per node and max-reduced, mirroring BSP h-relation cost.
/// Defaults approximate a 100 Gb/s fabric with ~2 us one-way latency.
struct CostModel {
  double latency_per_message = 2e-6;
  double bytes_per_second = 12.5e9;  // 100 Gb/s

  double Cost(uint64_t messages, uint64_t bytes) const {
    return latency_per_message * static_cast<double>(messages) +
           static_cast<double>(bytes) / bytes_per_second;
  }
};

/// In-memory stand-in for MPI's collectives. N ranks (threads) share a
/// World: a barrier and reduction slots. No payload crosses it — the
/// engines charge their traffic as counts through CostModel. All
/// collective calls must be invoked by every rank, in the same order.
class World {
 public:
  explicit World(int num_nodes);

  int num_nodes() const { return num_nodes_; }

  /// Sense-reversing barrier across all ranks.
  void Barrier();

  /// All-reduce of one double using `op`. Every rank passes its local
  /// value and all receive the fold in rank order, op(op(v0, v1), v2)...,
  /// so a floating-point sum is bit-identical on every rank and does not
  /// depend on which rank arrived first. Costs one barrier.
  double AllReduce(int rank, double value,
                   const std::function<double(double, double)>& op);

  /// All-reduce specialization: sum of uint64 (active-vertex counts etc.).
  /// Costs one barrier.
  uint64_t AllReduceSum(int rank, uint64_t value);

 private:
  /// The slot set `rank`'s current collective writes: its calls alternate
  /// between two. Call k may reuse call k-2's set because every rank has
  /// finished folding call k-2 before it arrives at call k-1's barrier,
  /// which the writer of call k has passed, so no reset barrier is needed.
  int NextSlotSet(int rank);

  int num_nodes_;

  // Barrier state (sense-reversing).
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ = 0;
  bool barrier_sense_ = false;

  // Reduction slots: one per rank in each of two sets, selected by the
  // rank's own call parity.
  std::vector<double> double_slots_[2];
  std::vector<uint64_t> u64_slots_[2];
  std::vector<uint8_t> parity_;
};

}  // namespace slfe::sim

#endif  // SLFE_SIM_COMM_H_
