#include "slfe/sim/comm.h"

namespace slfe::sim {

World::World(int num_nodes) : num_nodes_(num_nodes) {
  SLFE_CHECK_GE(num_nodes, 1);
  for (int set = 0; set < 2; ++set) {
    double_slots_[set].assign(num_nodes, 0.0);
    u64_slots_[set].assign(num_nodes, 0);
  }
  parity_.assign(num_nodes, 0);
}

void World::Barrier() {
  std::unique_lock<std::mutex> lock(barrier_mu_);
  bool my_sense = barrier_sense_;
  if (++barrier_waiting_ == num_nodes_) {
    barrier_waiting_ = 0;
    barrier_sense_ = !barrier_sense_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [&] { return barrier_sense_ != my_sense; });
  }
}

int World::NextSlotSet(int rank) {
  SLFE_CHECK(rank >= 0 && rank < num_nodes_) << "rank " << rank;
  int set = parity_[rank];
  parity_[rank] ^= 1;
  return set;
}

double World::AllReduce(int rank, double value,
                        const std::function<double(double, double)>& op) {
  std::vector<double>& slots = double_slots_[NextSlotSet(rank)];
  slots[rank] = value;
  Barrier();  // every slot written
  double result = slots[0];
  for (int r = 1; r < num_nodes_; ++r) result = op(result, slots[r]);
  return result;
}

uint64_t World::AllReduceSum(int rank, uint64_t value) {
  std::vector<uint64_t>& slots = u64_slots_[NextSlotSet(rank)];
  slots[rank] = value;
  Barrier();  // every slot written
  uint64_t result = 0;
  for (uint64_t v : slots) result += v;
  return result;
}

}  // namespace slfe::sim
