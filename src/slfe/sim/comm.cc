#include "slfe/sim/comm.h"

namespace slfe::sim {

World::World(int num_nodes) : num_nodes_(num_nodes) {
  SLFE_CHECK_GE(num_nodes, 1);
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

double World::AllReduce(int rank, double value,
                        const std::function<double(double, double)>& op) {
  (void)rank;
  {
    std::lock_guard<std::mutex> lock(reduce_mu_);
    if (reduce_arrived_ == 0) {
      reduce_value_ = value;
    } else {
      reduce_value_ = op(reduce_value_, value);
    }
    ++reduce_arrived_;
  }
  Barrier();  // all contributions in
  double result;
  {
    std::lock_guard<std::mutex> lock(reduce_mu_);
    result = reduce_value_;
  }
  Barrier();  // all reads done before scratch reuse
  {
    std::lock_guard<std::mutex> lock(reduce_mu_);
    reduce_arrived_ = 0;
  }
  Barrier();  // reset visible to everyone
  return result;
}

uint64_t World::AllReduceSum(int rank, uint64_t value) {
  (void)rank;
  reduce_mu_.lock();
  reduce_u64_ += value;
  reduce_mu_.unlock();
  Barrier();
  uint64_t result = reduce_u64_;
  Barrier();
  reduce_mu_.lock();
  reduce_u64_ = 0;
  reduce_mu_.unlock();
  Barrier();
  return result;
}

}  // namespace slfe::sim
