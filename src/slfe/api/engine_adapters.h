#ifndef SLFE_API_ENGINE_ADAPTERS_H_
#define SLFE_API_ENGINE_ADAPTERS_H_

#include <cstdint>
#include <vector>

#include "slfe/api/app_registry.h"
#include "slfe/gas/gas_engine.h"
#include "slfe/ooc/ooc_engine.h"
#include "slfe/shm/shm_engine.h"

namespace slfe::api {

/// Helpers for the non-dist runners an app registers: fold each engine's
/// native stats into the uniform AppRunInfo (so AppOutcome accounting —
/// runtime, computations, skipped — means the same thing on every
/// engine), and widen native value vectors into AppOutcome::values.

inline AppRunInfo FromGasStats(const gas::GasStats& stats) {
  AppRunInfo info;
  info.supersteps = stats.supersteps;
  info.stats.iterations = stats.supersteps;
  info.stats.computations = stats.computations;
  info.stats.updates = stats.updates;
  info.stats.messages = stats.messages;
  info.stats.bytes = stats.bytes;
  info.stats.push_seconds = stats.compute_seconds;
  info.stats.comm_seconds = stats.comm_seconds;
  return info;
}

inline AppRunInfo FromOocStats(const ooc::OocStats& stats) {
  AppRunInfo info;
  info.supersteps = stats.iterations;
  info.stats.iterations = stats.iterations;
  info.stats.computations = stats.computations;
  info.stats.bytes = stats.bytes_read;
  info.stats.pull_seconds = stats.io_seconds;
  info.stats.push_seconds = stats.compute_seconds;
  return info;
}

inline AppRunInfo FromShmStats(const shm::ShmStats& stats) {
  AppRunInfo info;
  info.supersteps = stats.supersteps;
  info.stats.iterations = stats.supersteps;
  info.stats.computations = stats.computations;
  info.stats.updates = stats.updates;
  info.stats.push_seconds = stats.seconds;
  return info;
}

template <typename T>
std::vector<double> ToValues(const std::vector<T>& values) {
  return std::vector<double>(values.begin(), values.end());
}

/// The shm engine is single-node: it gets the session's total parallelism
/// (nodes x threads) as its worker-thread count.
inline size_t ShmThreads(const AppConfig& config) {
  return static_cast<size_t>(config.num_nodes) *
         static_cast<size_t>(config.threads_per_node);
}

}  // namespace slfe::api

#endif  // SLFE_API_ENGINE_ADAPTERS_H_
