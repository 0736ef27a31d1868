#ifndef SLFE_GAS_GAS_APPS_H_
#define SLFE_GAS_GAS_APPS_H_

#include <vector>

#include "slfe/gas/gas_engine.h"
#include "slfe/graph/graph.h"

namespace slfe::gas {

/// The five evaluation applications (paper Table 5) expressed as GAS
/// vertex programs, used as the PowerGraph/PowerLyra comparison points.
/// Each returns the final values plus the engine statistics.

struct GasSsspResult {
  std::vector<float> dist;
  GasStats stats;
};
GasSsspResult RunGasSssp(const Graph& graph, VertexId root,
                         const GasOptions& options);

struct GasCcResult {
  std::vector<uint32_t> labels;
  GasStats stats;
};
GasCcResult RunGasCc(const Graph& graph, const GasOptions& options);

struct GasWpResult {
  std::vector<float> width;
  GasStats stats;
};
GasWpResult RunGasWp(const Graph& graph, VertexId root,
                     const GasOptions& options);

struct GasPrResult {
  std::vector<float> ranks;
  GasStats stats;
};
GasPrResult RunGasPr(const Graph& graph, uint32_t iterations,
                     const GasOptions& options);

struct GasTrResult {
  std::vector<float> influence;
  GasStats stats;
};
GasTrResult RunGasTr(const Graph& graph, uint32_t iterations,
                     const GasOptions& options,
                     float retweet_probability = 0.5f);

}  // namespace slfe::gas

#endif  // SLFE_GAS_GAS_APPS_H_
