#ifndef SLFE_CORE_ROOTS_H_
#define SLFE_CORE_ROOTS_H_

#include <vector>

#include "slfe/graph/graph.h"
#include "slfe/graph/types.h"

namespace slfe {

/// Root-set selection for RR guidance generation, per application class
/// (the guidance sweep must start where the application's own propagation
/// starts for the "propagation order" to be meaningful).

/// Roots for label-propagation apps whose final label is the component
/// minimum (CC): every local minimum — a vertex smaller than all of its
/// out-neighbors' ids cannot receive its final label from elsewhere at
/// level 0... Conservatively we take vertices that are smaller than ALL
/// their in-neighbors (their own label survives the first round and can
/// seed propagation). The component minimum is always included.
std::vector<VertexId> SelectLocalMinimaRoots(const Graph& graph);

/// Roots for arithmetic apps (PR/TR): zero-in-degree vertices, falling
/// back to vertex 0 for cycle-bound graphs.
std::vector<VertexId> SelectSourceRoots(const Graph& graph);

}  // namespace slfe

#endif  // SLFE_CORE_ROOTS_H_
