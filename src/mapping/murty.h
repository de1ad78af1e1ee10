#pragma once

#include <utility>
#include <vector>

#include "common/status.h"

/// \file murty.h
/// Murty's algorithm for enumerating the k best (maximum-weight)
/// bipartite matchings, allowing nodes to stay unmatched (partial
/// matchings). This is the "bipartite matching algorithm" the paper
/// cites ([9],[10]) for deriving the h possible mappings with the
/// highest similarity scores from a matcher's similarity matrix.
///
/// Each Murty cell is solved as a rectangular assignment on an
/// R × (C + R) matrix, one row per target and one column per source
/// plus one skip column per row: an edge costs W − weight and row i's
/// skip column C + i costs W, W = max weight + 1, so a minimum-cost
/// assignment is a maximum-weight partial matching and a matching is
/// exactly one assignment. Cells are ranked by the cost of the square
/// (R + C)² embedding that also gives each source column a W-cost skip
/// row, summed over the columns in index order; with the solver's
/// deterministic tie-breaking this fixes the order among equal-weight
/// matchings.

namespace urm {
namespace mapping {

/// A scored candidate pair (row = target attribute index, col = source
/// attribute index).
struct WeightedEdge {
  int row = 0;
  int col = 0;
  double weight = 0.0;
};

/// One enumerated matching: chosen (row, col) pairs and total weight.
struct MatchingSolution {
  std::vector<std::pair<int, int>> edges;  ///< sorted by row
  double weight = 0.0;
};

/// Returns up to `k` distinct partial matchings in non-increasing weight
/// order. Weights must be positive (a zero-weight edge is never
/// preferable to leaving both nodes unmatched) and finite.
Result<std::vector<MatchingSolution>> KBestMatchings(
    int num_rows, int num_cols, const std::vector<WeightedEdge>& edges,
    int k);

}  // namespace mapping
}  // namespace urm
