#pragma once

#include <cstddef>
#include <limits>
#include <vector>

/// \file hungarian.h
/// Minimum-cost assignment of every row of a rectangular matrix
/// (rows <= columns) to a column of its own: the Hungarian algorithm
/// with potentials, O(rows² · columns). Substrate for Murty's k-best
/// matching enumeration, which the paper cites ([9],[10]) as the way
/// possible mappings are generated from a similarity matrix.
///
/// Rows are added one at a time in index order, and each search scans
/// the columns in index order and moves to a column only on a strictly
/// smaller reduced cost, so among optimal assignments the one returned
/// depends only on the matrix: callers that rank solutions rely on
/// that for a stable order among equal costs.

namespace urm {
namespace mapping {

/// Marks a cell no assignment may use. The solver skips such cells, so
/// they never enter a potential or a sum and finite costs of any size
/// stay usable.
constexpr double kForbiddenCost = std::numeric_limits<double>::infinity();

/// A rows × cols cost matrix, stored row-major in one flat vector.
struct CostMatrix {
  CostMatrix() = default;
  CostMatrix(int num_rows, int num_cols, double fill)
      : rows(num_rows),
        cols(num_cols),
        cells(static_cast<size_t>(num_rows) * static_cast<size_t>(num_cols),
              fill) {}

  double& at(int i, int j) {
    return cells[static_cast<size_t>(i) * static_cast<size_t>(cols) +
                 static_cast<size_t>(j)];
  }
  double at(int i, int j) const {
    return cells[static_cast<size_t>(i) * static_cast<size_t>(cols) +
                 static_cast<size_t>(j)];
  }

  int rows = 0;
  int cols = 0;
  std::vector<double> cells;
};

struct AssignmentResult {
  /// row_to_col[i] = column assigned to row i (empty when infeasible).
  std::vector<int> row_to_col;
  /// Sum of the chosen entries, in row order.
  double cost = 0.0;
  /// False when some row cannot be given a column of its own without a
  /// kForbiddenCost cell.
  bool feasible = false;
};

/// The solver's potentials and search arrays. A caller that solves many
/// matrices passes the same workspace to every solve so they are
/// allocated once.
struct AssignmentWorkspace {
  std::vector<double> u, v, minv;
  std::vector<int> p, way;
  std::vector<char> used;
};

/// Solves min-cost assignment for `cost` (rows <= cols). Entries must be
/// finite or kForbiddenCost.
AssignmentResult SolveAssignment(const CostMatrix& cost,
                                 AssignmentWorkspace* workspace);

}  // namespace mapping
}  // namespace urm
