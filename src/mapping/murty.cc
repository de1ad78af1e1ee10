#include "mapping/murty.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "mapping/hungarian.h"

namespace urm {
namespace mapping {

namespace {

/// A Murty search node: a cell of the solution space described by
/// forced and forbidden (row, col) pairs, plus the best solution within
/// the cell.
struct Node {
  std::vector<std::pair<int, int>> forced;
  std::vector<std::pair<int, int>> forbidden;
  std::vector<int> row_to_col;  // best assignment within the cell
  double cost = 0.0;            // its (min) cost
};

struct NodeCostGreater {
  bool operator()(const Node& a, const Node& b) const {
    return a.cost > b.cost;
  }
};

}  // namespace

Result<std::vector<MatchingSolution>> KBestMatchings(
    int num_rows, int num_cols, const std::vector<WeightedEdge>& edges,
    int k) {
  if (num_rows < 0 || num_cols < 0) {
    return Status::InvalidArgument("negative dimensions");
  }
  if (k <= 0) return Status::InvalidArgument("k must be positive");

  double max_weight = 0.0;
  for (const auto& e : edges) {
    if (e.row < 0 || e.row >= num_rows || e.col < 0 || e.col >= num_cols) {
      return Status::OutOfRange("edge endpoint out of range");
    }
    if (!std::isfinite(e.weight) || e.weight <= 0.0) {
      return Status::InvalidArgument(
          "edge weights must be positive and finite");
    }
    max_weight = std::max(max_weight, e.weight);
  }

  // One row per target, one column per source plus one skip column per
  // row (column C + i is row i's). Entry base cost W ensures minimizing
  // cost maximizes total weight.
  const int R = num_rows, C = num_cols, N = R + C;
  const double W = max_weight + 1.0;
  // A cell's cost is a sum of N entries of at most W each.
  if (!std::isfinite(W * N)) {
    return Status::InvalidArgument("edge weights too large");
  }
  CostMatrix base(R, N, kForbiddenCost);
  for (const auto& e : edges) base.at(e.row, e.col) = W - e.weight;
  for (int i = 0; i < R; ++i) base.at(i, C + i) = W;

  CostMatrix cost;
  AssignmentWorkspace workspace;
  std::vector<int> holder(static_cast<size_t>(N));
  // Solves `node`'s cell into its row_to_col and cost; false if empty.
  auto solve = [&](Node* node) {
    cost = base;
    for (const auto& [i, j] : node->forbidden) cost.at(i, j) = kForbiddenCost;
    for (const auto& [i, j] : node->forced) {
      for (int jj = 0; jj < N; ++jj) {
        if (jj != j) cost.at(i, jj) = kForbiddenCost;
      }
    }
    AssignmentResult best = SolveAssignment(cost, &workspace);
    if (!best.feasible) return false;
    // The queue ranks cells by the cost of the square (R + C)² embedding
    // with one W-cost row per source column: summed over the columns in
    // index order, W wherever no row of ours holds the column. The
    // order among equal-weight matchings depends on these exact bits.
    std::fill(holder.begin(), holder.end(), -1);
    for (int i = 0; i < R; ++i) holder[best.row_to_col[i]] = i;
    node->cost = 0.0;
    for (int j = 0; j < N; ++j) {
      node->cost += holder[j] >= 0 ? base.at(holder[j], j) : W;
    }
    node->row_to_col = std::move(best.row_to_col);
    return true;
  };

  auto to_solution = [&](const std::vector<int>& row_to_col) {
    MatchingSolution sol;
    for (int i = 0; i < R; ++i) {
      int j = row_to_col[i];
      if (j < C) {
        sol.edges.emplace_back(i, j);
        sol.weight += W - base.at(i, j);
      }
    }
    return sol;
  };

  std::priority_queue<Node, std::vector<Node>, NodeCostGreater> queue;
  {
    Node root;
    if (solve(&root)) queue.push(std::move(root));
  }

  std::vector<MatchingSolution> out;
  while (!queue.empty() && static_cast<int>(out.size()) < k) {
    Node node = queue.top();
    queue.pop();
    out.push_back(to_solution(node.row_to_col));

    // Partition the cell on each row's assignment, skip columns
    // included, so every matching lies in exactly one child.
    Node child;
    child.forced = node.forced;
    child.forbidden = node.forbidden;
    for (int i = 0; i < R; ++i) {
      // Skip rows already forced by an ancestor cell.
      bool already_forced = false;
      for (const auto& [fi, fj] : node.forced) {
        if (fi == i) {
          already_forced = true;
          break;
        }
      }
      if (!already_forced) {
        Node branch = child;
        branch.forbidden.emplace_back(i, node.row_to_col[i]);
        if (solve(&branch)) queue.push(std::move(branch));
      }
      child.forced.emplace_back(i, node.row_to_col[i]);
    }
  }
  return out;
}

}  // namespace mapping
}  // namespace urm
