#include "mapping/hungarian.h"

#include "common/logging.h"

namespace urm {
namespace mapping {

AssignmentResult SolveAssignment(const CostMatrix& cost,
                                 AssignmentWorkspace* workspace) {
  const int n = cost.rows, m = cost.cols;
  URM_CHECK_LE(n, m) << "more rows than columns";
  URM_CHECK_EQ(cost.cells.size(),
               static_cast<size_t>(n) * static_cast<size_t>(m));

  const double kInf = std::numeric_limits<double>::infinity();
  // 1-based potentials/arrays; p[j] = row matched to column j (0: none).
  std::vector<double>& u = workspace->u;
  std::vector<double>& v = workspace->v;
  std::vector<double>& minv = workspace->minv;
  std::vector<int>& p = workspace->p;
  std::vector<int>& way = workspace->way;
  std::vector<char>& used = workspace->used;
  u.assign(static_cast<size_t>(n) + 1, 0.0);
  v.assign(static_cast<size_t>(m) + 1, 0.0);
  p.assign(static_cast<size_t>(m) + 1, 0);
  way.assign(static_cast<size_t>(m) + 1, 0);

  AssignmentResult result;
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    minv.assign(static_cast<size_t>(m) + 1, kInf);
    used.assign(static_cast<size_t>(m) + 1, 0);
    do {
      used[j0] = 1;
      const int i0 = p[j0];
      const double* row = &cost.cells[static_cast<size_t>(i0 - 1) *
                                      static_cast<size_t>(m)];
      int j1 = 0;
      double delta = kInf;
      for (int j = 1; j <= m; ++j) {
        if (used[j]) continue;
        if (row[j - 1] != kForbiddenCost) {
          double cur = row[j - 1] - u[i0] - v[j];
          if (cur < minv[j]) {
            minv[j] = cur;
            way[j] = j0;
          }
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      // Every column the search can still reach is behind a forbidden
      // cell: row i has no column of its own.
      if (j1 == 0) return result;
      for (int j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  result.row_to_col.assign(static_cast<size_t>(n), -1);
  for (int j = 1; j <= m; ++j) {
    if (p[j] != 0) result.row_to_col[p[j] - 1] = j - 1;
  }
  for (int i = 0; i < n; ++i) result.cost += cost.at(i, result.row_to_col[i]);
  result.feasible = true;
  return result;
}

}  // namespace mapping
}  // namespace urm
