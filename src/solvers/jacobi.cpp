#include "solvers/jacobi.hpp"

#include <cmath>

#include "ops/kernels.hpp"
#include "util/timer.hpp"

namespace tealeaf {

SolveStats JacobiSolver::solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                                    const Team& team) {
  // Each sweep is a two-phase row-blocked pass: every block runs
  // jacobi_tile (2-D: cache-fused save with the update row-lagged one row
  // behind; 3-D: save-only, since adjacent planes' stencils — other tiles
  // — read every saved row), a barrier, then jacobi_tile_edges finishes
  // the deferred rows.  Both passes — which MUST share one tile
  // decomposition, since the edge pass finishes exactly the rows the
  // first deferred — deposit per-row error partials into the chunk's row
  // scratch, and combine_row_partials reduces them.  All loop-control
  // state is computed identically on every thread (team reductions are
  // rank/row-ordered), so the sweep loop and its early exits are uniform
  // across the team.
  Timer timer;
  SolveStats st;
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };

  double initial_err = 0.0;
  while (st.outer_iters < cfg.max_iters) {
    cl.exchange(&team, {FieldId::kU}, 1);
    cl.for_each_tile(team, interior,
                     [](int, Chunk2D& c, const Bounds& tb) {
                       kernels::jacobi_tile(c, tb, c.row_scratch());
                     });
    team.barrier();  // edge rows read every block's saved rows
    cl.for_each_tile(team, interior,
                     [](int, Chunk2D& c, const Bounds& tb) {
                       kernels::jacobi_tile_edges(c, tb, c.row_scratch());
                     });
    const double err = cl.combine_row_partials(team);
    ++st.outer_iters;
    ++st.spmv_applies;  // one operator-equivalent sweep
    if (st.outer_iters == 1) {
      initial_err = err;
      st.initial_norm = err;
      if (err == 0.0) {
        st.converged = true;
        break;
      }
    }
    st.final_norm = err;
    if (st.break_on_nonfinite(err, "Jacobi")) break;
    if (err <= cfg.eps * initial_err) {
      st.converged = true;
      break;
    }
  }
  st.solve_seconds = timer.elapsed_s();
  return st;
}

}  // namespace tealeaf
