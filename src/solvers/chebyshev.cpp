#include "solvers/chebyshev.hpp"

#include <cmath>

#include "ops/kernels.hpp"
#include "precon/preconditioner.hpp"
#include "solvers/cg.hpp"
#include "solvers/cheby_coef.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace tealeaf {

namespace {

/// dir = M⁻¹·r / θ on every chunk, then u += dir (the recurrence
/// bootstrap).  Handles all three preconditioner kinds.
void cheby_bootstrap(SimCluster2D& cl, PreconType precon, double theta,
                     const Team& team) {
  cl.for_each_chunk(team, [&](int, Chunk2D& c) {
    const Bounds in = interior_bounds(c);
    if (precon == PreconType::kJacobiBlock) {
      kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ);
      kernels::cheby_init_dir(c, FieldId::kZ, FieldId::kP, theta,
                              /*diag_precon=*/false, in);
    } else {
      kernels::cheby_init_dir(c, FieldId::kR, FieldId::kP, theta,
                              precon == PreconType::kJacobiDiag, in);
    }
    kernels::axpy(c, FieldId::kU, 1.0, FieldId::kP, in);
  });
}

/// One Chebyshev iteration: r −= A·p; p = α·p + β·M⁻¹·r; u += p — and on
/// check iterations the team ‖r‖² reduction, whose return value is
/// identical on every thread.  Local preconditioners run the row-blocked
/// step: stencil passes with in-block row lagging, a barrier, then the
/// deferred block-edge updates (see kernels::cheby_step_tile).
/// Block-Jacobi's strip solve couples rows, so that composition runs per
/// rank.
double cheby_iteration(SimCluster2D& cl, PreconType precon, double alpha,
                       double beta, bool check, const Team& t) {
  const bool diag = (precon == PreconType::kJacobiDiag);
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };
  cl.exchange(&t, {FieldId::kP}, 1);
  if (precon == PreconType::kJacobiBlock) {
    cl.for_each_chunk(t, [&](int, Chunk2D& c) {
      const Bounds in = interior_bounds(c);
      kernels::smvp(c, FieldId::kP, FieldId::kW, in);
      kernels::axpy(c, FieldId::kR, -1.0, FieldId::kW, in);
      kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ);
      kernels::axpby(c, FieldId::kP, alpha, beta, FieldId::kZ, in);
      kernels::axpy(c, FieldId::kU, 1.0, FieldId::kP, in);
    });
  } else {
    cl.for_each_tile(t, interior,
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cheby_step_tile(
                           c, FieldId::kR, FieldId::kP, FieldId::kU, alpha,
                           beta, diag, interior_bounds(c), tb);
                     });
    t.barrier();  // edge rows must see every block's stencil pass done
    cl.for_each_tile(t, interior,
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cheby_step_tile_edges(
                           c, FieldId::kR, FieldId::kP, FieldId::kU, alpha,
                           beta, diag, interior_bounds(c), tb);
                     });
  }
  if (!check) return 0.0;
  return cl.sum_rows_over_chunks(t, [](int, Chunk2D& c, const Bounds& tb) {
    kernels::dot_rows(c, FieldId::kR, FieldId::kR, tb, c.row_scratch());
  });
}

}  // namespace

SolveStats ChebyshevSolver::solve_team(SimCluster2D& cl,
                                       const SolverConfig& cfg,
                                       const Team& team) {
  Timer timer;
  SolveStats st;
  const auto finish = [&](double rr) {
    st.final_norm = std::sqrt(std::fabs(rr));
    st.solve_seconds = timer.elapsed_s();
    return st;
  };

  double rro = cg_setup(cl, cfg.precon, team);
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(rro));
  if (st.break_on_nonfinite(rro, "Chebyshev")) return finish(rro);
  if (st.initial_norm == 0.0) {
    st.converged = true;
    return finish(0.0);
  }

  // True 2-norm of the initial residual: the Chebyshev phase converges on
  // ‖r‖₂ (it has no ⟨r,z⟩ byproduct), so record the matching baseline.
  const double bb_rr = cl.sum_over_chunks(team, [](int, const Chunk2D& c) {
    return kernels::norm2_sq(c, FieldId::kR);
  });
  const double target_rr = cfg.eps * std::sqrt(bb_rr);

  EigenEstimate est;
  if (cfg.has_eig_hints()) {
    // Hinted interval: skip the CG presteps entirely and build the
    // polynomial on [hint_min, hint_max] (the session cache's
    // amortisation path — hints are already safety-widened estimates
    // from an earlier solve of the same operator).
    est.eigmin = cfg.eig_hint_min;
    est.eigmax = cfg.eig_hint_max;
  } else {
    // --- CG presteps: eigenvalue estimation (paper §III-D) --------------
    CGRecurrence rec;
    const double cg_target = cfg.eps * st.initial_norm;
    for (int i = 0;
         i < cfg.eigen_cg_iters && st.outer_iters + i < cfg.max_iters; ++i) {
      bool broke = false;
      rro = cg_iteration(cl, cfg.precon, rro, &rec, broke, team);
      ++st.spmv_applies;
      if (broke) {
        st.breakdown = true;
        st.breakdown_reason = "Chebyshev prestep breakdown: ⟨p, A·p⟩ <= 0";
        st.outer_iters = st.eigen_cg_iters;
        return finish(rro);
      }
      ++st.eigen_cg_iters;
      if (std::sqrt(std::fabs(rro)) <= cg_target) {
        // Converged before Chebyshev even started.
        st.outer_iters = st.eigen_cg_iters;
        st.converged = true;
        return finish(rro);
      }
    }
    // The bootstrap rewrites p per rank: order it against the presteps'
    // row-blocked direction update.
    team.barrier();
    est = estimate_eigenvalues(rec, cfg.eig_safety_lo, cfg.eig_safety_hi);
  }
  st.eigmin = est.eigmin;
  st.eigmax = est.eigmax;
  const ChebyCoefs cc =
      chebyshev_coefficients(est.eigmin, est.eigmax, cfg.max_iters);

  // --- Chebyshev phase ---------------------------------------------------
  cheby_bootstrap(cl, cfg.precon, cc.theta, team);
  int step = 0;
  double rr = bb_rr;
  while (st.eigen_cg_iters + step < cfg.max_iters) {
    const bool check = (step + 1) % cfg.cheby_check_interval == 0;
    const double rr_t =
        cheby_iteration(cl, cfg.precon, cc.alphas[step], cc.betas[step],
                        check, team);
    if (check) rr = rr_t;
    ++step;
    ++st.spmv_applies;
    if (check && st.break_on_nonfinite(rr, "Chebyshev")) break;
    if (check && std::sqrt(rr) <= target_rr) {
      st.converged = true;
      break;
    }
  }
  st.outer_iters = st.eigen_cg_iters + step;
  st.final_norm = std::sqrt(rr);
  st.solve_seconds = timer.elapsed_s();
  if (!st.converged && !st.breakdown && team.thread_id() == 0) {
    log::warn() << "Chebyshev hit max_iters with ‖r‖ = " << st.final_norm;
  }
  return st;
}

}  // namespace tealeaf
