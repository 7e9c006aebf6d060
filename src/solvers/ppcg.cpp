#include "solvers/ppcg.hpp"

#include <cmath>

#include "ops/kernels.hpp"
#include "precon/preconditioner.hpp"
#include "solvers/cg.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace tealeaf {

namespace {

constexpr const char* kPwBreakdown = "PPCG breakdown: ⟨p, A·p⟩ <= 0";
constexpr const char* kRzBreakdown =
    "PPCG breakdown: ⟨r, M⁻¹r⟩ <= 0 (indefinite polynomial preconditioner — "
    "eigenvalue estimates too tight?)";

}  // namespace

void PPCGSolver::apply_inner(SimCluster2D& cl, const SolverConfig& cfg,
                             const ChebyCoefs& cc, SolveStats* st,
                             const Team& team) {
  const int d = cfg.halo_depth;
  const int tile = cfg.tile_rows;
  const bool diag = (cfg.precon == PreconType::kJacobiDiag);
  const bool block = (cfg.precon == PreconType::kJacobiBlock);
  TEA_ASSERT(!block || d == 1,
             "block-Jacobi with matrix powers rejected by validate()");
  // Local preconditioners run every sweep row-blocked; block-Jacobi's
  // strip solve couples rows, so its steps run per rank.

  // Inner residual starts as a copy of the outer residual.  For matrix
  // powers the first extended sweep needs it valid through the overlap,
  // which costs one depth-d exchange; at depth 1 no exchange is needed
  // because the bootstrap touches only the interior.
  cl.for_each_tile(team, tile,
                   [](int, Chunk2D& c) { return interior_bounds(c); },
                   [](int, Chunk2D& c, const Bounds& tb) {
                     kernels::copy(c, FieldId::kRtemp, FieldId::kR, tb);
                   });
  if (d > 1) {
    cl.exchange(&team, {FieldId::kRtemp}, d);
  } else {
    team.barrier();  // rtemp copy visible
  }

  // Bootstrap (the degree-0 term): sd = M⁻¹·rtemp/θ, z = sd, computed on
  // bounds extended d-1 cells so the following sweeps can shrink.
  int ext = d - 1;
  if (block) {
    cl.for_each_chunk(team, [&](int, Chunk2D& c) {
      const Bounds in = interior_bounds(c);
      kernels::block_jacobi_solve(c, FieldId::kRtemp, FieldId::kW);
      kernels::cheby_init_dir(c, FieldId::kW, FieldId::kSd, cc.theta,
                              /*diag_precon=*/false, in);
      kernels::copy(c, FieldId::kZ, FieldId::kSd, in);
    });
  } else {
    cl.for_each_tile(team, tile,
                     [ext](int, Chunk2D& c) {
                       return extended_bounds(c, ext);
                     },
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cheby_init_dir(c, FieldId::kRtemp,
                                               FieldId::kSd, cc.theta, diag,
                                               tb);
                       kernels::copy(c, FieldId::kZ, FieldId::kSd, tb);
                     });
  }

  for (int step = 1; step <= cfg.inner_steps; ++step) {
    if (ext == 0) {
      // All overlap layers consumed: swap a fresh depth-d halo.  At depth
      // 1 only sd travels (rtemp's halo is never read); deeper powers
      // also need the inner residual through the overlap.
      if (d == 1) {
        cl.exchange(&team, {FieldId::kSd}, 1);
      } else {
        cl.exchange(&team, {FieldId::kSd, FieldId::kRtemp}, d);
      }
      ext = d;
    } else {
      // No exchange this step: the redundant-overlap sweeps still read
      // one cell beyond their own block, so order against the previous
      // extended sweep explicitly.
      team.barrier();
    }
    --ext;
    const double alpha = cc.alphas[static_cast<std::size_t>(step - 1)];
    const double beta = cc.betas[static_cast<std::size_t>(step - 1)];
    if (block) {
      cl.for_each_chunk(team, [&](int, Chunk2D& c) {
        const Bounds in = interior_bounds(c);
        kernels::smvp(c, FieldId::kSd, FieldId::kW, in);
        kernels::axpy(c, FieldId::kRtemp, -1.0, FieldId::kW, in);
        kernels::block_jacobi_solve(c, FieldId::kRtemp, FieldId::kW);
        kernels::axpby(c, FieldId::kSd, alpha, beta, FieldId::kW, in);
        kernels::axpy(c, FieldId::kZ, 1.0, FieldId::kSd, in);
      });
      continue;
    }
    const auto step_bounds = [ext](int, Chunk2D& c) {
      return extended_bounds(c, ext);
    };
    cl.for_each_tile(team, tile, step_bounds,
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cheby_step_tile(
                           c, FieldId::kRtemp, FieldId::kSd, FieldId::kZ,
                           alpha, beta, diag, extended_bounds(c, ext), tb);
                     });
    team.barrier();  // edge rows wait for every block's stencil pass
    cl.for_each_tile(team, tile, step_bounds,
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cheby_step_tile_edges(
                           c, FieldId::kRtemp, FieldId::kSd, FieldId::kZ,
                           alpha, beta, diag, extended_bounds(c, ext), tb);
                     });
  }
  if (st != nullptr) {
    st->spmv_applies += cfg.inner_steps;
    st->inner_steps += cfg.inner_steps;
  }
}

SolveStats PPCGSolver::solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                                  const Team& team) {
  Timer timer;
  SolveStats st;

  double rro = cg_setup(cl, cfg.precon, team);
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(rro));

  const auto finish = [&](double metric) {
    st.outer_iters += st.eigen_cg_iters;
    st.final_norm = std::sqrt(std::fabs(metric));
    st.solve_seconds = timer.elapsed_s();
    if (!st.converged && !st.breakdown && team.thread_id() == 0) {
      log::warn() << "PPCG hit max_iters with metric " << st.final_norm;
    }
    return st;
  };
  if (st.break_on_nonfinite(rro, "PPCG")) return finish(rro);
  if (st.initial_norm == 0.0) {
    st.converged = true;
    st.solve_seconds = timer.elapsed_s();
    return st;
  }
  const double target = cfg.eps * st.initial_norm;

  EigenEstimate est;
  if (cfg.has_eig_hints()) {
    // Hinted interval: skip the CG presteps and build the polynomial on
    // [hint_min, hint_max] directly (the session cache's amortisation
    // path).  A stale or degenerate hint makes the polynomial indefinite
    // and surfaces below as the ⟨r, M⁻¹r⟩ breakdown — reported, not
    // thrown, so the solve-server can answer it with a re-route.
    est.eigmin = cfg.eig_hint_min;
    est.eigmax = cfg.eig_hint_max;
  } else {
    // --- CG presteps: eigenvalue estimation (paper §III-D) --------------
    CGRecurrence rec;
    for (int i = 0; i < cfg.eigen_cg_iters; ++i) {
      bool broke = false;
      rro = cg_iteration(cl, cfg.precon, cfg.tile_rows, rro, &rec, broke,
                         team);
      ++st.spmv_applies;
      if (broke) {
        st.breakdown = true;
        st.breakdown_reason = kPwBreakdown;
        return finish(rro);
      }
      ++st.eigen_cg_iters;
      if (std::sqrt(std::fabs(rro)) <= target) {
        st.converged = true;
        return finish(rro);
      }
    }
    est = estimate_eigenvalues(rec, cfg.eig_safety_lo, cfg.eig_safety_hi);
  }
  st.eigmin = est.eigmin;
  st.eigmax = est.eigmax;
  const ChebyCoefs cc =
      chebyshev_coefficients(est.eigmin, est.eigmax, cfg.inner_steps);

  // Every scalar below derives from rank/row-ordered team reductions, so
  // its value — and every branch on it — is identical on every thread.
  const int tile = cfg.tile_rows;
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };
  const auto dot_rz = [&] {
    return cl.sum_rows_over_chunks(
        team, tile, [](int, Chunk2D& c, const Bounds& tb) {
          kernels::dot_rows(c, FieldId::kR, FieldId::kZ, tb,
                            c.row_scratch());
        });
  };

  // --- restart the outer PCG with the polynomial preconditioner ---------
  apply_inner(cl, cfg, cc, nullptr, team);
  rro = dot_rz();
  cl.for_each_tile(team, tile, interior,
                   [](int, Chunk2D& c, const Bounds& tb) {
                     kernels::copy(c, FieldId::kP, FieldId::kZ, tb);
                   });
  st.spmv_applies += cfg.inner_steps;
  st.inner_steps += cfg.inner_steps;
  if (st.break_on_nonfinite(rro, "PPCG")) return finish(rro);
  if (!(rro > 0.0)) {
    st.breakdown = true;
    st.breakdown_reason = kRzBreakdown;
    return finish(rro);
  }

  double rrn = rro;
  while (st.eigen_cg_iters + st.outer_iters < cfg.max_iters) {
    cl.exchange(&team, {FieldId::kP}, 1);
    const double pw = cl.sum_rows_over_chunks(
        team, tile, [](int, Chunk2D& c, const Bounds& tb) {
          kernels::smvp_dot_rows(c, FieldId::kP, FieldId::kW,
                                 interior_bounds(c), tb, c.row_scratch());
        });
    ++st.spmv_applies;
    // Uniform branch: every thread reduced the same rank-ordered sum.
    if (!(pw > 0.0)) {
      st.breakdown = true;
      st.breakdown_reason = kPwBreakdown;
      return finish(rrn);
    }
    const double alpha = rro / pw;
    cl.for_each_tile(team, tile, interior,
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cg_calc_ur_rows(c, alpha, tb);
                     });
    // apply_inner's first pass copies r: order it against the update.
    team.barrier();
    apply_inner(cl, cfg, cc, nullptr, team);
    const double rrn_t = dot_rz();
    const double beta = rrn_t / rro;
    cl.for_each_tile(team, tile, interior,
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::xpby(c, FieldId::kP, FieldId::kZ, beta, tb);
                     });
    st.spmv_applies += cfg.inner_steps;
    st.inner_steps += cfg.inner_steps;
    rrn = rrn_t;
    rro = rrn;
    ++st.outer_iters;
    if (st.break_on_nonfinite(rrn, "PPCG")) break;
    if (std::sqrt(std::fabs(rrn)) <= target) {
      st.converged = true;
      break;
    }
    if (!(rrn > 0.0)) {
      st.breakdown = true;
      st.breakdown_reason = kRzBreakdown;
      break;
    }
  }
  return finish(rrn);
}

}  // namespace tealeaf
