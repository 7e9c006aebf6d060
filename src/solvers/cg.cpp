#include "solvers/cg.hpp"

#include <cmath>

#include "ops/kernels.hpp"
#include "precon/preconditioner.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace tealeaf {

namespace {

constexpr const char* kPwBreakdown =
    "CG breakdown: ⟨p, A·p⟩ <= 0 (operator not SPD?)";

}  // namespace

double cg_setup(SimCluster2D& cl, PreconType precon, const Team& team) {
  // Every collective workshares on the team; the chunk sweeps between
  // reductions reuse the same rank→thread mapping, so no extra barriers
  // are needed (each thread reads only fields it wrote itself).
  cl.exchange(&team, {FieldId::kU}, 1);
  if (precon == PreconType::kNone) {
    // r = u0 − A·u, p = r; rro = ⟨r,r⟩ folded into the residual sweep.
    return cl.sum_over_chunks(team, [](int, Chunk2D& c) {
      const double rr = kernels::calc_residual(c);
      kernels::copy(c, FieldId::kP, FieldId::kR, interior_bounds(c));
      return rr;
    });
  }
  cl.for_each_chunk(team, [&](int, Chunk2D& c) {
    kernels::calc_residual(c);
    if (precon == PreconType::kJacobiBlock) kernels::block_jacobi_init(c);
    kernels::apply_preconditioner(c, precon, FieldId::kR, FieldId::kZ);
    kernels::copy(c, FieldId::kP, FieldId::kZ, interior_bounds(c));
  });
  return cl.sum_over_chunks(team, [](int, const Chunk2D& c) {
    return kernels::dot(c, FieldId::kR, FieldId::kZ);
  });
}

double cg_iteration(SimCluster2D& cl, PreconType precon, double rro,
                    CGRecurrence* rec, bool& breakdown, const Team& team) {
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };
  cl.exchange(&team, {FieldId::kP}, 1);
  const double pw = cl.sum_rows_over_chunks(
      team, [](int, Chunk2D& c, const Bounds& tb) {
        kernels::smvp_dot_rows(c, FieldId::kP, FieldId::kW,
                               interior_bounds(c), tb, c.row_scratch());
      });
  if (!(pw > 0.0)) {
    breakdown = true;
    return rro;
  }
  const double alpha = rro / pw;

  double rrn;
  if (precon == PreconType::kJacobiBlock) {
    // The strip solve couples rows: row-tile the pointwise update, run
    // the solve per rank, then the row-tiled ⟨r,z⟩.
    cl.for_each_tile(team, interior,
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cg_calc_ur_rows(c, alpha, tb);
                     });
    team.barrier();
    cl.for_each_chunk(team, [](int, Chunk2D& c) {
      kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ);
    });
    rrn = cl.sum_rows_over_chunks(
        team, [](int, Chunk2D& c, const Bounds& tb) {
          kernels::dot_rows(c, FieldId::kR, FieldId::kZ, tb,
                            c.row_scratch());
        });
  } else {
    rrn = cl.sum_rows_over_chunks(
        team, [&](int, Chunk2D& c, const Bounds& tb) {
          kernels::calc_ur_dot_rows(c, alpha, precon, tb, c.row_scratch());
        });
  }

  const double beta = rrn / rro;
  const FieldId zsrc =
      (precon == PreconType::kNone) ? FieldId::kR : FieldId::kZ;
  cl.for_each_tile(team, interior,
                   [&](int, Chunk2D& c, const Bounds& tb) {
                     kernels::xpby(c, FieldId::kP, zsrc, beta, tb);
                   });
  if (rec != nullptr) {
    rec->alphas.push_back(alpha);
    rec->betas.push_back(beta);
  }
  return rrn;
}

SolveStats CGSolver::solve_team_chrono(SimCluster2D& cl,
                                       const SolverConfig& cfg,
                                       const Team& team) {
  // Chronopoulos-Gear CG: recurrences reordered so that ⟨r,z⟩ and
  // ⟨w,z⟩ are computed back-to-back and travel in ONE allreduce — the
  // §VII future-work "multiple dot products combined into a single
  // communication step".  Field roles: z = M⁻¹r, sd = A·p (the "s"
  // vector), w = A·z.  Each iteration is two row-blocked sweeps: the
  // vector update (the tail of iteration i−1 and the head of iteration
  // i, cg_chrono_update_rows) and the operator apply with both dot
  // products folded in (smvp_dot2_rows).  All control scalars derive
  // from team reductions, so every thread follows the same path and
  // returns the same stats.
  Timer timer;
  SolveStats st;
  const bool block = (cfg.precon == PreconType::kJacobiBlock);
  const auto interior = [](int, Chunk2D& c) { return interior_bounds(c); };
  const auto smvp_dot2_pair = [&] {
    return cl.sum2_rows_over_chunks(
        team, [](int, Chunk2D& c, const Bounds& tb) {
          kernels::smvp_dot2_rows(c, FieldId::kZ, FieldId::kW, FieldId::kR,
                                  interior_bounds(c), tb, c.row_scratch());
        });
  };
  const auto finish = [&](double gamma) {
    st.final_norm = std::sqrt(std::fabs(gamma));
    st.solve_seconds = timer.elapsed_s();
    return st;
  };

  cl.exchange(&team, {FieldId::kU}, 1);
  cl.for_each_chunk(team, [&](int, Chunk2D& c) {
    kernels::calc_residual(c);
    if (block) kernels::block_jacobi_init(c);
    kernels::apply_preconditioner(c, cfg.precon, FieldId::kR, FieldId::kZ);
  });
  cl.exchange(&team, {FieldId::kZ}, 1);
  auto [gamma, delta] = smvp_dot2_pair();
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(gamma));
  if (st.break_on_nonfinite(gamma, "CG")) return finish(gamma);
  if (st.initial_norm == 0.0) {
    st.converged = true;
    st.solve_seconds = timer.elapsed_s();
    return st;
  }
  const double target = cfg.eps * st.initial_norm;
  if (!(delta > 0.0)) {
    st.breakdown = true;
    st.breakdown_reason = "fused CG breakdown: ⟨A·z, z⟩ <= 0";
    return finish(gamma);
  }
  double alpha = gamma / delta;
  double beta = 0.0;  // first step: p = z, s = w

  while (st.outer_iters < cfg.max_iters) {
    cl.for_each_tile(team, interior,
                     [&](int, Chunk2D& c, const Bounds& tb) {
                       kernels::cg_chrono_update_rows(c, alpha, beta,
                                                      cfg.precon, tb);
                     });
    if (block) {
      // The strip solve reads every r row of its rank: order it against
      // the row-blocked pointwise update.
      team.barrier();
      cl.for_each_chunk(team, [](int, Chunk2D& c) {
        kernels::block_jacobi_solve(c, FieldId::kR, FieldId::kZ);
      });
    }
    cl.exchange(&team, {FieldId::kZ}, 1);
    const auto [gamma_new, delta_new] = smvp_dot2_pair();
    ++st.spmv_applies;
    ++st.outer_iters;
    if (st.break_on_nonfinite(gamma_new, "CG")) return finish(gamma_new);
    if (std::sqrt(std::fabs(gamma_new)) <= target) {
      st.converged = true;
      return finish(gamma_new);
    }
    beta = gamma_new / gamma;
    alpha = gamma_new / (delta_new - beta * gamma_new / alpha);
    gamma = gamma_new;
    if (!std::isfinite(alpha)) {
      st.breakdown = true;
      st.breakdown_reason = "fused CG recurrence breakdown";
      break;
    }
  }
  return finish(gamma);
}

SolveStats CGSolver::solve_team_classic(SimCluster2D& cl,
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
  if (st.break_on_nonfinite(rro, "CG")) return finish(rro);
  if (st.initial_norm == 0.0) {
    // Zero right-hand side: the initial guess is already exact.
    st.converged = true;
    return finish(rro);
  }
  const double target = cfg.eps * st.initial_norm;

  while (st.outer_iters < cfg.max_iters) {
    bool broke = false;
    const double rrn =
        cg_iteration(cl, cfg.precon, rro, nullptr, broke, team);
    ++st.spmv_applies;
    if (broke) {
      st.breakdown = true;
      st.breakdown_reason = kPwBreakdown;
      break;
    }
    rro = rrn;
    ++st.outer_iters;
    if (st.break_on_nonfinite(rrn, "CG")) break;
    if (std::sqrt(std::fabs(rrn)) <= target) {
      st.converged = true;
      break;
    }
  }
  return finish(rro);
}

SolveStats CGSolver::solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                                const Team& team) {
  return cfg.fuse_cg_reductions ? solve_team_chrono(cl, cfg, team)
                                : solve_team_classic(cl, cfg, team);
}

}  // namespace tealeaf
