#pragma once

#include "comm/sim_comm.hpp"
#include "solvers/eigen_estimate.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// Bootstrap the Krylov state on every chunk.  Preconditions: u = u0 =
/// initial temperature on the interiors, Kx/Ky built (init_conduction).
/// Performs: exchange(u,1); w = A·u; r = u0 − w; block-Jacobi setup when
/// selected; z = M⁻¹r; p = z (or r).  Returns rro = ⟨r, M⁻¹r⟩ (one global
/// reduction).  Upstream: tea_leaf_cg_init_kernel.
///
/// Workshares on `team` inside the caller's parallel region; every
/// thread returns the identical rank-ordered sum.
double cg_setup(SimCluster2D& cl, PreconType precon, const Team& team);

/// One CG iteration (upstream tea_leaf_cg_calc_* kernels), row-blocked by
/// the engine (SimCluster::for_each_tile):
///   exchange(p,1); w = A·p; pw = ⟨p,w⟩;  α = rro/pw
///   u += α·p; r −= α·w; z = M⁻¹r; rrn = ⟨r,z⟩;  β = rrn/rro;  p = z + β·p
/// Two global reductions.  Appends (α, β) to `rec` when non-null (the
/// Chebyshev/PPCG eigenvalue presteps; per-thread storage — the appended
/// values are identical on every thread).  Returns rrn.
///
/// A numerical breakdown (⟨p, A·p⟩ <= 0 or NaN) sets `breakdown` — the
/// iteration leaves u/r untouched and returns rro.  The value is
/// identical on every thread, so the caller's branch on it is uniform.
double cg_iteration(SimCluster2D& cl, PreconType precon, double rro,
                    CGRecurrence* rec, bool& breakdown, const Team& team);

/// The standard conjugate-gradient solver (paper §III-A): the baseline
/// whose strong-scaling is limited by the two global dot products per
/// iteration.
class CGSolver {
 public:
  /// Solve A·u = u0 in place on the cluster's chunks.  Convergence is
  /// declared when √|⟨r,M⁻¹r⟩| falls below eps × its initial value.
  /// With cfg.fuse_cg_reductions the Chronopoulos-Gear recurrence is
  /// used instead: one fused allreduce per iteration (paper §VII).
  ///
  /// The ENTIRE solve runs on `team` inside the caller's already-open
  /// parallel region.  Every thread of the team must call this with
  /// identical arguments; all loop-control scalars derive from
  /// rank-ordered team reductions, so control flow is uniform and the
  /// returned stats are identical on every thread (up to each thread's
  /// own wall-clock).  `team` may be a sub-team — the batch engine runs
  /// one request per sub-team concurrently.  cfg must be pre-validated
  /// (validation throws; regions cannot).
  static SolveStats solve_team(SimCluster2D& cl, const SolverConfig& cfg,
                               const Team& team);

 private:
  static SolveStats solve_team_chrono(SimCluster2D& cl,
                                      const SolverConfig& cfg,
                                      const Team& team);
  static SolveStats solve_team_classic(SimCluster2D& cl,
                                       const SolverConfig& cfg,
                                       const Team& team);
};

}  // namespace tealeaf
