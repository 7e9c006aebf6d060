#pragma once

#include <cstdint>

#include "comm/comm_stats.hpp"
#include "mesh/decomposition.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// The iteration structure of one measured solve, reduced to what the
/// performance model needs.  Produced from a real SimCluster run via
/// `from()`, then optionally projected to a larger mesh with
/// `project_to_mesh` (κ ∝ n² for this operator ⇒ iterations ∝ n; the
/// projection rule is validated empirically in the test suite).
struct SolverRunSummary {
  SolverType type = SolverType::kCG;
  PreconType precon = PreconType::kNone;
  int halo_depth = 1;      ///< matrix-powers depth (PPCG)
  int inner_steps = 10;    ///< PPCG inner Chebyshev steps per outer
  int cheby_check_interval = 20;
  bool fused_cg = false;   ///< Chronopoulos-Gear single-reduction CG
  /// Storage precision the solve ran with (SolverConfig::precision).
  /// single/mixed solves stream 4-byte elements through every solver-loop
  /// field sweep and halo exchange (half the fp64 bytes); mixed
  /// additionally pays its fp64 refinement guard — see refine_steps.
  Precision precision = Precision::kDouble;
  /// Mixed-precision refinement passes beyond the first inner solve
  /// (SolveStats::refine_steps; 0 for double/single).
  int refine_steps = 0;

  int outer_iters = 0;     ///< iterations after the eigenvalue presteps
  int eigen_cg_iters = 0;  ///< CG presteps (Chebyshev / PPCG)
  int mesh_n = 0;          ///< square mesh edge the run was measured on
  /// Measured fill of an assembled operator (SolveStats::nnz_per_row;
  /// 0 = matrix-free stencil).  When set, the scaling model prices each
  /// SpMV sweep from the real entry traffic (values + column indices)
  /// instead of the stencil's fixed bytes/cell.
  double nnz_per_row = 0.0;

  [[nodiscard]] static SolverRunSummary from(const SolverConfig& cfg,
                                             const SolveStats& stats,
                                             int mesh_n);
};

/// Scale the measured iteration counts from `run.mesh_n` to `target_n`.
[[nodiscard]] SolverRunSummary project_to_mesh(SolverRunSummary run,
                                               int target_n);

/// Aggregate communication counts in CommStats' conventions.
struct CommCounts {
  std::int64_t exchange_calls = 0;
  std::int64_t messages = 0;
  std::int64_t message_bytes = 0;
  std::int64_t reductions = 0;
};

/// Analytic replay of exactly the halo exchanges and reductions the
/// solver implementations issue for the given iteration structure and
/// decomposition.  Unit tests assert byte-exact equality with the
/// CommStats counted during real runs — this is the bridge that lets the
/// performance model sweep node counts without re-running the numerics
/// (DESIGN.md §2.2).
[[nodiscard]] CommCounts predict_comm_counts(const SolverRunSummary& run,
                                             const Decomposition2D& decomp,
                                             const GlobalMesh2D& mesh);

/// Messages/bytes of a single halo exchange over a decomposition
/// (helper shared with predict_comm_counts; matches SimCluster2D).
/// `elem_bytes` is the storage element size on the wire: 8 for fp64
/// fields, 4 when an fp32-active solve moves the fp32 bank.
[[nodiscard]] CommCounts exchange_counts(const Decomposition2D& decomp,
                                         int depth, int nfields,
                                         int elem_bytes = 8);

/// PPCG inner-loop exchange schedule (paper §IV-C2): number of depth-d
/// exchange rounds issued by one apply_inner with m inner steps.
/// At d == 1 every step exchanges {sd}; at d > 1 there is one initial
/// {rtemp} exchange plus ⌊m/d⌋ rounds of {sd, rtemp}.
struct InnerExchangePlan {
  std::int64_t single_field_rounds = 0;  ///< depth-d rounds carrying 1 field
  std::int64_t dual_field_rounds = 0;    ///< depth-d rounds carrying 2 fields
};
[[nodiscard]] InnerExchangePlan ppcg_inner_exchange_plan(int inner_steps,
                                                         int halo_depth);

}  // namespace tealeaf
