#pragma once

#include <functional>

#include "comm/sim_comm.hpp"
#include "model/machine.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// Dispatch facade: run the configured solver on A·u = u0.
///
/// Preconditions (normally established by SolveSession / the driver's
/// timestep):
///  * u = u0 = initial temperature on chunk interiors,
///  * Kx/Ky built by kernels::init_conduction after a full-depth density
///    exchange.
/// Postcondition: u holds the converged solution on chunk interiors.
///
/// Every native solve runs the one execution engine: a single
/// `parallel_region` around the solver's team form (single/mixed
/// precision wrap one such region per fp32 inner solve).  mg-pcg runs
/// MGPreconditionedCG on the cluster's one chunk from a zero initial
/// guess (more than one simulated rank throws before any parallel
/// region), charging the hierarchy setup to solve_seconds.  The engine
/// derives its row-blocks from the team it runs on (see
/// SimCluster::for_each_tile).  Throws TeaError on an invalid cfg or a
/// cluster halo too shallow for cfg.halo_depth.
[[nodiscard]] SolveStats run_solver(SimCluster2D& cl, const SolverConfig& cfg);

/// Older spelling that took the modelled machine to size row-blocks;
/// the engine no longer needs one, so `machine` is ignored.
[[nodiscard]] inline SolveStats run_solver(SimCluster2D& cl,
                                           const SolverConfig& cfg,
                                           const MachineSpec& /*machine*/) {
  return run_solver(cl, cfg);
}

/// One native solve at the chunks' CURRENT precision activation: the unit
/// the precision layer wraps.
using NativeSolve =
    std::function<SolveStats(SimCluster2D&, const SolverConfig&)>;

/// The precision layer on its own: cfg.precision's storage orchestration
/// around `native` — double: one call; single: downcast the operator and
/// the solve's inputs, solve on the fp32 bank, upcast the iterate; mixed:
/// fp64-guarded iterative refinement around fp32 inner solves.  cfg must
/// be validated.  run_solver passes the
/// execution engine; any other native solve (a reference implementation,
/// say) runs under exactly the same orchestration.
[[nodiscard]] SolveStats solve_at_precision(SimCluster2D& cl,
                                            const SolverConfig& cfg,
                                            const NativeSolve& native);

/// Whether `cfg` has a team form run_solver_team can enter inside a
/// caller's region: double precision (the single/mixed layer opens and
/// closes its own parallel work) and not mg-pcg (its V-cycles open their
/// own region).  The solve server runs everything else solo.
[[nodiscard]] inline bool runs_on_team(const SolverConfig& cfg) {
  return cfg.precision == Precision::kDouble && cfg.type != SolverType::kMGPCG;
}

/// Team-injected dispatch: the ENTIRE solve runs on `team` inside the
/// caller's already-open parallel region.  Every thread of the team must
/// call with identical arguments; the returned stats are identical on
/// every thread (up to per-thread wall-clock).  `team` may be a sub-team
/// — the solve-server's batch engine runs one request per sub-team,
/// concurrently, inside ONE region.  cfg must be pre-validated and satisfy
/// runs_on_team, and the cluster's halo must be deep enough for
/// cfg.halo_depth (preconditions throw, and exceptions must not escape a
/// parallel region).  The same engine run_solver enters, so the results
/// are bitwise identical to it.
[[nodiscard]] SolveStats run_solver_team(SimCluster2D& cl,
                                         const SolverConfig& cfg,
                                         const Team& team);

}  // namespace tealeaf
