#include "solvers/solver.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "amg/mg_pcg.hpp"
#include "ops/kernels.hpp"
#include "ops/sparse_matrix.hpp"
#include "solvers/cg.hpp"
#include "solvers/chebyshev.hpp"
#include "solvers/jacobi.hpp"
#include "solvers/ppcg.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace tealeaf {

namespace {

/// Record the measured fill of an assembled operator so the scaling model
/// can price SpMV traffic from real nnz instead of the stencil constant.
void note_operator_fill(const SimCluster2D& cl, SolveStats& stats) {
  const Chunk& c = cl.chunk(0);
  if (c.op_kind() != OperatorKind::kStencil) {
    stats.nnz_per_row = operator_pattern(c)->nnz_per_row();
  }
}

/// The solver's team form for a validated config.
SolveStats solve_on_team(SimCluster2D& cl, const SolverConfig& cfg,
                         const Team& team) {
  switch (cfg.type) {
    case SolverType::kJacobi: return JacobiSolver::solve_team(cl, cfg, team);
    case SolverType::kCG: return CGSolver::solve_team(cl, cfg, team);
    case SolverType::kChebyshev:
      return ChebyshevSolver::solve_team(cl, cfg, team);
    case SolverType::kPPCG: return PPCGSolver::solve_team(cl, cfg, team);
    case SolverType::kMGPCG: break;  // no team form: see runs_on_team
  }
  TEA_ASSERT(false, "invalid solver type");
}

/// mg-pcg on the prepared single chunk: build the hierarchy from the
/// freshly built face coefficients, solve A·u = u0 from a zero initial
/// guess, and charge setup + solve, as every mg-pcg solve pays both.
SolveStats solve_mg_pcg(SimCluster2D& cl, const SolverConfig& cfg) {
  Chunk& c = cl.chunk(0);
  MGPreconditionedCG::Options opt;
  opt.eps = cfg.eps;
  opt.max_iters = cfg.max_iters;
  MGPreconditionedCG solver = MGPreconditionedCG::from_chunk(c, opt);
  c.u().fill(0.0);
  SolveStats stats = solver.solve(c.u0(), c.u());
  stats.solve_seconds += solver.setup_seconds();
  return stats;
}

/// One native solve at the chunks' CURRENT precision activation (the
/// solvers are precision-oblivious: every field access and every
/// operator traversal goes through the kernels' scalar dispatch): ONE
/// parallel region around the solver's team form.
SolveStats dispatch_native(SimCluster2D& cl, const SolverConfig& cfg) {
  SolveStats out;
  parallel_region([&](Team& t) {
    const SolveStats st = solve_on_team(cl, cfg, t);
    t.single([&] { out = st; });
  });
  return out;
}

// ---- mixed-precision execution layer ------------------------------------
// Storage orchestration for Precision::kSingle / kMixed.  The fp32 bank is
// a per-chunk twin of the fp64 fields (Chunk::enable_fp32); activation
// flips Chunk::fp32_active(), which routes op_dispatch, the scalar
// kernels and the halo exchanges over the fp32 bank.  The fp64 fields are
// never touched by an active-fp32 solve, so the outer refinement loop can
// read them back untouched.

void downcast_field(Chunk& c, FieldId dst32, FieldId src64) {
  const Field<double>& s = c.field(src64);
  Field<float>& d = c.field32(dst32);
  const double* sp = s.data();
  float* dp = d.data();
  const std::size_t n = s.size();
  for (std::size_t i = 0; i < n; ++i) dp[i] = static_cast<float>(sp[i]);
}

/// Allocate the fp32 bank and build the fp32 operator: coefficient fields
/// by storage downcast of the freshly built fp64 Kx/Ky/Kz (the direct
/// analogue of downcasting the solve's inputs), assembled CSR/SELL-C-σ
/// values by re-assembling from those fp32 coefficients IN fp32
/// arithmetic — never by downcasting fp64-assembled values — so the fp32
/// stencil and the fp32 assembled formats stay bitwise equal to each
/// other.  The fp32 values share the fp64 operator's index pattern.
void build_fp32_operator(SimCluster2D& cl) {
  cl.for_each_chunk([&](int, Chunk& c) {
    c.enable_fp32();
    downcast_field(c, FieldId::kKx, FieldId::kKx);
    downcast_field(c, FieldId::kKy, FieldId::kKy);
    if (c.dims() == 3) downcast_field(c, FieldId::kKz, FieldId::kKz);
    assemble_operator32(c);
  });
}

/// Zero the fp32 iterate and work vectors ahead of an inner solve (the
/// refinement loop re-enters with a dirty bank).
void clear_fp32_workspace(Chunk& c) {
  c.field32(FieldId::kU).fill(0.0f);
  for (const FieldId f : {FieldId::kP, FieldId::kR, FieldId::kW, FieldId::kZ,
                          FieldId::kSd, FieldId::kRtemp}) {
    c.field32(f).fill(0.0f);
  }
}

void set_fp32_active(SimCluster2D& cl, bool active) {
  cl.for_each_chunk([&](int, Chunk& c) { c.set_fp32_active(active); });
}

/// fp64 true residual r = u0 − A·u on the fp64 bank (fp32 must be
/// inactive).  Exchanges u to depth 1 first; returns ‖r‖².
double fp64_true_residual(SimCluster2D& cl) {
  cl.exchange({FieldId::kU}, 1);
  return cl.sum_over_chunks(
      [](int, Chunk& c) { return kernels::calc_residual(c); });
}

/// Fold one inner solve's work counters into the aggregate the caller
/// reports (iterations are real work wherever they ran).
void accumulate_inner(SolveStats& agg, const SolveStats& inner) {
  agg.outer_iters += inner.outer_iters;
  agg.inner_steps += inner.inner_steps;
  agg.spmv_applies += inner.spmv_applies;
  agg.eigen_cg_iters += inner.eigen_cg_iters;
  if (inner.eigmax > 0.0) {
    agg.eigmin = inner.eigmin;
    agg.eigmax = inner.eigmax;
  }
}

/// Precision::kSingle — the honest all-fp32 mode: downcast the operator
/// and the solve's inputs, run the configured solver entirely over the
/// fp32 bank (same eps; it may stall before a tight tolerance, which is
/// recorded honestly for the sweep to price), upcast the iterate.
SolveStats solve_single(SimCluster2D& cl, const SolverConfig& cfg,
                        const NativeSolve& native) {
  build_fp32_operator(cl);
  cl.for_each_chunk([&](int, Chunk& c) {
    clear_fp32_workspace(c);
    downcast_field(c, FieldId::kU, FieldId::kU);
    downcast_field(c, FieldId::kU0, FieldId::kU0);
  });
  set_fp32_active(cl, true);
  SolveStats stats = native(cl, cfg);
  set_fp32_active(cl, false);
  cl.for_each_chunk([&](int, Chunk& c) {
    Field<double>& u = c.u();
    const Field<float>& u32 = c.field32(FieldId::kU);
    const Bounds b = interior_bounds(c);
    for (int l = b.llo; l < b.lhi; ++l)
      for (int k = b.klo; k < b.khi; ++k)
        for (int j = b.jlo; j < b.jhi; ++j)
          u(j, k, l) = static_cast<double>(u32(j, k, l));
  });
  return stats;
}

/// Precision::kMixed — fp64-guarded iterative refinement: each pass
/// recomputes the TRUE residual in fp64 (r = u0 − A·u on the fp64 bank),
/// re-solves the correction A·δ = r entirely in fp32 at a loose inner
/// tolerance, and accumulates u += δ in fp64.  Refinement converges when
/// the fp64 residual meets the caller's eps relative to the INITIAL fp64
/// residual — the same contract as a double solve — and reports
/// breakdown when it stalls (the server answers that with a re-route).
SolveStats solve_mixed(SimCluster2D& cl, const SolverConfig& cfg,
                       const NativeSolve& native) {
  // The native solvers time their own iteration loops; the refinement
  // wrapper times the WHOLE mixed solve — inner solves, downcasts and the
  // fp64 guard residuals — so the sweep and bench price its true cost.
  Timer timer;
  constexpr int kMaxRefines = 12;
  // fp32 has ~7.2 decimal digits; pushing an inner solve past ~1e-5
  // relative buys nothing the next fp64 refinement pass doesn't redo.
  SolverConfig inner_cfg = cfg;
  inner_cfg.eps = std::max(cfg.eps, 1e-5);

  SolveStats stats;
  const double rr0 = fp64_true_residual(cl);
  stats.initial_norm = std::sqrt(std::fabs(rr0));
  if (stats.break_on_nonfinite(rr0, "mixed")) {
    stats.final_norm = stats.initial_norm;
    stats.solve_seconds = timer.elapsed_s();
    return stats;
  }
  if (stats.initial_norm == 0.0) {
    stats.converged = true;
    return stats;
  }
  const double target = cfg.eps * stats.initial_norm;

  build_fp32_operator(cl);
  double norm = stats.initial_norm;
  int stalls = 0;
  for (int ref = 0; ref <= kMaxRefines; ++ref) {
    // Correction system: fp32 right-hand side = the current fp64
    // residual; zero fp32 initial guess.
    cl.for_each_chunk([&](int, Chunk& c) {
      clear_fp32_workspace(c);
      downcast_field(c, FieldId::kU0, FieldId::kR);
    });
    set_fp32_active(cl, true);
    const SolveStats inner = native(cl, inner_cfg);
    set_fp32_active(cl, false);
    accumulate_inner(stats, inner);
    stats.refine_steps = ref;
    if (inner.breakdown) {
      stats.breakdown = true;
      stats.breakdown_reason =
          "mixed: fp32 inner solve broke down (" + inner.breakdown_reason +
          ")";
      break;
    }
    // u += δ in fp64, then the fp64 truth test.
    cl.for_each_chunk([&](int, Chunk& c) {
      Field<double>& u = c.u();
      const Field<float>& du = c.field32(FieldId::kU);
      const Bounds b = interior_bounds(c);
      for (int l = b.llo; l < b.lhi; ++l)
        for (int k = b.klo; k < b.khi; ++k)
          for (int j = b.jlo; j < b.jhi; ++j)
            u(j, k, l) += static_cast<double>(du(j, k, l));
    });
    const double prev = norm;
    norm = std::sqrt(std::fabs(fp64_true_residual(cl)));
    if (norm <= target) {
      stats.converged = true;
      break;
    }
    // Reuse the inner solve's eigenvalue estimates: the fp32 operator
    // does not change between refinement passes, so later inner solves
    // skip their CG presteps.
    if (inner.eigmax > 0.0 && !inner_cfg.has_eig_hints()) {
      inner_cfg.eig_hint_min = inner.eigmin;
      inner_cfg.eig_hint_max = inner.eigmax;
    }
    // Stall guard: refinement contracts the residual by ~the inner
    // tolerance per pass; two consecutive passes without meaningful
    // contraction mean fp32 has hit its floor above the caller's eps.
    stalls = (norm > 0.5 * prev) ? stalls + 1 : 0;
    if (stalls >= 2) {
      stats.breakdown = true;
      stats.breakdown_reason = "mixed: refinement stalled above tl_eps";
      break;
    }
  }
  if (!stats.converged && !stats.breakdown) {
    stats.breakdown = true;
    stats.breakdown_reason = "mixed: refinement cap reached above tl_eps";
  }
  stats.final_norm = norm;
  stats.solve_seconds = timer.elapsed_s();
  return stats;
}

}  // namespace

SolveStats run_solver(SimCluster2D& cl, const SolverConfig& cfg) {
  cfg.validate();
  TEA_REQUIRE(cfg.halo_depth <= cl.halo_depth(),
              "cluster halo allocation too shallow for matrix-powers depth");
  if (needs_single_rank(cfg)) {
    TEA_REQUIRE(cl.nranks() == 1,
                std::string(to_string(cfg.type)) +
                    " solves the undecomposed grid: run it on one "
                    "simulated rank");
  }
  if (cfg.type == SolverType::kMGPCG) return solve_mg_pcg(cl, cfg);
  SolveStats stats = solve_at_precision(cl, cfg, dispatch_native);
  note_operator_fill(cl, stats);
  return stats;
}

SolveStats solve_at_precision(SimCluster2D& cl, const SolverConfig& cfg,
                              const NativeSolve& native) {
  switch (cfg.precision) {
    case Precision::kDouble: return native(cl, cfg);
    case Precision::kSingle: return solve_single(cl, cfg, native);
    case Precision::kMixed: return solve_mixed(cl, cfg, native);
  }
  TEA_ASSERT(false, "invalid precision");
}

SolveStats run_solver_team(SimCluster2D& cl, const SolverConfig& cfg,
                           const Team& team) {
  TEA_REQUIRE(runs_on_team(cfg),
              "run_solver_team runs double-precision team forms only; route "
              "single/mixed and mg-pcg solves through run_solver");
  SolveStats stats = solve_on_team(cl, cfg, team);
  note_operator_fill(cl, stats);
  return stats;
}

}  // namespace tealeaf
