#include "solvers/solver_config.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tealeaf {

const char* to_string(SolverType t) {
  switch (t) {
    case SolverType::kJacobi: return "jacobi";
    case SolverType::kCG: return "cg";
    case SolverType::kChebyshev: return "chebyshev";
    case SolverType::kPPCG: return "ppcg";
    case SolverType::kMGPCG: return "mg-pcg";
  }
  return "?";
}

SolverType solver_type_from_string(const std::string& s) {
  if (s == "jacobi") return SolverType::kJacobi;
  if (s == "cg") return SolverType::kCG;
  if (s == "chebyshev" || s == "cheby") return SolverType::kChebyshev;
  if (s == "ppcg" || s == "cppcg") return SolverType::kPPCG;
  if (s == "mg-pcg") return SolverType::kMGPCG;
  throw TeaError("unknown solver type: " + s);
}

PreconType precon_type_from_string(const std::string& s) {
  if (s == "none") return PreconType::kNone;
  if (s == "jac_diag") return PreconType::kJacobiDiag;
  if (s == "jac_block") return PreconType::kJacobiBlock;
  throw TeaError("unknown preconditioner type: " + s);
}

const char* to_string(Precision p) {
  switch (p) {
    case Precision::kDouble: return "double";
    case Precision::kSingle: return "single";
    case Precision::kMixed: return "mixed";
  }
  return "?";
}

Precision precision_from_string(const std::string& s) {
  if (s == "double" || s == "fp64") return Precision::kDouble;
  if (s == "single" || s == "fp32" || s == "float") return Precision::kSingle;
  if (s == "mixed") return Precision::kMixed;
  throw TeaError("unknown precision: " + s);
}

std::size_t SweepSpec::num_cases() const {
  const std::size_t meshes = mesh_sizes.empty() ? 1 : mesh_sizes.size();
  const std::size_t geoms = geometries.empty() ? 1 : geometries.size();
  const std::size_t ops = operators.empty() ? 1 : operators.size();
  const std::size_t precs = precisions.empty() ? 1 : precisions.size();
  return solvers.size() * precons.size() * halo_depths.size() * meshes *
         thread_counts.size() * geoms * ops * precs;
}

void SweepSpec::validate() const {
  for (const std::string& name : solvers) {
    (void)solver_type_from_string(name);  // validates
  }
  TEA_REQUIRE(!precons.empty(), "sweep: preconditioner axis must be non-empty");
  TEA_REQUIRE(!halo_depths.empty(), "sweep: halo-depth axis must be non-empty");
  TEA_REQUIRE(!thread_counts.empty(), "sweep: thread axis must be non-empty");
  for (const int d : halo_depths) {
    TEA_REQUIRE(d >= 1, "sweep: halo depths must be >= 1");
  }
  for (const int n : mesh_sizes) {
    TEA_REQUIRE(n >= 4, "sweep: mesh sizes must be >= 4");
  }
  for (const int t : thread_counts) {
    TEA_REQUIRE(t >= 0, "sweep: thread counts must be >= 0");
  }
  for (const int d : geometries) {
    TEA_REQUIRE(d == 2 || d == 3, "sweep: geometry values must be 2d or 3d");
  }
  for (const std::string& o : operators) {
    (void)operator_kind_from_string(o);  // validates
  }
  for (const std::string& p : precisions) {
    (void)precision_from_string(p);  // validates
  }
  TEA_REQUIRE(ranks >= 1, "sweep: need at least one simulated rank");
}

void SolverConfig::validate() const {
  TEA_REQUIRE(max_iters > 0, "max_iters must be positive");
  TEA_REQUIRE(eps > 0.0, "eps must be positive");
  TEA_REQUIRE(halo_depth >= 1, "matrix-powers halo depth must be >= 1");
  TEA_REQUIRE(eigen_cg_iters >= 2,
              "eigenvalue estimation needs at least two CG steps");
  TEA_REQUIRE(inner_steps >= 1, "PPCG needs at least one inner step");
  TEA_REQUIRE(eig_safety_lo > 0.0 && eig_safety_lo <= 1.0,
              "eig_safety_lo must be in (0, 1]");
  TEA_REQUIRE(eig_safety_hi >= 1.0, "eig_safety_hi must be >= 1");
  TEA_REQUIRE(cheby_check_interval >= 1, "check interval must be >= 1");
  if (halo_depth > 1) {
    TEA_REQUIRE(type == SolverType::kPPCG,
                "matrix-powers halo depth > 1 only applies to PPCG");
    TEA_REQUIRE(precon != PreconType::kJacobiBlock,
                "block-Jacobi cannot be combined with the matrix-powers "
                "kernel (paper §IV-C2)");
  }
  if (type == SolverType::kMGPCG) {
    // Multigrid IS mg-pcg's preconditioner; its hierarchy is rebuilt from
    // the stencil's face coefficients in fp64.  Depth 1 is the generic
    // rule above.
    TEA_REQUIRE(op == OperatorKind::kStencil,
                "mg-pcg rebuilds its hierarchy from the face coefficients, "
                "so it has no assembled-operator form — did you mean "
                "operator = stencil?");
    TEA_REQUIRE(precision == Precision::kDouble,
                "mg-pcg is double-only (the multigrid hierarchy stays "
                "fp64) — did you mean precision = double?");
    TEA_REQUIRE(precon == PreconType::kNone,
                "mg-pcg embeds multigrid as its preconditioner — did you "
                "mean precon = none?");
  }
  if (fuse_cg_reductions) {
    TEA_REQUIRE(type == SolverType::kCG,
                "fused reductions are a CG-only restructuring");
  }
  if (op != OperatorKind::kStencil) {
    TEA_REQUIRE(halo_depth == 1,
                "assembled operators (csr, sell-c-sigma) store interior "
                "rows only, so the matrix-powers extended sweeps of "
                "halo_depth > 1 cannot run over them — use "
                "tl_operator = stencil for matrix-powers, or halo depth 1");
  }
  TEA_REQUIRE(eig_hint_min >= 0.0 && eig_hint_max >= 0.0,
              "eigenvalue hints must be non-negative (0 = unset)");
  if (eig_hint_min > 0.0 || eig_hint_max > 0.0) {
    // Strictly min < max: the Chebyshev coefficients divide by the
    // interval width, so a collapsed interval is never representable.
    TEA_REQUIRE(eig_hint_min > 0.0 && eig_hint_max > eig_hint_min,
                "eigenvalue hints need 0 < eig_hint_min < eig_hint_max");
  }
}

SolverConfig SolverConfig::validated() const {
  validate();
  if (has_eig_hints() && type != SolverType::kChebyshev &&
      type != SolverType::kPPCG) {
    throw TeaError(
        std::string("eigenvalue hints only apply to the Chebyshev-based "
                    "solvers (they replace the CG presteps), but the solver "
                    "is '") +
        to_string(type) +
        "'.  Did you mean tl_use_chebyshev or tl_use_ppcg?");
  }
  return *this;
}

bool SolveStats::break_on_nonfinite(double metric, const char* solver) {
  if (std::isfinite(metric)) return false;
  breakdown = true;
  breakdown_reason = std::string(solver) +
                     " breakdown: non-finite residual (NaN/Inf in the "
                     "iterate, right-hand side or operator)";
  return true;
}

}  // namespace tealeaf
