#pragma once

#include <string>
#include <vector>

#include "ops/operator_kind.hpp"
#include "precon/preconditioner.hpp"

namespace tealeaf {

/// The four stand-alone solvers TeaLeaf integrates (paper §II), plus the
/// multigrid-preconditioned CG baseline the paper compares them against.
enum class SolverType : int {
  kJacobi = 0,
  kCG = 1,
  kChebyshev = 2,
  kPPCG = 3,  ///< CPPCG: CG polynomially preconditioned with Chebyshev
  /// "mg-pcg": CG with one multigrid V-cycle per iteration on the
  /// undecomposed grid — the reproduction's stand-in for PETSc CG +
  /// BoomerAMG (paper §V-A, Fig. 7; amg/mg_pcg.hpp).  Single-rank,
  /// stencil, double precision, no preconditioner (validate()); the
  /// solve starts from a zero initial guess and its
  /// solve_seconds include the per-solve hierarchy setup.
  kMGPCG = 4,
};

[[nodiscard]] const char* to_string(SolverType t);
[[nodiscard]] SolverType solver_type_from_string(const std::string& s);
[[nodiscard]] PreconType precon_type_from_string(const std::string& s);

/// Storage/arithmetic precision of one solve (tl_precision).  The solvers
/// are bandwidth-bound, so fp32 field and operator storage halves the
/// dominant traffic term; reductions and solver-scalar recurrences
/// (alpha/beta, Chebyshev coefficients, eigenvalue estimates) stay fp64
/// in every mode — only elementwise storage and arithmetic change.
enum class Precision : int {
  kDouble = 0,  ///< all-fp64, the default — bitwise identical to pre-axis
  kSingle = 1,  ///< honest all-fp32: may stall above tight tolerances
  /// fp32 inner solves wrapped in an fp64 iterative-refinement outer
  /// loop: recompute the true residual in fp64, re-solve the correction
  /// in fp32, repeat (bounded) until the fp64 residual meets tl_eps.
  kMixed = 2,
};

[[nodiscard]] const char* to_string(Precision p);
[[nodiscard]] Precision precision_from_string(const std::string& s);

/// Full configuration of one linear solve; mirrors the `tl_*` options of
/// an upstream tea.in deck.
struct SolverConfig {
  SolverType type = SolverType::kCG;
  PreconType precon = PreconType::kNone;

  int max_iters = 10000;   ///< outer-iteration cap (tl_max_iters)
  double eps = 1e-10;      ///< relative convergence tolerance (tl_eps)

  /// Matrix-powers halo depth (paper §IV-C2).  1 = classic exchange per
  /// operator application; n > 1 = one depth-n exchange per n inner
  /// applications.  Only the PPCG inner loop uses depths > 1.
  int halo_depth = 1;

  /// CG iterations run up-front to estimate the extreme eigenvalues via
  /// the Lanczos connection (paper §III-D; upstream tl_*_presteps).
  int eigen_cg_iters = 20;

  /// Chebyshev steps per PPCG outer iteration (polynomial degree;
  /// upstream tl_ppcg_inner_steps).
  int inner_steps = 10;

  /// Safety widening applied to the eigenvalue estimates.
  double eig_safety_lo = 0.95;
  double eig_safety_hi = 1.05;

  /// Externally supplied eigenvalue estimates (Chebyshev/PPCG).  When
  /// both are set (0 < eig_hint_min <= eig_hint_max) the solver SKIPS its
  /// CG presteps and builds the Chebyshev polynomial directly on
  /// [eig_hint_min, eig_hint_max] — the solve-server's session cache uses
  /// this to amortise eigenvalue estimation across repeat solves of the
  /// same operator.  The iterate path differs from a prestepped solve (no
  /// CG iterations run first), so hinted solves are a distinct — faster —
  /// configuration, not a bitwise-equal one.  A stale or wrong hint makes
  /// the polynomial indefinite and surfaces as SolveStats::breakdown,
  /// which the server answers with a re-route.  0 = estimate as usual.
  double eig_hint_min = 0.0;
  double eig_hint_max = 0.0;

  /// True when both eigenvalue hints are set (see eig_hint_min).
  [[nodiscard]] bool has_eig_hints() const {
    return eig_hint_min > 0.0 && eig_hint_max >= eig_hint_min;
  }

  /// The stand-alone Chebyshev solver has no per-iteration reduction;
  /// it checks the residual norm every this many iterations.
  int cheby_check_interval = 20;

  /// CG only: use the Chronopoulos-Gear recurrence, which fuses the two
  /// dot products of each iteration into a single allreduce — the §VII
  /// future-work restructuring ("multiple dot products combined into a
  /// single communication step").  Slightly less numerically robust than
  /// classic CG; off by default.
  bool fuse_cg_reductions = false;

  /// Operator representation the solve traverses (tl_operator).  kStencil
  /// is the classic matrix-free path; kCsr / kSellCSigma run the same
  /// solvers over an assembled sparse matrix (assembled from the stencil
  /// coefficients at prepare time, or loaded from a Matrix Market deck).
  /// Assembled operators store interior rows only, so they are limited to
  /// halo_depth == 1 (the matrix-powers extended sweeps would need
  /// assembled halo rows).
  OperatorKind op = OperatorKind::kStencil;

  /// Storage/arithmetic precision (tl_precision = double|single|mixed).
  /// kDouble is the default and bitwise identical to the pre-axis code;
  /// kMixed converges to the same eps through fp64 iterative refinement
  /// around fp32 inner solves; kSingle is the honest all-fp32 mode for
  /// the sweep to price.  mg-pcg and loaded Matrix Market operators stay
  /// double-only (validate() / SolveSession::solve).
  Precision precision = Precision::kDouble;

  /// Throws TeaError on inconsistent combinations, e.g. block-Jacobi with
  /// matrix-powers depth > 1 (the strips would need fresh whole-block
  /// data every inner step — paper §IV-C2 last paragraph), or mg-pcg with
  /// anything but its one form (no preconditioner, depth 1, stencil
  /// operator, double precision).  The sweep skips
  /// and the routing table drops exactly the configs this rejects.
  void validate() const;

  /// Construction-time misuse check: everything `validate()` rejects PLUS
  /// the silently-misleading combinations the solvers historically
  /// tolerated — e.g. eigenvalue hints on a solver that has no
  /// Chebyshev polynomial to build from them.  Errors carry did-you-mean
  /// guidance in the deck parser's style.  Returns *this so call sites
  /// can build-and-validate in one expression:
  ///   SolveSession s(deck);  s.solve(cfg.validated());
  /// The entry-point layers (SolveSession, the solve server, the sweep)
  /// call this once up front instead of each call site re-checking.
  [[nodiscard]] SolverConfig validated() const;
};

/// True for a solver that solves the undecomposed grid (mg-pcg): it runs
/// on one simulated rank only.  The sweep runs such cells on one rank,
/// routing offers them only to single-rank requests, and run_solver
/// rejects them on a decomposed cluster.
[[nodiscard]] inline bool needs_single_rank(const SolverConfig& cfg) {
  return cfg.type == SolverType::kMGPCG;
}

/// Declarative design-space sweep axes: the deck's `sweep_*` section
/// (paper title: "enable design-space explorations").  Each axis lists
/// the values to visit; driver/sweep runs the full cross-product
/// solver × preconditioner × matrix-powers depth × mesh size × threads.
/// An empty `solvers` list means the deck does not request a sweep.
struct SweepSpec {
  /// Solver axis by SolverType name (to_string), "mg-pcg" included.
  std::vector<std::string> solvers;
  std::vector<PreconType> precons = {PreconType::kNone};
  std::vector<int> halo_depths = {1};    ///< matrix-powers depth (PPCG)
  std::vector<int> mesh_sizes;           ///< empty = the base deck's mesh
  std::vector<int> thread_counts = {0};  ///< 0 = runtime default threads
  /// Geometry axis (`sweep_geometry = 2d,3d`).  A 3-D cell runs the
  /// 7-point operator on a mesh_n³ brick through the same unified core
  /// (labels carry a trailing "/3d", the CSV/JSON tables a `geometry`
  /// column).  Empty = inherit the base
  /// deck's geometry, like the mesh-size axis.  Every solver — mg-pcg
  /// and its dimension-generic multigrid hierarchy included — runs in
  /// both geometries.
  std::vector<int> geometries;
  /// Operator-format axis (`sweep_operator = stencil,csr,sell-c-sigma`),
  /// A/B-ing SolverConfig::op — the matrix-free stencil against the
  /// assembled storage formats.
  /// Assembled cells only combine with halo depth 1 and not with mg-pcg
  /// (it rebuilds its hierarchy from face coefficients), so other
  /// combinations are enumerated but skipped.
  std::vector<std::string> operators = {"stencil"};
  /// Precision axis (`sweep_precision = double,single,mixed`), A/B-ing
  /// SolverConfig::precision
  /// (labels carry `/f32` or `/mixed`, CSV/JSON a `precision` column).
  /// mg-pcg cells stay double-only, so other combinations are enumerated
  /// but skipped.
  std::vector<std::string> precisions = {"double"};
  int ranks = 4;                         ///< simulated ranks per run

  [[nodiscard]] bool requested() const { return !solvers.empty(); }

  /// Total number of cross-product cells (invalid combinations included;
  /// the sweep engine reports those as skipped).
  [[nodiscard]] std::size_t num_cases() const;

  /// Throws TeaError on unknown solver names or non-positive axis values.
  void validate() const;
};

/// Outcome of one linear solve.
struct SolveStats {
  bool converged = false;
  /// Numerical breakdown (e.g. ⟨p, A·p⟩ <= 0) stopped the solve early.
  /// Breakdowns are reported, not thrown: a design-space sweep records
  /// the configuration as failed and moves to the next cell instead of
  /// aborting the whole cross-product.
  bool breakdown = false;
  std::string breakdown_reason;
  int outer_iters = 0;           ///< CG/PPCG outer or Jacobi/Cheby iterations
  long long inner_steps = 0;     ///< PPCG inner Chebyshev steps in total
  long long spmv_applies = 0;    ///< total A·x applications (any bounds)
  int eigen_cg_iters = 0;        ///< CG presteps used for eigen estimation
  /// Mixed mode only: fp64 iterative-refinement outer steps taken (the
  /// number of fp32 inner solves beyond the first).  0 for double/single.
  int refine_steps = 0;
  double eigmin = 0.0;           ///< widened eigenvalue estimates (0 if n/a)
  double eigmax = 0.0;
  double initial_norm = 0.0;     ///< sqrt of the initial convergence metric
  double final_norm = 0.0;       ///< sqrt of the final convergence metric
  /// Wall-clock of the simulated solve; for mg-pcg it includes the
  /// hierarchy setup, which every mg-pcg solve pays.
  double solve_seconds = 0.0;
  /// Measured fill of the assembled operator (0 = matrix-free stencil).
  /// The scaling model prices SpMV traffic from this instead of the
  /// stencil's fixed bytes-per-cell when it is set.
  double nnz_per_row = 0.0;

  /// Record a breakdown when a convergence reduction `metric` came back
  /// NaN or infinite — a non-finite value anywhere in the iterate,
  /// right-hand side or operator poisons every later reduction, so
  /// iterating on only burns max_iters.  Returns true when it did;
  /// `solver` names the solver in the reason.
  bool break_on_nonfinite(double metric, const char* solver);
};

}  // namespace tealeaf
