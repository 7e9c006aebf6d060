#pragma once

#include <utility>

#include "mesh/chunk.hpp"
#include "ops/bounds.hpp"
#include "precon/preconditioner.hpp"

/// Computational kernels for the heat-conduction system, a C++ port of
/// upstream TeaLeaf's `tea_leaf_*_kernel` routines and of Listing 1 in
/// the paper — dimension- and operator-generic: every per-row core is
/// templated on an `OperatorView` (ops/operator_view.hpp) and serves the
/// matrix-free 2-D 5-point / 3-D 7-point stencil (`StencilView<Dims>`,
/// bit-for-bit the classic code paths) as well as assembled CSR and
/// SELL-C-σ matrices (`CsrView` / `SellView`), with the view selected
/// once per kernel call by dispatching on `Chunk::op_kind()` and
/// `Chunk::dims()`.
///
/// The linear system is A·u = u0 with
///   (A u)(j,k,l) = [1 + ΣK over the 2·dims faces]·u(j,k,l)
///                  − Ky(j,k+1,l)·u(j,k+1,l) − Ky(j,k,l)·u(j,k−1,l)
///                  − Kx(j+1,k,l)·u(j+1,k,l) − Kx(j,k,l)·u(j−1,k,l)
///                  [ − Kz(j,k,l+1)·u(j,k,l+1) − Kz(j,k,l)·u(j,k,l−1) ]
/// where Kx/Ky/Kz are the face conduction coefficients pre-scaled by
/// rx = dt/dx², ry = dt/dy², rz = dt/dz².  A is symmetric positive
/// definite and strictly diagonally dominant.  Physical (Neumann)
/// boundaries are imposed by zero face coefficients, which is
/// algebraically identical to upstream's reflective halo updates.  The
/// 2-D expressions are untouched by the generalisation — a 2-D chunk runs
/// the exact arithmetic (and code) it always did.
///
/// Every kernel takes explicit loop `Bounds` so the same code serves the
/// classic depth-1 solver and the matrix-powers extended sweeps.
/// Reductions are always over the chunk interior only, regardless of the
/// sweep bounds, so redundant overlap computation never double-counts.
namespace tealeaf::kernels {

/// Which material property becomes the conduction coefficient
/// (upstream `CONDUCTIVITY` / `RECIP_CONDUCTIVITY`).
enum class Coefficient : int {
  kConductivity = 1,       ///< coefficient = density
  kRecipConductivity = 2,  ///< coefficient = 1/density
};

/// u = energy · density (temperature), u0 = u; also clears the solver
/// work vectors.  Upstream: tea_leaf_common_init (first half).
void init_u_u0(Chunk& c);

/// Compute the face coefficient fields Kx, Ky (and Kz on 3-D chunks) from
/// density over the full halo-extended region (density must be exchanged
/// to the chunk's halo depth first).  Faces on the physical boundary stay
/// zero — this encodes the Neumann condition.  `rz` is ignored by 2-D
/// chunks.  Upstream: tea_leaf_common_init (second half).
void init_conduction(Chunk& c, Coefficient coef, double rx, double ry,
                     double rz = 0.0);

/// dst = A·src over `bounds`.  Upstream: tea_leaf_kernel smvp macro.
void smvp(Chunk& c, FieldId src, FieldId dst, const Bounds& bounds);

// ---- generic vector kernels -------------------------------------------

/// dst = src over `bounds`.
void copy(Chunk& c, FieldId dst, FieldId src, const Bounds& bounds);

/// y = y + a·x over `bounds`.
void axpy(Chunk& c, FieldId y, double a, FieldId x, const Bounds& bounds);

/// y = x + b·y over `bounds`  (CG direction update p = z + β·p).
void xpby(Chunk& c, FieldId y, FieldId x, double b, const Bounds& bounds);

/// y = a·y + b·x over `bounds`  (Chebyshev direction update with a
/// non-fusable preconditioner, e.g. block Jacobi).
void axpby(Chunk& c, FieldId y, double a, double b, FieldId x,
           const Bounds& bounds);

/// Σ a·b over the interior.
[[nodiscard]] double dot(const Chunk& c, FieldId a, FieldId b);

/// Σ f² over the interior.
[[nodiscard]] double norm2_sq(const Chunk& c, FieldId f);

// ---- CG kernels (upstream tea_leaf_cg_kernel) --------------------------

/// w = A·u, r = u0 − w over the interior.  Residual bootstrap; the caller
/// must have exchanged u to depth 1.  Returns Σ r·r.
double calc_residual(Chunk& c);

// ---- Chebyshev / PPCG shared kernels -----------------------------------
// The Chebyshev acceleration recurrence (paper §III-C, Saad) is:
//   dir_1 = M⁻¹·res / θ;       acc += dir_1
//   j ≥ 1: res −= A·dir_j
//          dir_{j+1} = α_j·dir_j + β_j·M⁻¹·res
//          acc += dir_{j+1}
// For the standalone Chebyshev solver (res, dir, acc) = (r, sd, u); for
// the CPPCG inner preconditioner they are (rtemp, sd, z).  The fused
// update kernels below implement one recurrence step for local
// (identity/diagonal) inner preconditioners; the block-Jacobi path is
// composed separately because its strips couple cells (see precon/).

/// dir = M⁻¹·res / θ over `bounds` (M⁻¹ local: identity or diagonal).
void cheby_init_dir(Chunk& c, FieldId res, FieldId dir, double theta,
                    bool diag_precon, const Bounds& bounds);

// ---- row-blocked solver kernels (the execution engine) ------------------
// The execution engine (SimCluster::for_each_tile) cuts every solver
// sweep into row-blocks derived from the thread team and workshares the
// (rank, row-block) pairs over it.  A "row" is one unit-stride line of
// cells — (plane l, row k) in 3-D — and every block is a k-range of one
// plane, so the same rule blocks 2-D and 3-D sweeps.
// Each kernel below processes only the rows of the tile box `tb` (a
// single-plane k-range in the engine's schedule; tb's j range is ignored
// — the sweep bounds `b` or the interior provide it), built on per-row
// cores, so any tiling of the row range — and any assignment of blocks
// to threads — produces bitwise-identical fields.  Reducing kernels
// deposit one partial per interior row into `row_sums` at the flattened
// index ρ = l·ny + k (the chunk's `row_scratch`); the engine then
// combines rows in row order followed by ranks in rank order.  Kernels
// whose preconditioner couples rows (block-Jacobi strip solves) do not
// row-tile; the engine composes them from the pointwise parts plus a
// per-rank strip pass.

/// Rows of `tb` of Σ a·b (use a == b for norm²).
void dot_rows(const Chunk& c, FieldId a, FieldId b, const Bounds& tb,
              double* row_sums);

/// Rows of `tb` of dst = A·src over `bounds` with Σ src·dst folded in
/// (Listing 1 of the paper; row_sums written for interior rows only,
/// halo-extension rows just sweep).
void smvp_dot_rows(Chunk& c, FieldId src, FieldId dst, const Bounds& bounds,
                   const Bounds& tb, double* row_sums);

/// Rows of `tb` of dst = A·src over `bounds` with both dot products of a
/// Chronopoulos-Gear iteration folded in: two partials per row,
/// row_sums[2ρ] = Σ other·src and row_sums[2ρ+1] = Σ dst·src over row ρ
/// — for src = z, dst = w, other = r the pair (⟨r,z⟩, ⟨w,z⟩) that
/// travels in the single fused allreduce.
void smvp_dot2_rows(Chunk& c, FieldId src, FieldId dst, FieldId other,
                    const Bounds& bounds, const Bounds& tb,
                    double* row_sums);

/// Rows of `tb` of the CG update u += α·p, r −= α·w (upstream
/// cg_calc_ur).
void cg_calc_ur_rows(Chunk& c, double alpha, const Bounds& tb);

/// Rows of `tb` of the CG update, preconditioner apply and ⟨r,z⟩ in ONE
/// pass:  u += α·p;  r −= α·w;  z = M⁻¹·r;  row partial Σ r·z — for the
/// LOCAL preconditioners only (kNone skips the z write and sums r·r);
/// block-Jacobi is composed by the engine from cg_calc_ur_rows +
/// block_jacobi_solve + dot_rows.
void calc_ur_dot_rows(Chunk& c, double alpha, PreconType precon,
                      const Bounds& tb, double* row_sums);

/// Rows of `tb` of the Chronopoulos-Gear vector update — the tail of
/// iteration i−1 and the head of iteration i in one pass:
///   p = z + β·p;  s(=sd) = w + β·s;  u += α·p;  r −= α·s;  z = M⁻¹·r
/// (β = 0 is the bootstrap p = z, s = w).  Block-Jacobi skips the z
/// write; the engine runs its strip solve as a separate per-rank pass.
void cg_chrono_update_rows(Chunk& c, double alpha, double beta,
                           PreconType precon, const Bounds& tb);

/// Tile `tb` of the fused Chebyshev step
///   w = A·dir;  res −= w;  dir = α·dir + β·M⁻¹·res;  acc += dir
/// (local preconditioners only): computes w for all rows of the tile and
/// applies as much of the update in-pass as the stencil dependences
/// allow.  2-D stencils: the update runs row-lagged one row behind the
/// stencil, with the first and last row of the block deferred (a
/// neighbouring block's stencil still reads their pristine `dir`).  3-D
/// stencils and assembled operators: the whole update defers.  After a
/// team barrier, `cheby_step_tile_edges` finishes the deferred rows.
void cheby_step_tile(Chunk& c, FieldId res, FieldId dir, FieldId acc,
                     double alpha, double beta, bool diag_precon,
                     const Bounds& bounds, const Bounds& tb);

/// Deferred updates of `cheby_step_tile` for the same block decomposition
/// (pointwise — safe once all blocks' stencil sweeps have completed):
/// the first/last row of the tile in 2-D, every row of the tile in 3-D.
void cheby_step_tile_edges(Chunk& c, FieldId res, FieldId dir, FieldId acc,
                           double alpha, double beta, bool diag_precon,
                           const Bounds& bounds, const Bounds& tb);

// ---- multigrid level cores (amg/) ---------------------------------------
// The geometric multigrid hierarchy (amg/multigrid.cpp) runs on its own
// per-level grids rather than on a Chunk, but its operator is the same
// A = identity + K-weighted graph Laplacian, so its per-row cores live
// here next to the 5-pt/7-pt chunk cores and are templated on the stencil
// arity the same way: `kz == nullptr` selects the 2-D 5-point core, whose
// arithmetic (and code) is exactly the pre-generalisation 2-D hierarchy's,
// and a 3-D level with kz ≡ 0 (a single cell-plane, where both z faces
// are physical boundaries) produces values equal to the 2-D core's.
// Every core processes one (k, l) row, so the V-cycle's serial and
// Team-workshared row loops share it and stay bitwise identical.

/// Non-owning view of one multigrid level's operator: face coefficients
/// in the TeaLeaf convention (kx(j,k,l) couples cells (j-1,k,l),(j,k,l);
/// physical-boundary faces zero).
struct MGOperatorView {
  const Field<double>* kx = nullptr;
  const Field<double>* ky = nullptr;
  const Field<double>* kz = nullptr;  ///< nullptr ⇒ 2-D 5-point operator
  int nx = 0;
  int ny = 0;
  int nz = 1;
};

/// A·src at one cell of a level (5-point or 7-point on A.kz).
[[nodiscard]] double mg_apply_stencil(const MGOperatorView& A,
                                      const Field<double>& src, int j, int k,
                                      int l = 0);

/// One damped-Jacobi row: u = old_u + ω·(rhs − A·old_u)/diag over row
/// (k, l).  `old_u` must be a pristine copy of u (simultaneous update).
void mg_smooth_row(const MGOperatorView& A, const Field<double>& rhs,
                   const Field<double>& old_u, Field<double>& u,
                   double omega, int k, int l);

/// One residual row: res = rhs − A·u over row (k, l).
void mg_residual_row(const MGOperatorView& A, const Field<double>& rhs,
                     const Field<double>& u, Field<double>& res, int k,
                     int l);

/// One operator row with the CG dot folded in: dst = A·src over row
/// (k, l), returning Σ src·dst over the row (mg-pcg's ⟨p, A·p⟩ partial).
[[nodiscard]] double mg_smvp_dot_row(const MGOperatorView& A,
                                     const Field<double>& src,
                                     Field<double>& dst, int k, int l);

/// One coarse row (kc, lc) of the full-weighting residual restriction:
/// coarse_rhs = average of the fine residual over the 2×2(×2) child
/// cells — the cell-centred analogue of the vertex-centred 9/27-point
/// full-weighting operator and the transpose of mg_prolong_row's
/// piecewise-constant interpolation (R = c·Pᵀ keeps the V-cycle
/// symmetric for use inside CG).  Per-axis coarsening factors derive
/// from the extent pairs: an axis with equal fine/coarse extents has a
/// single child per coarse cell and contributes no 1/2 weight, so a
/// z-degenerate 3-D level reproduces the 2-D operator exactly.  Odd
/// trailing cells aggregate singly (the last child duplicates, as in
/// the 2-D hierarchy).  Also zeroes coarse_u for the coming cycle.
void mg_restrict_row(const Field<double>& fine_res, int fnx, int fny,
                     int fnz, Field<double>& coarse_rhs,
                     Field<double>& coarse_u, int cnx, int cny, int cnz,
                     int kc, int lc);

/// One fine row (kf, lf) of the piecewise-constant prolongation:
/// fine_u += coarse_u(parent cell), with the same per-axis factor
/// derivation as mg_restrict_row.
void mg_prolong_row(const Field<double>& coarse_u, int cnx, int cny,
                    int cnz, Field<double>& fine_u, int fnx, int fny,
                    int fnz, int kf, int lf);

/// Tile `tb` of one Jacobi sweep (upstream tea_leaf_jacobi_solve_kernel):
/// save u into r (the old iterate, halo columns included), then
/// u = (u0 + ΣK·u_old(neighbours)) / diag, depositing the row partials of
/// Σ|u_new − u_old| into `row_sums`.  2-D: CACHE-FUSED — saves the
/// block's rows (r = u, extending to the −1/ny halo rows on the
/// first/last block) with the update row-lagged one row behind, so the
/// just-saved r rows are still in L2 when the stencil consumes them; rows
/// tb.klo and tb.khi−1 stay un-updated.
/// 3-D: saves the tile's rows plus the halo rows/planes its boundary
/// position owns (k = −1/ny on the first/last k-block, plane −1/nz on the
/// first/last plane); the update defers entirely, since adjacent planes'
/// stencils read every saved row.  After a team barrier,
/// `jacobi_tile_edges` finishes the deferred rows.  Per-cell arithmetic
/// is the same for any tiling — bitwise identical sweeps.
void jacobi_tile(Chunk& c, const Bounds& tb, double* row_sums);

/// Deferred updates of `jacobi_tile` for the same block decomposition:
/// rows tb.klo and tb.khi−1 in 2-D, every row of the tile in 3-D.
void jacobi_tile_edges(Chunk& c, const Bounds& tb, double* row_sums);

}  // namespace tealeaf::kernels
