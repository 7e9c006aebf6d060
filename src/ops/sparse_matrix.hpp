#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mesh/decomposition.hpp"
#include "ops/operator_kind.hpp"

namespace tealeaf {

class Chunk;

/// SELL-C-σ re-layout of a sparsity pattern: rows are grouped into slices
/// of C, rows within each σ-row sorting window are ordered by descending
/// length (a storage permutation only), and each slice stores its entries
/// column-major (entry i of the slice's rows are adjacent — the SIMD-
/// friendly layout of Kreutzer et al.).  Per-row true lengths are kept so
/// padding never enters the arithmetic: entry i of row r has the same
/// value and column as in the source CSR, which keeps SELL bitwise equal
/// to CSR.
struct SellLayout {
  int chunk_c = 8;  ///< slice height C
  int sigma = 64;   ///< sorting window σ (rows)
  std::vector<std::int64_t> slice_ptr;  ///< per-slice base offset
  std::vector<std::int32_t> slot;       ///< row → slice·C + lane (post-sort)
  std::vector<int> row_len;             ///< row → true entry count
  std::vector<std::int32_t> cols;       ///< padded, slice-column-major

  /// Storage offset of entry 0 of row r (entry i sits i·C further on).
  [[nodiscard]] std::int64_t row_base(std::int64_t r) const {
    const std::int64_t p = slot[r];
    return slice_ptr[p / chunk_c] + p % chunk_c;
  }
  [[nodiscard]] double fill_ratio() const;  ///< padded / true nnz
};

/// The immutable index pattern of an assembled operator over one chunk's
/// interior cells: CSR row pointers and columns, plus the SELL-C-σ
/// re-layout when the chunk runs that format.  One pattern serves every
/// value array laid out on it — the fp64 and fp32 matrices of a chunk,
/// CSR and SELL alike, point at the same object, so the fp32 operator
/// costs only its values and re-assembly after a coefficient change
/// rebuilds values, never indices.
///
/// Rows are interior cells in flattened sweep order, row = (l·ny + k)·nx + j.
/// Column indices are *32-bit storage offsets into the chunk's Field
/// arrays* (all solver fields of a chunk share one geometry — the fp32
/// field bank uses the same halo, so the same offsets index both banks),
/// so SpMV gathers straight from any field's backing store — halo cells
/// included, which is what makes the assembled path work unchanged under
/// multi-rank halo exchange.  `require_int32_offsets` guards the width.
struct SparsePattern {
  std::int64_t nrows = 0;
  std::vector<std::int64_t> row_ptr;  ///< nrows + 1 offsets into cols
  std::vector<std::int32_t> cols;     ///< Field storage offsets

  /// Greatest |Δ(l·ny + k)| between a row and any column it references —
  /// the row lag a Chebyshev-style deferred-update sweep must respect.
  int row_reach = 1;

  /// Built by stencil_pattern(): every row has the full stencil arity in
  /// the order stencil_values() writes.  Only such a pattern can take
  /// re-assembled values.
  bool stencil = false;

  /// SELL-C-σ re-layout of the same rows (add_sell_layout).
  std::optional<SellLayout> sell;

  [[nodiscard]] std::int64_t nnz() const {
    return static_cast<std::int64_t>(cols.size());
  }
  [[nodiscard]] double nnz_per_row() const {
    return nrows > 0 ? static_cast<double>(nnz()) / static_cast<double>(nrows)
                     : 0.0;
  }
  [[nodiscard]] int row_len(std::int64_t r) const {
    return static_cast<int>(row_ptr[r + 1] - row_ptr[r]);
  }
};

/// Assembled sparse matrix in CSR layout: values on a shared pattern,
/// templated on the storage scalar (double for the classic path, float
/// for the fp32 execution layer — same pattern, half the value bytes).
///
/// Entry order within a row is significant: the kernels accumulate entries
/// pairwise (entry 0, then (1,2), (3,4), ... and a possible odd tail), so a
/// matrix assembled from the stencil — entry order diag, ky(k+1), ky(k−1),
/// kx(j+1), kx(j−1)[, kz(l+1), kz(l−1)], off-diagonals stored *signed*
/// (negative) and boundary-face zeros kept — reproduces the matrix-free
/// arithmetic bit for bit, in either scalar.  Entry 0 of every row must be
/// the diagonal.
template <class T>
struct CsrMatrixT {
  std::shared_ptr<const SparsePattern> pattern;
  std::vector<T> vals;  ///< signed entry values, diag first (CSR order)

  [[nodiscard]] std::int64_t nnz() const { return pattern->nnz(); }
  [[nodiscard]] double nnz_per_row() const { return pattern->nnz_per_row(); }
};

using CsrMatrix = CsrMatrixT<double>;
using CsrMatrix32 = CsrMatrixT<float>;

/// The same values in the SELL-C-σ layout of `pattern->sell` (padded,
/// slice-column-major, padding zero).
template <class T>
struct SellMatrixT {
  std::shared_ptr<const SparsePattern> pattern;  ///< carries the layout
  std::vector<T> vals;

  [[nodiscard]] const SellLayout& layout() const { return *pattern->sell; }
  [[nodiscard]] double fill_ratio() const { return layout().fill_ratio(); }
};

using SellMatrix = SellMatrixT<double>;
using SellMatrix32 = SellMatrixT<float>;

/// Reject a chunk whose field storage — (nx+2h)(ny+2h)[(nz+2h)] elements,
/// halo included — would overflow a 32-bit column offset.  Computed from
/// the extents alone, so an oversized geometry fails before anything is
/// allocated for it.
void require_int32_offsets(const ChunkExtent& extent, int dims,
                           int halo_depth);

/// The chunk's conduction-stencil pattern: 5 (2-D) or 7 (3-D) entries per
/// row in the order diag, ky(k+1), ky(k−1), kx(j+1), kx(j−1)[, kz(l+1),
/// kz(l−1)], boundary-face entries kept so every row has the full arity
/// and the kernels' pairwise accumulation never regroups.
[[nodiscard]] std::shared_ptr<SparsePattern> stencil_pattern(const Chunk& c);

/// Attach the SELL-C-σ re-layout of `p`'s rows.  Replaces any previous one.
void add_sell_layout(SparsePattern& p, int C = 8, int sigma = 64);

/// The chunk's conduction stencil as values on its stencil pattern `p`
/// (diag computed with the stencil's association, signed off-diagonals,
/// boundary zeros kept).  The float instantiation reads the chunk's fp32
/// coefficient bank and computes the diagonal in float arithmetic — NOT a
/// downcast of double-assembled values — so the stencil ≡ CSR contract
/// carries to the second scalar.
template <class T>
[[nodiscard]] std::vector<T> stencil_values(const Chunk& c,
                                            const SparsePattern& p);

/// Pattern and values in one go (a fresh pattern without SELL layout).
template <class T>
[[nodiscard]] CsrMatrixT<T> assemble_from_stencil_t(const Chunk& c);

[[nodiscard]] CsrMatrix assemble_from_stencil(const Chunk& c);

/// Re-layout CSR values as SELL-C-σ.  Entry order per row is preserved.
/// Shares `csr.pattern` when it already carries a (C, σ) layout; otherwise
/// the result gets its own copy of the pattern with that layout added.
template <class T>
[[nodiscard]] SellMatrixT<T> sell_from_csr_t(const CsrMatrixT<T>& csr,
                                             int C = 8, int sigma = 64);

[[nodiscard]] SellMatrix sell_from_csr(const CsrMatrix& csr, int C = 8,
                                       int sigma = 64);

/// The index pattern of the chunk's installed assembled operator (CSR or
/// SELL-C-σ); null on a stencil chunk.
[[nodiscard]] std::shared_ptr<const SparsePattern> operator_pattern(
    const Chunk& c);

/// Install the chunk's conduction stencil as operator `op` (stencil: drop
/// any assembled matrices).  The chunk's installed stencil pattern is kept
/// when it fits `op` and only the values are rebuilt; the old values are
/// released first, so a chunk never holds two matrices at once, and a
/// SELL-C-σ chunk holds SELL values only.  Drops the fp32 twins, which
/// the new values make stale.
void assemble_operator(Chunk& c, OperatorKind op);

/// Install the fp32 twin of the chunk's assembled operator, in its
/// format: values assembled from the fp32 coefficient bank onto the fp64
/// operator's pattern (old fp32 values released first).  No-op for the
/// stencil.
void assemble_operator32(Chunk& c);

}  // namespace tealeaf
