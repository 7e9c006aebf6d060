#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ops/sparse_matrix.hpp"

namespace tealeaf {
class Chunk;
}

namespace tealeaf::io {

/// A square sparse matrix as read from a Matrix Market coordinate file:
/// 0-based (row, col, value) triplets with any symmetric counterpart
/// already expanded.  Rows are abstract indices here — they only become
/// grid cells (and Field storage offsets) in csr_from_triplets, once a
/// chunk supplies the geometry.
struct TripletMatrix {
  std::int64_t n = 0;  ///< matrix dimension (square)
  struct Entry {
    std::int64_t row = 0;
    std::int64_t col = 0;
    double val = 0.0;
  };
  std::vector<Entry> entries;
};

/// Parse a Matrix Market coordinate file.  Accepted header:
///   %%MatrixMarket matrix coordinate real general|symmetric
/// A `symmetric` file stores one triangle; the mirror entries are
/// expanded here.  A `general` file must be *numerically* symmetric
/// (entry-for-entry: a_ij present exactly equal to a_ji) — the solvers
/// are CG-family and silently mis-converge on an unsymmetric operator,
/// so the reader rejects instead.  Also rejected: non-square sizes,
/// out-of-range or duplicate indices, and rows with no stored diagonal
/// (the Jacobi-type preconditioners divide by it).  Throws TeaError.
[[nodiscard]] TripletMatrix read_matrix_market(std::istream& in);

/// read_matrix_market on a file path (TeaError if unreadable).
[[nodiscard]] TripletMatrix load_matrix_market(const std::string& path);

/// Write triplets back out in `general` coordinate format (1-based, one
/// entry per line).  Round-trips through read_matrix_market.
void write_matrix_market(std::ostream& os, const TripletMatrix& m);
void save_matrix_market(const std::string& path, const TripletMatrix& m);

/// Lay the triplets out as a CsrMatrix over the chunk's interior:
/// row r ↔ cell (j = r % nx, k = r / nx), column indices rewritten to
/// 32-bit Field storage offsets (require_int32_offsets), each row ordered
/// diagonal-first then ascending column (the diag-first slot is what the
/// kernels' pairwise accumulation and the preconditioners rely on).
/// Requires a 2-D chunk whose interior is exactly n cells.
[[nodiscard]] CsrMatrix csr_from_triplets(const TripletMatrix& m,
                                          const Chunk& c);

}  // namespace tealeaf::io
