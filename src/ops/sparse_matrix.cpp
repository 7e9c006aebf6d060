#include "ops/sparse_matrix.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>

#include "mesh/chunk.hpp"
#include "util/error.hpp"

namespace tealeaf {

namespace {

int stencil_arity(const Chunk& c) { return c.dims() == 3 ? 7 : 5; }

/// Values `csr_vals` (CSR order on `p`) re-laid out in `p.sell`.
template <class T>
std::vector<T> sell_values(const SparsePattern& p,
                           const std::vector<T>& csr_vals) {
  TEA_ASSERT(p.sell.has_value(), "pattern carries no SELL-C-sigma layout");
  const SellLayout& s = *p.sell;
  std::vector<T> vals(s.cols.size(), T(0));
  for (std::int64_t r = 0; r < p.nrows; ++r) {
    const std::int64_t base = s.row_base(r);
    const std::int64_t src = p.row_ptr[r];
    for (int i = 0; i < s.row_len[r]; ++i)
      vals[base + static_cast<std::int64_t>(i) * s.chunk_c] = csr_vals[src + i];
  }
  return vals;
}

}  // namespace

void require_int32_offsets(const ChunkExtent& extent, int dims,
                           int halo_depth) {
  const std::int64_t h2 = 2 * static_cast<std::int64_t>(halo_depth);
  const std::int64_t elements =
      (extent.nx + h2) * (extent.ny + h2) * (dims == 3 ? extent.nz + h2 : 1);
  constexpr std::int64_t kLimit = std::numeric_limits<std::int32_t>::max();
  TEA_REQUIRE(elements <= kLimit,
              "assembled operators store 32-bit column offsets: this "
              "chunk's field storage of " +
                  std::to_string(elements) +
                  " elements exceeds the INT32_MAX limit of " +
                  std::to_string(kLimit) +
                  " (decompose over more ranks or use the stencil)");
}

std::shared_ptr<SparsePattern> stencil_pattern(const Chunk& c) {
  require_int32_offsets(c.extent(), c.dims(), c.halo_depth());
  const int nx = c.nx(), ny = c.ny(), nz = c.nz();
  const bool three_d = c.dims() == 3;
  const Field<double>& geom = c.u();  // any field: all share one geometry
  const int per_row = stencil_arity(c);

  auto p = std::make_shared<SparsePattern>();
  p->stencil = true;
  p->nrows = static_cast<std::int64_t>(nx) * ny * nz;
  p->row_ptr.resize(p->nrows + 1);
  p->cols.resize(p->nrows * per_row);
  // One inter-plane column hop moves the flattened row index by ny; one
  // inter-row hop moves it by 1.
  p->row_reach = three_d ? ny : 1;
  for (std::int64_t r = 0; r <= p->nrows; ++r) p->row_ptr[r] = r * per_row;
  const auto at = [&](int j, int k, int l) {
    return static_cast<std::int32_t>(geom.index(j, k, l));
  };
  std::int32_t* col = p->cols.data();
  for (int l = 0; l < nz; ++l) {
    for (int k = 0; k < ny; ++k) {
      for (int j = 0; j < nx; ++j) {
        *col++ = at(j, k, l);
        *col++ = at(j, k + 1, l);
        *col++ = at(j, k - 1, l);
        *col++ = at(j + 1, k, l);
        *col++ = at(j - 1, k, l);
        if (three_d) {
          *col++ = at(j, k, l + 1);
          *col++ = at(j, k, l - 1);
        }
      }
    }
  }
  return p;
}

template <class T>
std::vector<T> stencil_values(const Chunk& c, const SparsePattern& p) {
  const int nx = c.nx(), ny = c.ny(), nz = c.nz();
  const bool three_d = c.dims() == 3;
  TEA_REQUIRE(p.stencil && p.nrows == static_cast<std::int64_t>(nx) * ny * nz &&
                  p.nnz() == p.nrows * stencil_arity(c),
              "stencil values need the chunk's own stencil pattern");
  // The float instantiation assembles from the fp32 coefficient bank in
  // float arithmetic, preserving the stencil's entry order and diagonal
  // association — the bitwise stencil ≡ CSR contract, per scalar.
  const Field<T>& kx = c.field_t<T>(FieldId::kKx);
  const Field<T>& ky = c.field_t<T>(FieldId::kKy);
  const Field<T>& kz =
      three_d ? c.field_t<T>(FieldId::kKz) : c.field_t<T>(FieldId::kKx);

  std::vector<T> vals(static_cast<std::size_t>(p.nnz()));
  T* v = vals.data();
  for (int l = 0; l < nz; ++l) {
    for (int k = 0; k < ny; ++k) {
      for (int j = 0; j < nx; ++j) {
        const T ky_lo = ky(j, k, l), ky_hi = ky(j, k + 1, l);
        const T kx_lo = kx(j, k, l), kx_hi = kx(j + 1, k, l);
        // Same association as the matrix-free diagonal:
        // ((1 + (ky_hi+ky_lo)) + (kx_hi+kx_lo)) [+ (kz_hi+kz_lo)].
        T diag = T(1) + (ky_hi + ky_lo) + (kx_hi + kx_lo);
        if (three_d) diag += kz(j, k, l + 1) + kz(j, k, l);
        *v++ = diag;
        *v++ = -ky_hi;
        *v++ = -ky_lo;
        *v++ = -kx_hi;
        *v++ = -kx_lo;
        if (three_d) {
          *v++ = -kz(j, k, l + 1);
          *v++ = -kz(j, k, l);
        }
      }
    }
  }
  return vals;
}

template std::vector<double> stencil_values<double>(const Chunk&,
                                                    const SparsePattern&);
template std::vector<float> stencil_values<float>(const Chunk&,
                                                  const SparsePattern&);

template <class T>
CsrMatrixT<T> assemble_from_stencil_t(const Chunk& c) {
  CsrMatrixT<T> m;
  m.pattern = stencil_pattern(c);
  m.vals = stencil_values<T>(c, *m.pattern);
  return m;
}

template CsrMatrixT<double> assemble_from_stencil_t<double>(const Chunk&);
template CsrMatrixT<float> assemble_from_stencil_t<float>(const Chunk&);

CsrMatrix assemble_from_stencil(const Chunk& c) {
  return assemble_from_stencil_t<double>(c);
}

double SellLayout::fill_ratio() const {
  const std::int64_t padded = slice_ptr.empty() ? 0 : slice_ptr.back();
  const std::int64_t true_nnz =
      std::accumulate(row_len.begin(), row_len.end(), std::int64_t{0});
  return true_nnz > 0 ? static_cast<double>(padded) /
                            static_cast<double>(true_nnz)
                      : 1.0;
}

void add_sell_layout(SparsePattern& p, int C, int sigma) {
  TEA_REQUIRE(C > 0 && sigma > 0, "SELL-C-sigma needs positive C and sigma");
  SellLayout s;
  s.chunk_c = C;
  s.sigma = sigma;
  s.row_len.resize(p.nrows);
  for (std::int64_t r = 0; r < p.nrows; ++r) s.row_len[r] = p.row_len(r);

  // Sort rows by descending length inside each σ window — a storage
  // permutation only (stable, so equal-length rows keep sweep order and a
  // stencil-assembled matrix gets the identity permutation).
  std::vector<std::int32_t> order(p.nrows);
  std::iota(order.begin(), order.end(), std::int32_t{0});
  for (std::int64_t w = 0; w < p.nrows; w += sigma) {
    const std::int64_t hi = std::min<std::int64_t>(w + sigma, p.nrows);
    std::stable_sort(order.begin() + w, order.begin() + hi,
                     [&](std::int32_t a, std::int32_t b) {
                       return s.row_len[a] > s.row_len[b];
                     });
  }
  s.slot.resize(p.nrows);
  for (std::int64_t q = 0; q < p.nrows; ++q)
    s.slot[order[q]] = static_cast<std::int32_t>(q);

  const std::int64_t nslices = (p.nrows + C - 1) / C;
  s.slice_ptr.resize(nslices + 1);
  s.slice_ptr[0] = 0;
  for (std::int64_t sl = 0; sl < nslices; ++sl) {
    int width = 0;
    for (std::int64_t q = sl * C;
         q < std::min<std::int64_t>((sl + 1) * C, p.nrows); ++q)
      width = std::max(width, s.row_len[order[q]]);
    s.slice_ptr[sl + 1] =
        s.slice_ptr[sl] + static_cast<std::int64_t>(width) * C;
  }
  s.cols.assign(s.slice_ptr[nslices], 0);
  for (std::int64_t r = 0; r < p.nrows; ++r) {
    const std::int64_t base = s.row_base(r);
    const std::int64_t src = p.row_ptr[r];
    for (int i = 0; i < s.row_len[r]; ++i)
      s.cols[base + static_cast<std::int64_t>(i) * C] = p.cols[src + i];
  }
  p.sell = std::move(s);
}

template <class T>
SellMatrixT<T> sell_from_csr_t(const CsrMatrixT<T>& csr, int C, int sigma) {
  SellMatrixT<T> s;
  const SparsePattern& p = *csr.pattern;
  if (p.sell && p.sell->chunk_c == C && p.sell->sigma == sigma) {
    s.pattern = csr.pattern;
  } else {
    auto laid = std::make_shared<SparsePattern>(p);
    add_sell_layout(*laid, C, sigma);
    s.pattern = std::move(laid);
  }
  s.vals = sell_values(*s.pattern, csr.vals);
  return s;
}

template SellMatrixT<double> sell_from_csr_t<double>(const CsrMatrixT<double>&,
                                                     int, int);
template SellMatrixT<float> sell_from_csr_t<float>(const CsrMatrixT<float>&,
                                                   int, int);

SellMatrix sell_from_csr(const CsrMatrix& csr, int C, int sigma) {
  return sell_from_csr_t<double>(csr, C, sigma);
}

std::shared_ptr<const SparsePattern> operator_pattern(const Chunk& c) {
  if (c.csr() != nullptr) return c.csr()->pattern;
  if (c.sell() != nullptr) return c.sell()->pattern;
  return nullptr;
}

namespace {

/// The chunk's conduction stencil in scalar T on pattern `p`, installed in
/// the chunk's operator format (fp32 as the twin of the fp64 operator).
template <class T>
void install_stencil_values(Chunk& c, std::shared_ptr<const SparsePattern> p,
                            bool sell) {
  std::vector<T> vals = stencil_values<T>(c, *p);
  const auto install = [&c](auto m) {
    if constexpr (std::is_same_v<T, float>) {
      c.set_assembled_operator32(std::move(m));
    } else {
      c.set_assembled_operator(std::move(m));
    }
  };
  if (sell) {
    auto m = std::make_shared<SellMatrixT<T>>();
    m->vals = sell_values(*p, vals);
    m->pattern = std::move(p);
    install(std::move(m));
  } else {
    auto m = std::make_shared<CsrMatrixT<T>>();
    m->vals = std::move(vals);
    m->pattern = std::move(p);
    install(std::move(m));
  }
}

}  // namespace

void assemble_operator(Chunk& c, OperatorKind op) {
  const bool sell = op == OperatorKind::kSellCSigma;
  // The stencil pattern is a function of the chunk's geometry alone:
  // keep the installed one unless it is foreign (a loaded matrix) or
  // carries the wrong layout, and drop every old value array before the
  // new ones are built.
  std::shared_ptr<const SparsePattern> p = operator_pattern(c);
  c.clear_assembled_operator();
  if (op == OperatorKind::kStencil) return;
  if (p == nullptr || !p->stencil || p->sell.has_value() != sell ||
      p->nrows != static_cast<std::int64_t>(c.nx()) * c.ny() * c.nz()) {
    std::shared_ptr<SparsePattern> fresh = stencil_pattern(c);
    if (sell) add_sell_layout(*fresh);
    p = std::move(fresh);
  }
  install_stencil_values<double>(c, std::move(p), sell);
}

void assemble_operator32(Chunk& c) {
  if (c.op_kind() == OperatorKind::kStencil) return;
  c.clear_assembled_operator32();
  install_stencil_values<float>(c, operator_pattern(c),
                                c.op_kind() == OperatorKind::kSellCSigma);
}

}  // namespace tealeaf
