#pragma once

// A serial reference implementation of the native solvers: CG (classic
// and Chronopoulos-Gear), Jacobi, Chebyshev and PPCG with matrix-powers
// depth.  Plain loops over the chunks in (rank, plane, row, cell) order
// through each chunk's OperatorView, every global reduction accumulated
// per row, then per rank, then across ranks in rank order — the
// arithmetic contract the execution engine promises.  The engine tests
// compare run_solver against this bitwise: same iterates, iteration
// counts, recurrence scalars and CommStats.  Only the block-Jacobi strip
// solve (a per-chunk preconditioner component, not an engine concern)
// and the eigenvalue/coefficient helpers are borrowed from the library.

#include <cmath>
#include <type_traits>
#include <utility>

#include "comm/sim_comm.hpp"
#include "ops/operator_view.hpp"
#include "precon/preconditioner.hpp"
#include "solvers/cheby_coef.hpp"
#include "solvers/eigen_estimate.hpp"
#include "solvers/solver.hpp"

namespace tealeaf::testing::reference {

using F = FieldId;

/// The storage scalar of an operator view.
template <class View>
using Scalar = typename std::decay_t<View>::Scalar;

/// Field `id` of chunk `c` in the view's storage scalar.
template <class View>
auto& at(Chunk& c, const View&, FieldId id) {
  return c.field_t<Scalar<View>>(id);
}

/// fn(chunk, view) on every rank in rank order.
template <class Fn>
void each_rank(SimCluster& cl, Fn&& fn) {
  for (int r = 0; r < cl.nranks(); ++r) {
    Chunk& c = cl.chunk(r);
    op_dispatch(c, [&](const auto& A) { fn(c, A); });
  }
}

/// fn(chunk, view, j, k, l) over every rank's interior extended `ext`
/// cells towards its neighbours, in (rank, plane, row, cell) order.
template <class Fn>
void each_cell(SimCluster& cl, int ext, Fn&& fn) {
  each_rank(cl, [&](Chunk& c, const auto& A) {
    const Bounds b = extended_bounds(c, ext);
    for (int l = b.llo; l < b.lhi; ++l)
      for (int k = b.klo; k < b.khi; ++k)
        for (int j = b.jlo; j < b.jhi; ++j) fn(c, A, j, k, l);
  });
}

/// One allreduce of the two interior sums of `term(chunk, view, j, k,
/// l)`: per row, then per rank, then across ranks.
template <class Fn>
std::pair<double, double> global_sum2(SimCluster& cl, Fn&& term) {
  double a = 0.0, b = 0.0;
  each_rank(cl, [&](Chunk& c, const auto& A) {
    double ra = 0.0, rb = 0.0;
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k) {
        double pa = 0.0, pb = 0.0;
        for (int j = 0; j < c.nx(); ++j) {
          const auto [x, y] = term(c, A, j, k, l);
          pa += x;
          pb += y;
        }
        ra += pa;
        rb += pb;
      }
    a += ra;
    b += rb;
  });
  ++cl.stats().reductions;
  return {a, b};
}

template <class Fn>
double global_sum(SimCluster& cl, Fn&& term) {
  return global_sum2(cl, [&](Chunk& c, const auto& A, int j, int k, int l) {
           return std::pair<double, double>{term(c, A, j, k, l), 0.0};
         }).first;
}

/// The cell term of ⟨a, b⟩.
inline auto dot(FieldId a, FieldId b) {
  return [a, b](Chunk& c, const auto& A, int j, int k, int l) {
    return static_cast<double>(at(c, A, a)(j, k, l)) *
           static_cast<double>(at(c, A, b)(j, k, l));
  };
}

/// dst = A·src over the interior extended `ext` cells.
inline void apply(SimCluster& cl, FieldId src, FieldId dst, int ext = 0) {
  each_cell(cl, ext, [&](Chunk& c, const auto& A, int j, int k, int l) {
    at(c, A, dst)(j, k, l) = A.apply(at(c, A, src), j, k, l);
  });
}

/// dst = M⁻¹·src over the interior.
inline void precondition(SimCluster& cl, PreconType precon, FieldId src,
                         FieldId dst) {
  if (precon == PreconType::kJacobiBlock) {
    each_rank(cl, [&](Chunk& c, const auto&) {
      kernels::block_jacobi_solve(c, src, dst);
    });
    return;
  }
  each_cell(cl, 0, [&](Chunk& c, const auto& A, int j, int k, int l) {
    const auto s = at(c, A, src)(j, k, l);
    at(c, A, dst)(j, k, l) =
        precon == PreconType::kJacobiDiag ? s / A.diag(j, k, l) : s;
  });
}

/// w = A·u;  r = u0 − w;  block-Jacobi set-up;  z = M⁻¹r.
inline void residual(SimCluster& cl, PreconType precon, FieldId z) {
  cl.exchange({F::kU}, 1);
  apply(cl, F::kU, F::kW);
  each_cell(cl, 0, [](Chunk& c, const auto& A, int j, int k, int l) {
    at(c, A, F::kR)(j, k, l) =
        at(c, A, F::kU0)(j, k, l) - at(c, A, F::kW)(j, k, l);
  });
  if (precon == PreconType::kJacobiBlock) {
    each_rank(cl,
              [](Chunk& c, const auto&) { kernels::block_jacobi_init(c); });
  }
  precondition(cl, precon, F::kR, z);
}

/// CG set-up: the residual and p = M⁻¹r; returns ⟨r, M⁻¹r⟩.
inline double cg_setup(SimCluster& cl, PreconType precon) {
  const FieldId z = precon == PreconType::kNone ? F::kR : F::kZ;
  residual(cl, precon, z);
  precondition(cl, PreconType::kNone, z, F::kP);
  return global_sum(cl, dot(F::kR, z));
}

/// u += α·p and r −= α·w.
inline void update_ur(SimCluster& cl, double alpha) {
  each_cell(cl, 0, [&](Chunk& c, const auto& A, int j, int k, int l) {
    const auto a = static_cast<Scalar<decltype(A)>>(alpha);
    at(c, A, F::kU)(j, k, l) += a * at(c, A, F::kP)(j, k, l);
    at(c, A, F::kR)(j, k, l) -= a * at(c, A, F::kW)(j, k, l);
  });
}

/// p = z + β·p.
inline void update_p(SimCluster& cl, FieldId z, double beta) {
  each_cell(cl, 0, [&](Chunk& c, const auto& A, int j, int k, int l) {
    auto& p = at(c, A, F::kP);
    p(j, k, l) = at(c, A, z)(j, k, l) +
                 static_cast<Scalar<decltype(A)>>(beta) * p(j, k, l);
  });
}

/// One classic CG iteration; appends (α, β) to `rec` when non-null.
inline double cg_iteration(SimCluster& cl, PreconType precon, double rro,
                           CGRecurrence* rec, bool& breakdown) {
  const FieldId z = precon == PreconType::kNone ? F::kR : F::kZ;
  cl.exchange({F::kP}, 1);
  apply(cl, F::kP, F::kW);
  const double pw = global_sum(cl, dot(F::kP, F::kW));
  if (!(pw > 0.0)) {
    breakdown = true;
    return rro;
  }
  const double alpha = rro / pw;
  update_ur(cl, alpha);
  if (precon != PreconType::kNone) precondition(cl, precon, F::kR, z);
  const double rrn = global_sum(cl, dot(F::kR, z));
  const double beta = rrn / rro;
  update_p(cl, z, beta);
  if (rec != nullptr) {
    rec->alphas.push_back(alpha);
    rec->betas.push_back(beta);
  }
  return rrn;
}

/// M⁻¹ of a local preconditioner at a cell, formed as the Chebyshev
/// kernels form it (a reciprocal, then a product).
template <class View>
Scalar<View> m_inv(const View& A, PreconType precon, int j, int k, int l) {
  using S = Scalar<View>;
  return precon == PreconType::kJacobiDiag ? S(1) / A.diag(j, k, l) : S(1);
}

/// dir = M⁻¹·res / θ over the interior extended `ext` cells, then
/// acc += dir (Chebyshev, acc = u) or acc = dir (PPCG, acc = z).
/// Block-Jacobi strip-solves res into `scratch` first.
inline void cheby_init(SimCluster& cl, PreconType precon, FieldId res,
                       FieldId dir, FieldId acc, FieldId scratch,
                       double theta, int ext) {
  if (precon == PreconType::kJacobiBlock) {
    precondition(cl, precon, res, scratch);
    res = scratch;
    precon = PreconType::kNone;
  }
  each_cell(cl, ext, [&](Chunk& c, const auto& A, int j, int k, int l) {
    using S = Scalar<decltype(A)>;
    const S d = m_inv(A, precon, j, k, l) * at(c, A, res)(j, k, l) *
                static_cast<S>(1.0 / theta);
    at(c, A, dir)(j, k, l) = d;
    if (acc == F::kU) {
      at(c, A, acc)(j, k, l) += S(1) * d;
    } else {
      at(c, A, acc)(j, k, l) = d;
    }
  });
}

/// One Chebyshev step on (res, dir, acc): w = A·dir; res −= w;
/// dir = α·dir + β·M⁻¹·res; acc += dir.  Block-Jacobi strip-solves res
/// into `scratch`.
inline void cheby_step(SimCluster& cl, PreconType precon, FieldId res,
                       FieldId dir, FieldId acc, FieldId scratch,
                       double alpha, double beta, int ext) {
  apply(cl, dir, F::kW, ext);
  const bool block = precon == PreconType::kJacobiBlock;
  if (block) {
    each_cell(cl, ext, [&](Chunk& c, const auto& A, int j, int k, int l) {
      at(c, A, res)(j, k, l) +=
          Scalar<decltype(A)>(-1) * at(c, A, F::kW)(j, k, l);
    });
    precondition(cl, precon, res, scratch);
  }
  each_cell(cl, ext, [&](Chunk& c, const auto& A, int j, int k, int l) {
    using S = Scalar<decltype(A)>;
    const S a = static_cast<S>(alpha);
    const S b = static_cast<S>(beta);
    auto& r = at(c, A, res);
    auto& d = at(c, A, dir);
    if (block) {
      d(j, k, l) = a * d(j, k, l) + b * at(c, A, scratch)(j, k, l);
      at(c, A, acc)(j, k, l) += S(1) * d(j, k, l);
      return;
    }
    r(j, k, l) -= at(c, A, F::kW)(j, k, l);
    d(j, k, l) = a * d(j, k, l) + b * m_inv(A, precon, j, k, l) * r(j, k, l);
    at(c, A, acc)(j, k, l) += d(j, k, l);
  });
}

/// Classic CG, or Chronopoulos-Gear with cfg.fuse_cg_reductions.
inline SolveStats cg(SimCluster& cl, const SolverConfig& cfg) {
  SolveStats st;
  const bool chrono = cfg.fuse_cg_reductions;
  // Chronopoulos-Gear: exchange z; w = A·z; (⟨r,z⟩, ⟨w,z⟩) in ONE sum.
  const auto pair = [&] {
    cl.exchange({F::kZ}, 1);
    apply(cl, F::kZ, F::kW);
    return global_sum2(cl, [](Chunk& c, const auto& A, int j, int k, int l) {
      return std::pair<double, double>{dot(F::kR, F::kZ)(c, A, j, k, l),
                                       dot(F::kW, F::kZ)(c, A, j, k, l)};
    });
  };
  std::pair<double, double> gd;
  if (chrono) residual(cl, cfg.precon, F::kZ);
  double rro = chrono ? (gd = pair()).first : cg_setup(cl, cfg.precon);
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(rro));
  const auto finish = [&](double rr) {
    st.final_norm = std::sqrt(std::fabs(rr));
    return st;
  };
  if (st.break_on_nonfinite(rro, "CG")) return finish(rro);
  if (st.initial_norm == 0.0) {
    st.converged = true;
    return finish(rro);
  }
  if (chrono && !(gd.second > 0.0)) {
    st.breakdown = true;
    return finish(rro);
  }
  double alpha = chrono ? gd.first / gd.second : 0.0;
  double beta = 0.0;
  while (st.outer_iters < cfg.max_iters) {
    double rrn;
    if (chrono) {
      // p = z + β·p;  s = w + β·s;  u += α·p;  r −= α·s;  z = M⁻¹r.
      each_cell(cl, 0, [&](Chunk& c, const auto& A, int j, int k, int l) {
        using S = Scalar<decltype(A)>;
        auto& p = at(c, A, F::kP);
        auto& s = at(c, A, F::kSd);
        p(j, k, l) =
            at(c, A, F::kZ)(j, k, l) + static_cast<S>(beta) * p(j, k, l);
        s(j, k, l) =
            at(c, A, F::kW)(j, k, l) + static_cast<S>(beta) * s(j, k, l);
        at(c, A, F::kU)(j, k, l) += static_cast<S>(alpha) * p(j, k, l);
        at(c, A, F::kR)(j, k, l) -= static_cast<S>(alpha) * s(j, k, l);
      });
      precondition(cl, cfg.precon, F::kR, F::kZ);
      gd = pair();
      rrn = gd.first;
    } else {
      bool broke = false;
      rrn = cg_iteration(cl, cfg.precon, rro, nullptr, broke);
      if (broke) {
        ++st.spmv_applies;
        st.breakdown = true;
        break;
      }
    }
    ++st.spmv_applies;
    ++st.outer_iters;
    if (st.break_on_nonfinite(rrn, "CG")) return finish(rrn);
    if (std::sqrt(std::fabs(rrn)) <= cfg.eps * st.initial_norm) {
      st.converged = true;
      return finish(rrn);
    }
    if (chrono) {
      beta = rrn / rro;
      alpha = rrn / (gd.second - beta * rrn / alpha);
    }
    rro = rrn;
    if (!std::isfinite(alpha)) {
      st.breakdown = true;
      break;
    }
  }
  return finish(rro);
}

/// Point Jacobi: save u (halo included), u = (u0 + ΣK·u_old) / diag,
/// error Σ|Δu|.
inline SolveStats jacobi(SimCluster& cl, const SolverConfig& cfg) {
  SolveStats st;
  double initial_err = 0.0;
  while (st.outer_iters < cfg.max_iters) {
    cl.exchange({F::kU}, 1);
    each_rank(cl, [](Chunk& c, const auto& A) {
      const int z = c.dims() == 3 ? 1 : 0;
      for (int l = -z; l < c.nz() + z; ++l)
        for (int k = -1; k <= c.ny(); ++k)
          for (int j = -1; j <= c.nx(); ++j)
            at(c, A, F::kR)(j, k, l) = at(c, A, F::kU)(j, k, l);
    });
    const double err =
        global_sum(cl, [](Chunk& c, const auto& A, int j, int k, int l) {
          auto& u = at(c, A, F::kU);
          const auto& r = at(c, A, F::kR);
          u(j, k, l) = A.neigh_plus(at(c, A, F::kU0)(j, k, l), r, j, k, l) /
                       A.diag(j, k, l);
          return std::fabs(static_cast<double>(u(j, k, l)) -
                           static_cast<double>(r(j, k, l)));
        });
    ++st.outer_iters;
    ++st.spmv_applies;
    if (st.outer_iters == 1) {
      initial_err = err;
      st.initial_norm = err;
      if (err == 0.0) {
        st.converged = true;
        break;
      }
    }
    st.final_norm = err;
    if (st.break_on_nonfinite(err, "Jacobi")) break;
    if (err <= cfg.eps * initial_err) {
      st.converged = true;
      break;
    }
  }
  return st;
}

/// CG presteps (at most `budget`; skipped when hinted) and the eigenvalue
/// interval they give.  Returns false when the solve already finished.
inline bool presteps(SimCluster& cl, const SolverConfig& cfg, int budget,
                     double& rro, SolveStats& st) {
  if (cfg.has_eig_hints()) {
    st.eigmin = cfg.eig_hint_min;
    st.eigmax = cfg.eig_hint_max;
    return true;
  }
  CGRecurrence rec;
  for (int i = 0; i < cfg.eigen_cg_iters && i < budget; ++i) {
    bool broke = false;
    rro = cg_iteration(cl, cfg.precon, rro, &rec, broke);
    ++st.spmv_applies;
    if (broke) {
      st.breakdown = true;
      return false;
    }
    ++st.eigen_cg_iters;
    if (std::sqrt(std::fabs(rro)) <= cfg.eps * st.initial_norm) {
      st.converged = true;
      return false;
    }
  }
  const EigenEstimate est =
      estimate_eigenvalues(rec, cfg.eig_safety_lo, cfg.eig_safety_hi);
  st.eigmin = est.eigmin;
  st.eigmax = est.eigmax;
  return true;
}

/// Stand-alone Chebyshev on (r, p, u), checking ‖r‖ every
/// cheby_check_interval steps.
inline SolveStats chebyshev(SimCluster& cl, const SolverConfig& cfg) {
  SolveStats st;
  double rro = cg_setup(cl, cfg.precon);
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(rro));
  if (st.break_on_nonfinite(rro, "Chebyshev") || st.initial_norm == 0.0) {
    st.converged = !st.breakdown;
    st.final_norm = st.breakdown ? st.initial_norm : 0.0;
    return st;
  }
  const double bb_rr = global_sum(cl, dot(F::kR, F::kR));
  if (!presteps(cl, cfg, cfg.max_iters, rro, st)) {
    st.outer_iters = st.eigen_cg_iters;
    st.final_norm = std::sqrt(std::fabs(rro));
    return st;
  }
  const ChebyCoefs cc =
      chebyshev_coefficients(st.eigmin, st.eigmax, cfg.max_iters);
  cheby_init(cl, cfg.precon, F::kR, F::kP, F::kU, F::kZ, cc.theta, 0);
  int step = 0;
  double rr = bb_rr;
  while (st.eigen_cg_iters + step < cfg.max_iters) {
    cl.exchange({F::kP}, 1);
    cheby_step(cl, cfg.precon, F::kR, F::kP, F::kU, F::kZ, cc.alphas[step],
               cc.betas[step], 0);
    const bool check = (step + 1) % cfg.cheby_check_interval == 0;
    if (check) rr = global_sum(cl, dot(F::kR, F::kR));
    ++step;
    ++st.spmv_applies;
    if (check && st.break_on_nonfinite(rr, "Chebyshev")) break;
    if (check && std::sqrt(rr) <= cfg.eps * std::sqrt(bb_rr)) {
      st.converged = true;
      break;
    }
  }
  st.outer_iters = st.eigen_cg_iters + step;
  st.final_norm = std::sqrt(rr);
  return st;
}

/// z = B(A)·r: the inner Chebyshev polynomial with one depth-d exchange
/// per d steps and redundant sweeps over the shrinking overlap.
inline void ppcg_inner(SimCluster& cl, const SolverConfig& cfg,
                       const ChebyCoefs& cc) {
  const int d = cfg.halo_depth;
  precondition(cl, PreconType::kNone, F::kR, F::kRtemp);
  if (d > 1) cl.exchange({F::kRtemp}, d);
  int ext = d - 1;
  cheby_init(cl, cfg.precon, F::kRtemp, F::kSd, F::kZ, F::kW, cc.theta, ext);
  for (int step = 0; step < cfg.inner_steps; ++step) {
    if (ext == 0) {
      if (d == 1) {
        cl.exchange({F::kSd}, 1);
      } else {
        cl.exchange({F::kSd, F::kRtemp}, d);
      }
      ext = d;
    }
    --ext;
    cheby_step(cl, cfg.precon, F::kRtemp, F::kSd, F::kZ, F::kW,
               cc.alphas[step], cc.betas[step], ext);
  }
}

/// CPPCG: presteps, then CG preconditioned by the inner polynomial.
inline SolveStats ppcg(SimCluster& cl, const SolverConfig& cfg) {
  SolveStats st;
  double rro = cg_setup(cl, cfg.precon);
  ++st.spmv_applies;
  st.initial_norm = std::sqrt(std::fabs(rro));
  const auto finish = [&](double metric) {
    st.outer_iters += st.eigen_cg_iters;
    st.final_norm = std::sqrt(std::fabs(metric));
    return st;
  };
  if (st.break_on_nonfinite(rro, "PPCG")) return finish(rro);
  if (st.initial_norm == 0.0) {
    st.converged = true;
    return st;
  }
  if (!presteps(cl, cfg, cfg.eigen_cg_iters, rro, st)) return finish(rro);
  const ChebyCoefs cc =
      chebyshev_coefficients(st.eigmin, st.eigmax, cfg.inner_steps);
  const auto inner = [&] {
    ppcg_inner(cl, cfg, cc);
    st.spmv_applies += cfg.inner_steps;
    st.inner_steps += cfg.inner_steps;
    return global_sum(cl, dot(F::kR, F::kZ));
  };
  rro = inner();
  precondition(cl, PreconType::kNone, F::kZ, F::kP);
  if (st.break_on_nonfinite(rro, "PPCG")) return finish(rro);
  if (!(rro > 0.0)) {
    st.breakdown = true;
    return finish(rro);
  }
  double rrn = rro;
  while (st.eigen_cg_iters + st.outer_iters < cfg.max_iters) {
    cl.exchange({F::kP}, 1);
    apply(cl, F::kP, F::kW);
    const double pw = global_sum(cl, dot(F::kP, F::kW));
    ++st.spmv_applies;
    if (!(pw > 0.0)) {
      st.breakdown = true;
      return finish(rrn);
    }
    update_ur(cl, rro / pw);
    rrn = inner();
    update_p(cl, F::kZ, rrn / rro);
    rro = rrn;
    ++st.outer_iters;
    if (st.break_on_nonfinite(rrn, "PPCG")) break;
    if (std::sqrt(std::fabs(rrn)) <= cfg.eps * st.initial_norm) {
      st.converged = true;
      break;
    }
    if (!(rrn > 0.0)) {
      st.breakdown = true;
      break;
    }
  }
  return finish(rrn);
}

/// One native solve at the chunks' current precision activation.
inline SolveStats native(SimCluster& cl, const SolverConfig& cfg) {
  switch (cfg.type) {
    case SolverType::kJacobi: return jacobi(cl, cfg);
    case SolverType::kCG: return cg(cl, cfg);
    case SolverType::kChebyshev: return chebyshev(cl, cfg);
    case SolverType::kPPCG: return ppcg(cl, cfg);
    case SolverType::kMGPCG: break;  // no team-engine form to mirror
  }
  return {};
}

/// The reference counterpart of run_solver: the same precision layer
/// around the serial solvers.
inline SolveStats run(SimCluster& cl, const SolverConfig& cfg) {
  cfg.validate();
  return solve_at_precision(cl, cfg, native);
}

}  // namespace tealeaf::testing::reference
