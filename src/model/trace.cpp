#include "model/trace.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tealeaf {

SolverRunSummary SolverRunSummary::from(const SolverConfig& cfg,
                                        const SolveStats& stats, int mesh_n) {
  SolverRunSummary run;
  run.type = cfg.type;
  run.precon = cfg.precon;
  run.halo_depth = cfg.halo_depth;
  run.inner_steps = cfg.inner_steps;
  run.cheby_check_interval = cfg.cheby_check_interval;
  run.fused_cg = cfg.fuse_cg_reductions;
  run.precision = cfg.precision;
  run.refine_steps = stats.refine_steps;
  run.eigen_cg_iters = stats.eigen_cg_iters;
  run.outer_iters = stats.outer_iters - stats.eigen_cg_iters;
  run.mesh_n = mesh_n;
  run.nnz_per_row = stats.nnz_per_row;
  return run;
}

SolverRunSummary project_to_mesh(SolverRunSummary run, int target_n) {
  TEA_REQUIRE(run.mesh_n > 0, "run summary lacks its measured mesh size");
  if (target_n == run.mesh_n) return run;
  // κ(A) grows ∝ n² for this operator at fixed dt (rx = dt/dx²), so CG-
  // family iteration counts grow ∝ √κ ∝ n.  The eigenvalue presteps are a
  // fixed configuration cost and do not scale.
  const double s = static_cast<double>(target_n) / run.mesh_n;
  run.outer_iters =
      std::max(1, static_cast<int>(std::lround(run.outer_iters * s)));
  run.mesh_n = target_n;
  return run;
}

CommCounts exchange_counts(const Decomposition& decomp, int depth,
                           int nfields, int elem_bytes) {
  CommCounts cc;
  cc.exchange_calls = 1;
  for (int r = 0; r < decomp.nranks(); ++r) {
    const ChunkExtent& e = decomp.extent(r);
    for (const Face face : {Face::kLeft, Face::kRight}) {
      if (decomp.neighbor(r, face) < 0) continue;
      ++cc.messages;
      cc.message_bytes += static_cast<std::int64_t>(depth) * e.ny * e.nz *
                          nfields * static_cast<std::int64_t>(elem_bytes);
    }
    // y rows carry only the corner columns that hold neighbour data: a
    // rank at a physical left/right boundary sends shorter rows (matches
    // SimCluster::exchange_y_rank / account_exchange).
    const int xcorners = (decomp.neighbor(r, Face::kLeft) >= 0 ? 1 : 0) +
                         (decomp.neighbor(r, Face::kRight) >= 0 ? 1 : 0);
    const std::int64_t row_len =
        e.nx + static_cast<std::int64_t>(xcorners) * depth;
    for (const Face face : {Face::kBottom, Face::kTop}) {
      if (decomp.neighbor(r, face) < 0) continue;
      ++cc.messages;
      cc.message_bytes += static_cast<std::int64_t>(depth) * row_len * e.nz *
                          nfields * static_cast<std::int64_t>(elem_bytes);
    }
    // z slabs carry the x- and y-halo edges the earlier phases populated
    // (face area plus the depth-wide edge strips with real data), again
    // trimmed at physical boundaries — matching SimCluster's three-phase
    // exchange byte-for-byte.
    if (decomp.pz() > 1) {
      const int ycorners = (decomp.neighbor(r, Face::kBottom) >= 0 ? 1 : 0) +
                           (decomp.neighbor(r, Face::kTop) >= 0 ? 1 : 0);
      const std::int64_t col_len =
          e.ny + static_cast<std::int64_t>(ycorners) * depth;
      for (const Face face : {Face::kBack, Face::kFront}) {
        if (decomp.neighbor(r, face) < 0) continue;
        ++cc.messages;
        cc.message_bytes += static_cast<std::int64_t>(depth) * row_len *
                            col_len * nfields *
                            static_cast<std::int64_t>(elem_bytes);
      }
    }
  }
  return cc;
}

InnerExchangePlan ppcg_inner_exchange_plan(int inner_steps, int halo_depth) {
  TEA_REQUIRE(inner_steps >= 1 && halo_depth >= 1, "invalid inner plan");
  InnerExchangePlan plan;
  if (halo_depth == 1) {
    plan.single_field_rounds = inner_steps;  // {sd} before every step
  } else {
    plan.single_field_rounds = 1;  // initial {rtemp} at depth d
    plan.dual_field_rounds = inner_steps / halo_depth;  // {sd, rtemp}
  }
  return plan;
}

namespace {

void add(CommCounts& total, const CommCounts& part, std::int64_t times = 1) {
  total.exchange_calls += part.exchange_calls * times;
  total.messages += part.messages * times;
  total.message_bytes += part.message_bytes * times;
  total.reductions += part.reductions * times;
}

/// The native solver's exchange/reduction schedule for one solve with the
/// given (aggregated) iteration structure, with every halo payload priced
/// at `elem_bytes` per element — 8 for fp64 solves, 4 when the solve runs
/// over the fp32 bank.
CommCounts native_comm_counts(const SolverRunSummary& run,
                              const Decomposition2D& decomp,
                              int elem_bytes) {
  CommCounts total;
  const CommCounts ex1 = exchange_counts(decomp, 1, 1, elem_bytes);

  switch (run.type) {
    case SolverType::kJacobi: {
      // Per sweep: exchange(u,1) + error reduction.
      add(total, ex1, run.outer_iters);
      total.reductions = run.outer_iters;
      return total;
    }
    case SolverType::kCG: {
      if (run.fused_cg) {
        // Chronopoulos-Gear: setup exchanges u and z with one fused
        // reduction; every iteration re-exchanges z and fuses both dot
        // products into a single allreduce.
        add(total, ex1, 2 + run.outer_iters);
        total.reductions = 1 + run.outer_iters;
        return total;
      }
      // Setup: exchange(u,1) + rro reduction; per iteration:
      // exchange(p,1) + {pw, rrn} reductions.
      add(total, ex1, 1 + run.outer_iters);
      total.reductions = 1 + 2LL * run.outer_iters;
      return total;
    }
    case SolverType::kChebyshev: {
      // Setup: exchange(u,1), rro + ‖r‖² reductions.  Presteps are CG
      // iterations.  Chebyshev steps exchange p only, with a reduction
      // every check interval.
      const std::int64_t steps = run.outer_iters;
      add(total, ex1, 1 + run.eigen_cg_iters + steps);
      total.reductions = 2 + 2LL * run.eigen_cg_iters +
                         steps / run.cheby_check_interval;
      return total;
    }
    case SolverType::kPPCG: {
      // Setup + presteps as Chebyshev (minus the ‖r‖² baseline), then one
      // inner application up front and (p-exchange + inner + 2 reductions)
      // per outer iteration.
      add(total, ex1, 1 + run.eigen_cg_iters + run.outer_iters);
      total.reductions = 1 + 2LL * run.eigen_cg_iters + 1 +
                         2LL * run.outer_iters;

      const InnerExchangePlan plan =
          ppcg_inner_exchange_plan(run.inner_steps, run.halo_depth);
      const std::int64_t applies = 1 + run.outer_iters;
      if (run.halo_depth == 1) {
        add(total, ex1, plan.single_field_rounds * applies);
      } else {
        const CommCounts exd1 =
            exchange_counts(decomp, run.halo_depth, 1, elem_bytes);
        const CommCounts exd2 =
            exchange_counts(decomp, run.halo_depth, 2, elem_bytes);
        add(total, exd1, plan.single_field_rounds * applies);
        add(total, exd2, plan.dual_field_rounds * applies);
      }
      return total;
    }
    case SolverType::kMGPCG: break;  // priced by ScalingModel::amg_*
  }
  TEA_ASSERT(false, "no native comm schedule for this solver type");
}

}  // namespace

CommCounts predict_comm_counts(const SolverRunSummary& run,
                               const Decomposition2D& decomp,
                               const GlobalMesh2D& mesh) {
  (void)mesh;
  if (run.precision == Precision::kDouble) {
    return native_comm_counts(run, decomp, 8);
  }
  if (run.precision == Precision::kSingle) {
    // The honest all-fp32 solve issues exactly the fp64 schedule, over
    // 4-byte elements.
    return native_comm_counts(run, decomp, 4);
  }
  // Mixed iterative refinement: the aggregated iteration counts replay
  // through the fp32 schedule once, each refinement pass beyond the first
  // re-pays the solver's zero-iteration setup comm (its iterations are
  // already in the aggregate), and every fp64 guard — the initial true
  // residual plus one after each of the refine_steps+1 inner solves —
  // costs one depth-1 fp64 exchange of u and one reduction.
  CommCounts total = native_comm_counts(run, decomp, 4);
  SolverRunSummary setup = run;
  setup.outer_iters = 0;
  setup.eigen_cg_iters = 0;
  add(total, native_comm_counts(setup, decomp, 4), run.refine_steps);
  const std::int64_t guards = run.refine_steps + 2;
  add(total, exchange_counts(decomp, 1, 1, 8), guards);
  total.reductions += guards;
  return total;
}

}  // namespace tealeaf
