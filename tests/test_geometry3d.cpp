// Dimension-generic core guarantee: cross-dimension consistency — a
// z-uniform 3-D problem with a single cell-plane (nz = 1) has Kz ≡ 0, so
// the 7-point operator degenerates to the 5-point one and EVERY
// per-iteration scalar (rro, alpha, beta), iteration count and iterate
// must reproduce the 2-D solver's exactly, for every solver ×
// preconditioner cell.  (The engine's 3-D equivalence with
// the serial reference lives in test_tiled_engine.)

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "solvers/cg.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace tealeaf {
namespace {

using testing::make_test_problem;
using testing::make_test_problem_3d;
using testing::max_field_diff;

/// The single-plane slab now lives in test_helpers (shared with the 3-D
/// multigrid suite in test_amg.cpp).
std::unique_ptr<SimCluster> make_slab_problem(int n, int nranks,
                                              int halo_depth,
                                              double rx_ry = 4.0) {
  return testing::make_test_problem_slab3d(n, nranks, halo_depth, rx_ry);
}

TEST(CrossDimension, SlabCGRecurrenceScalarsMatch2DExactly) {
  // The satellite contract in its sharpest form: rro and every alpha/beta
  // of the CG recurrence — the scalars that steer the whole solve — are
  // bitwise equal between the 2-D run and the single-plane 3-D run.
  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag,
        PreconType::kJacobiBlock}) {
    auto d2 = make_test_problem(16, 2, 2);
    auto d3 = make_slab_problem(16, 2, 2);
    // Recurrence scalars of eight CG iterations on one cluster.
    const auto run = [&](SimCluster& cl, std::vector<double>& rr,
                         CGRecurrence& rec) {
      parallel_region([&](Team& t) {
        std::vector<double> mine_rr;
        CGRecurrence mine;
        bool broke = false;
        double v = cg_setup(cl, precon, t);
        mine_rr.push_back(v);
        for (int i = 0; i < 8; ++i) {
          v = cg_iteration(cl, precon, v, &mine, broke, t);
          mine_rr.push_back(v);
        }
        t.single([&] {
          rr = mine_rr;
          rec = mine;
        });
      });
    };
    std::vector<double> rr2, rr3;
    CGRecurrence rec2, rec3;
    run(*d2, rr2, rec2);
    run(*d3, rr3, rec3);
    EXPECT_EQ(rr2, rr3) << to_string(precon);
    ASSERT_EQ(rec2.alphas.size(), rec3.alphas.size());
    for (std::size_t i = 0; i < rec2.alphas.size(); ++i) {
      EXPECT_EQ(rec2.alphas[i], rec3.alphas[i])
          << to_string(precon) << " alpha " << i;
      EXPECT_EQ(rec2.betas[i], rec3.betas[i])
          << to_string(precon) << " beta " << i;
    }
  }
}

struct EngineCell {
  SolverType type;
  PreconType precon;
  bool chrono;
  int halo_depth = 1;
};

std::string cell_name(const EngineCell& ec) {
  std::string name = std::string(to_string(ec.type)) + "_" +
                     to_string(ec.precon) + "_d" +
                     std::to_string(ec.halo_depth);
  if (ec.chrono) name += "_chrono";
  return name;
}

SolverConfig cell_config(const EngineCell& ec) {
  SolverConfig cfg;
  cfg.type = ec.type;
  cfg.precon = ec.precon;
  cfg.halo_depth = ec.halo_depth;
  cfg.fuse_cg_reductions = ec.chrono;
  cfg.eps = (ec.type == SolverType::kJacobi) ? 1e-5 : 1e-10;
  cfg.max_iters = (ec.type == SolverType::kJacobi) ? 100000 : 10000;
  cfg.eigen_cg_iters = 8;
  cfg.inner_steps = 6;
  return cfg;
}

class CrossDimensionCell : public ::testing::TestWithParam<EngineCell> {};

TEST_P(CrossDimensionCell, SlabSolveMatches2DExactly) {
  const EngineCell ec = GetParam();
  const SolverConfig cfg = cell_config(ec);
  const int halo = std::max(2, ec.halo_depth);
  auto d2 = make_test_problem(16, 2, halo, 6.0);
  auto d3 = make_slab_problem(16, 2, halo, 6.0);
  const SolveStats s2 = run_solver(*d2, cfg);
  const SolveStats s3 = run_solver(*d3, cfg);
  ASSERT_TRUE(s2.converged);
  ASSERT_TRUE(s3.converged);
  EXPECT_EQ(s3.outer_iters, s2.outer_iters);
  EXPECT_EQ(s3.inner_steps, s2.inner_steps);
  EXPECT_EQ(s3.spmv_applies, s2.spmv_applies);
  EXPECT_EQ(s3.eigen_cg_iters, s2.eigen_cg_iters);
  EXPECT_EQ(s3.initial_norm, s2.initial_norm);
  EXPECT_EQ(s3.final_norm, s2.final_norm);
  // The iterate itself: the 3-D plane equals the 2-D field bitwise.
  const Field<double> u2 = gather_field(*d2, FieldId::kU);
  const Field<double> u3 = gather_field(*d3, FieldId::kU);
  for (int k = 0; k < 16; ++k)
    for (int j = 0; j < 16; ++j)
      ASSERT_EQ(u2(j, k), u3(j, k, 0)) << "(" << j << "," << k << ")";
  // Same reductions; the slab's z phase moves no data, so byte counts
  // agree too (identical decomposition in the xy plane).
  EXPECT_EQ(d2->stats().reductions, d3->stats().reductions);
  EXPECT_EQ(d2->stats().message_bytes, d3->stats().message_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    SolverPrecon, CrossDimensionCell,
    ::testing::Values(
        EngineCell{SolverType::kJacobi, PreconType::kNone, false},
        EngineCell{SolverType::kCG, PreconType::kNone, false},
        EngineCell{SolverType::kCG, PreconType::kJacobiDiag, false},
        EngineCell{SolverType::kCG, PreconType::kJacobiBlock, false},
        EngineCell{SolverType::kCG, PreconType::kNone, true},
        EngineCell{SolverType::kCG, PreconType::kJacobiDiag, true},
        EngineCell{SolverType::kChebyshev, PreconType::kNone, false},
        EngineCell{SolverType::kChebyshev, PreconType::kJacobiDiag, false},
        EngineCell{SolverType::kChebyshev, PreconType::kJacobiBlock, false},
        EngineCell{SolverType::kPPCG, PreconType::kNone, false},
        EngineCell{SolverType::kPPCG, PreconType::kJacobiDiag, false},
        EngineCell{SolverType::kPPCG, PreconType::kNone, false, 3}),
    [](const auto& info) { return cell_name(info.param); });

}  // namespace
}  // namespace tealeaf
