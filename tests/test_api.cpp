#include <gtest/gtest.h>

#include "api/solve_api.hpp"
#include "driver/decks.hpp"
#include "driver/tealeaf_app.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tealeaf {
namespace {

TEST(ProblemShape, KeyEncodesEverythingThatSizesACluster) {
  const InputDeck deck = decks::hot_block(24, 1);
  const ProblemShape s = ProblemShape::of(deck, 4, 2);
  EXPECT_EQ(s.key(), "2d/24x24x1/r4/h2");
  EXPECT_EQ(s, ProblemShape::of(deck, 4, 2));
  EXPECT_NE(s, ProblemShape::of(deck, 2, 2));
  EXPECT_NE(s, ProblemShape::of(deck, 4, 4));
  EXPECT_NE(s, ProblemShape::of(decks::hot_block(32, 1), 4, 2));
}

TEST(SolveSession, SolveStepsTheProblemLikeTheDriver) {
  const InputDeck deck = decks::hot_block(24, 1);
  SolveSession session(deck, 2);
  const SolveStats st = session.solve();
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(session.solves_taken(), 1);
  EXPECT_GT(session.sim_time(), 0.0);

  // TeaLeafApp is a facade over a session: one step must agree bitwise.
  TeaLeafApp app(deck, 2);
  const SolveStats ref = app.step();
  EXPECT_EQ(st.final_norm, ref.final_norm);
  EXPECT_EQ(st.outer_iters, ref.outer_iters);
  EXPECT_EQ(session.field_summary().temp, app.field_summary().temp);
}

TEST(SolveSession, ResetReusesTheAllocationForSameShapeOnly) {
  SolveSession session(decks::hot_block(24, 1), 2);
  (void)session.solve();

  // Same 24×24 shape, different material: the cache-reuse path.
  session.reset(decks::layered_material(24, 1));
  EXPECT_EQ(session.solves_taken(), 0);
  const SolveStats st = session.solve();
  EXPECT_TRUE(st.converged);

  // A fresh session on the same deck must agree bitwise with the reused
  // one — reset leaves no residue.
  SolveSession fresh(decks::layered_material(24, 1), 2);
  EXPECT_EQ(fresh.solve().final_norm, st.final_norm);

  EXPECT_THROW(session.reset(decks::hot_block(32, 1)), TeaError);
}

TEST(SolveSession, EigenMemoFollowsTheOperator) {
  InputDeck deck = decks::hot_block(24, 1);
  deck.solver.type = SolverType::kPPCG;
  // Few enough presteps that the solve outlives the eigenvalue
  // estimation (converging inside the presteps leaves no estimate).
  deck.solver.eigen_cg_iters = 8;
  SolveSession session(deck, 2);
  EXPECT_FALSE(session.has_eig_estimate());
  const SolveStats st = session.solve();
  ASSERT_TRUE(st.converged);
  ASSERT_TRUE(session.has_eig_estimate());

  // Hints flow only into solvers that can use them.
  SolverConfig ppcg = deck.solver;
  EXPECT_TRUE(session.with_eig_hints(ppcg).has_eig_hints());
  SolverConfig cg = deck.solver;
  cg.type = SolverType::kCG;
  EXPECT_FALSE(session.with_eig_hints(cg).has_eig_hints());

  // A hinted repeat solve skips the CG presteps and still converges.
  session.reset(deck);
  const SolveStats hinted = session.solve(session.with_eig_hints(ppcg));
  EXPECT_TRUE(hinted.converged);
  EXPECT_EQ(hinted.eigen_cg_iters, 0);

  // Same deck text keeps the memo; any change clears it (new operator).
  session.reset(deck);
  EXPECT_TRUE(session.has_eig_estimate());
  session.reset(decks::layered_material(24, 1));
  EXPECT_FALSE(session.has_eig_estimate());
}

TEST(SessionCache, CountsHitsAndMissesPerBorrowedSession) {
  const InputDeck deck = decks::hot_block(24, 1);
  SessionCache cache(8);
  const std::vector<SolveSession*> first = cache.acquire(deck, 2, 2, 2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.hits(), 0);

  (void)cache.acquire(deck, 2, 2, 2);
  EXPECT_EQ(cache.hits(), 2);

  // Growing the borrow mixes hits (pooled) and misses (constructed).
  (void)cache.acquire(deck, 2, 2, 3);
  EXPECT_EQ(cache.hits(), 4);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.shapes(), 1u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(SessionCache, EvictsLeastRecentShapeWholeWhenOverCapacity) {
  SessionCache cache(2);
  (void)cache.acquire(decks::hot_block(24, 1), 2, 2, 2);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.acquire(decks::hot_block(32, 1), 2, 2, 1);
  // 24×24 (2 sessions) was least recent and the pool was over capacity:
  // evicted as a whole, never the shape just returned.
  EXPECT_EQ(cache.shapes(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolverConfigValidated, RejectsInconsistentCombosWithGuidance) {
  SolverConfig hints;
  hints.type = SolverType::kCG;
  hints.eig_hint_min = 1.0;
  hints.eig_hint_max = 5.0;
  EXPECT_THROW((void)hints.validated(), TeaError);

  SolverConfig ok;
  ok.type = SolverType::kPPCG;
  EXPECT_NO_THROW((void)ok.validated());
}

TEST(RunSolver, HandDrivenStepMatchesSessionSolve) {
  // Callers that drive a cluster by hand — prepare, run_solver,
  // finish_solve — get exactly the session's own solve.
  const InputDeck deck = decks::hot_block(16, 1);
  SolveSession a(deck, 2);
  SolveSession b(deck, 2);
  const SolveStats via_session = a.solve();
  b.prepare();
  const SolveStats by_hand =
      run_solver(b.cluster(), deck.solver.validated(), b.machine());
  b.finish_solve(by_hand);
  ASSERT_TRUE(via_session.converged);
  EXPECT_EQ(by_hand.final_norm, via_session.final_norm);
  EXPECT_EQ(by_hand.outer_iters, via_session.outer_iters);
  EXPECT_EQ(testing::max_field_diff(a.cluster(), b.cluster(), FieldId::kU),
            0.0);
  EXPECT_EQ(a.field_summary().temp, b.field_summary().temp);
}

}  // namespace
}  // namespace tealeaf
