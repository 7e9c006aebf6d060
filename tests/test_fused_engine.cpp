// The team runtime the execution engine runs on (Team, parallel_region,
// the Team-aware collectives) and the engine's failure reporting: CG and
// PPCG breakdowns, and a non-finite residual treated as a breakdown by
// every solver — reported within one convergence check and answered by
// the solve server with a re-route.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "driver/decks.hpp"
#include "driver/sweep.hpp"
#include "driver/tealeaf_app.hpp"
#include "ops/kernels.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "solvers/cg.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace tealeaf {
namespace {

using testing::make_test_problem;

// ---- Team / parallel_region primitives ----------------------------------

TEST(Team, ForRangeCoversEveryIndexExactlyOnce) {
  const int n = 1237;
  std::vector<int> hits(n, 0);
  parallel_region([&](Team& t) {
    ASSERT_GE(t.num_threads(), 1);
    ASSERT_LT(t.thread_id(), t.num_threads());
    t.for_range(0, n, [&](std::int64_t i) { ++hits[i]; });
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(Team, ForRangeMappingIsStableAcrossCalls) {
  // The same range must land on the same thread every call — the property
  // NUMA first-touch placement relies on.
  const int n = 57;
  std::vector<int> owner_a(n, -1), owner_b(n, -1);
  parallel_region([&](Team& t) {
    t.for_range(0, n, [&](std::int64_t i) { owner_a[i] = t.thread_id(); });
    t.barrier();
    t.for_range(0, n, [&](std::int64_t i) { owner_b[i] = t.thread_id(); });
  });
  EXPECT_EQ(owner_a, owner_b);
}

TEST(Team, BarrierOrdersPhases) {
  const int n = 512;
  std::vector<double> a(n, 0.0), b(n, 0.0);
  parallel_region([&](Team& t) {
    t.for_range(0, n, [&](std::int64_t i) { a[i] = 2.0 * i; });
    t.barrier();
    // Reversed read: almost always crosses thread-block boundaries.
    t.for_range(0, n, [&](std::int64_t i) { b[i] = a[n - 1 - i]; });
  });
  for (int i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(b[i], 2.0 * (n - 1 - i));
  }
}

TEST(Team, SingleRunsOnThreadZeroOnly) {
  int runs = 0;
  parallel_region([&](Team& t) {
    t.single([&] { ++runs; });
    t.barrier();
  });
  EXPECT_EQ(runs, 1);
}

TEST(TeamCluster, SumOverChunksMatchesStandaloneBitwise) {
  auto cl = make_test_problem(24, 5, 2);
  const double serial = cl->sum_over_chunks(
      [](int, const Chunk2D& c) { return kernels::norm2_sq(c, FieldId::kU); });
  cl->reset_stats();
  double team_total = 0.0;
  parallel_region([&](Team& t) {
    const double v = cl->sum_over_chunks(t, [](int, const Chunk2D& c) {
      return kernels::norm2_sq(c, FieldId::kU);
    });
    t.single([&] { team_total = v; });
  });
  EXPECT_EQ(team_total, serial);  // rank-ordered partials: bitwise equal
  EXPECT_EQ(cl->stats().reductions, 1);
}

TEST(TeamCluster, TeamExchangeMatchesStandalone) {
  auto a = make_test_problem(32, 6, 3);
  auto b = make_test_problem(32, 6, 3);
  a->exchange({FieldId::kU, FieldId::kDensity}, 3);
  parallel_region([&](Team& t) {
    b->exchange(&t, {FieldId::kU, FieldId::kDensity}, 3);
  });
  for (int r = 0; r < a->nranks(); ++r) {
    const Chunk2D& ca = a->chunk(r);
    const Chunk2D& cb = b->chunk(r);
    for (int k = -3; k < ca.ny() + 3; ++k) {
      for (int j = -3; j < ca.nx() + 3; ++j) {
        ASSERT_EQ(ca.u()(j, k), cb.u()(j, k)) << r << " " << j << " " << k;
      }
    }
  }
  EXPECT_EQ(a->stats().messages, b->stats().messages);
  EXPECT_EQ(a->stats().message_bytes, b->stats().message_bytes);
  EXPECT_EQ(a->stats().exchange_calls, b->stats().exchange_calls);
}

// ---- breakdown reporting ------------------------------------------------

TEST(Breakdown, CgIterationReportsInsteadOfThrowing) {
  auto cl = make_test_problem(16, 2, 2);
  double rro = 0.0;
  double rrn = 0.0;
  bool broke = false;
  parallel_region([&](Team& t) {
    const double v = cg_setup(*cl, PreconType::kNone, t);
    // Doctor the state: p = 0 makes ⟨p, A·p⟩ = 0, the classic breakdown.
    t.for_range(0, cl->nranks(),
                [&](std::int64_t r) { cl->chunk(r).p().fill(0.0); });
    bool mine = false;
    const double w = cg_iteration(*cl, PreconType::kNone, 0, v, nullptr,
                                  mine, t);
    t.single([&] {
      rro = v;
      rrn = w;
      broke = mine;
    });
  });
  ASSERT_GT(rro, 0.0);
  EXPECT_TRUE(broke);
  EXPECT_EQ(rrn, rro);  // state untouched, metric handed back
}

/// PPCG configuration that reliably breaks down: two eigenvalue presteps
/// grossly underestimate the spectrum of a stiff problem, and an odd
/// polynomial degree makes the Chebyshev preconditioner negative beyond
/// the estimated window, so ⟨r, M⁻¹r⟩ goes negative within a couple of
/// outer iterations.
InputDeck breakdown_deck() {
  InputDeck deck = decks::crooked_pipe(32, 1);
  deck.initial_timestep *= 1000.0;
  deck.solver.type = SolverType::kPPCG;
  deck.solver.eigen_cg_iters = 2;
  deck.solver.inner_steps = 11;
  deck.solver.eps = 1e-10;
  deck.solver.max_iters = 200;
  return deck;
}

TEST(Breakdown, PPCGReportsIndefinitePolynomialPreconditioner) {
  TeaLeafApp app(breakdown_deck(), 2);
  const SolveStats st = app.step();
  EXPECT_TRUE(st.breakdown);
  EXPECT_FALSE(st.converged);
  EXPECT_FALSE(st.breakdown_reason.empty());
  // Breakdown is detected within a few outer iterations, not after
  // burning the whole iteration budget on a diverging solve.
  EXPECT_LT(st.outer_iters - st.eigen_cg_iters, 10);
}

// ---- a non-finite residual is a breakdown in every solver ----------------

/// Seed a NaN into u0 (and the initial guess u = u0) at one cell.
void seed_nan(SimCluster& cl) {
  Chunk& c = cl.chunk(0);
  c.u0()(3, 2) = std::nan("");
  c.u()(3, 2) = std::nan("");
}

class NonFiniteBreakdown : public ::testing::TestWithParam<SolverType> {};

TEST_P(NonFiniteBreakdown, NanInU0BreaksDownWithinOneCheck) {
  SolverConfig cfg;
  cfg.type = GetParam();
  cfg.max_iters = 5000;
  auto cl = make_test_problem(16, 2, 2);
  seed_nan(*cl);
  const SolveStats st = run_solver(*cl, cfg);
  EXPECT_TRUE(st.breakdown);
  EXPECT_FALSE(st.converged);
  EXPECT_NE(st.breakdown_reason.find("non-finite"), std::string::npos)
      << st.breakdown_reason;
  // Jacobi's first convergence check is its first sweep; the Krylov
  // solvers check the set-up residual before iterating at all.
  EXPECT_LE(st.outer_iters, GetParam() == SolverType::kJacobi ? 1 : 0);
}

INSTANTIATE_TEST_SUITE_P(
    EverySolver, NonFiniteBreakdown,
    ::testing::Values(SolverType::kJacobi, SolverType::kCG,
                      SolverType::kChebyshev, SolverType::kPPCG),
    [](const auto& info) { return std::string(to_string(info.param)); });

TEST(NonFiniteBreakdown, ChronopoulosGearAndMixedPrecisionToo) {
  for (const Precision precision : {Precision::kDouble, Precision::kMixed}) {
    SolverConfig cfg;
    cfg.type = SolverType::kCG;
    cfg.fuse_cg_reductions = precision == Precision::kDouble;
    cfg.precision = precision;
    auto cl = make_test_problem(16, 2, 2);
    seed_nan(*cl);
    const SolveStats st = run_solver(*cl, cfg);
    EXPECT_TRUE(st.breakdown) << to_string(precision);
    EXPECT_NE(st.breakdown_reason.find("non-finite"), std::string::npos)
        << st.breakdown_reason;
    EXPECT_EQ(st.outer_iters, 0) << to_string(precision);
  }
}

TEST(NonFiniteBreakdown, DivergingChebyshevStopsAtTheNextCheck) {
  // Eigenvalue hints far below the spectrum make the polynomial grow
  // without bound; the residual overflows long before max_iters, and the
  // first check that sees it non-finite ends the solve.
  SolverConfig cfg;
  cfg.type = SolverType::kChebyshev;
  cfg.eig_hint_min = 0.1;
  cfg.eig_hint_max = 0.2;
  cfg.max_iters = 10000;
  auto cl = make_test_problem(16, 2, 2, 6.0);
  const SolveStats st = run_solver(*cl, cfg);
  EXPECT_TRUE(st.breakdown);
  EXPECT_NE(st.breakdown_reason.find("non-finite"), std::string::npos)
      << st.breakdown_reason;
  EXPECT_LT(st.outer_iters, 2000);
  EXPECT_EQ(st.outer_iters % cfg.cheby_check_interval, 0);
}

/// A routing table ranking `solver` first with cg as its fallback, at
/// the 24² two-rank shape of the requests below.
RoutingTable first_then_cg(const std::string& solver) {
  SweepReport rep;
  rep.ranks = 2;
  rep.steps = 1;
  for (const auto& [name, seconds] :
       {std::pair<std::string, double>{solver, 0.01}, {"cg", 0.02}}) {
    SweepOutcome cell;
    cell.config.solver = name;
    cell.config.mesh_n = 24;
    cell.converged = true;
    cell.iterations = 10;
    cell.solve_seconds = seconds;
    rep.cells.push_back(cell);
  }
  return RoutingTable::from_sweep(rep);
}

class NonFiniteReroute : public ::testing::TestWithParam<SolverType> {};

TEST_P(NonFiniteReroute, ServerReroutesInsteadOfBurningMaxIters) {
  // Energy near the top of the double range overflows u0 = ρ·e to inf,
  // so the residual is non-finite from the first reduction.
  InputDeck deck = decks::hot_block(24, 1);
  deck.states[0].density = 2.0;
  deck.states[0].energy = 1e308;
  deck.solver.max_iters = 5000;
  ServerOptions opts;
  opts.routes = first_then_cg(to_string(GetParam()));
  SolveServer server(std::move(opts));
  SolveRequest req;
  req.deck = deck;
  req.nranks = 2;
  const SolveResult res = server.solve_one(req);
  EXPECT_EQ(res.config.type, SolverType::kCG);  // the fallback ran
  EXPECT_TRUE(res.rerouted);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_TRUE(res.stats.breakdown);  // cg breaks down on the same input
  EXPECT_FALSE(res.ok());
  // The first attempt stopped at its first check.
  EXPECT_LE(res.failed_attempt_iters, 1);
  EXPECT_EQ(server.stats().reroutes, 1);
}

INSTANTIATE_TEST_SUITE_P(
    EverySolver, NonFiniteReroute,
    ::testing::Values(SolverType::kJacobi, SolverType::kCG,
                      SolverType::kChebyshev, SolverType::kPPCG),
    [](const auto& info) { return std::string(to_string(info.param)); });

TEST(NonFiniteReroute, DivergingHintedChebyshevRecoversOnRetry) {
  // The perfbench stream's failure mode: a hinted Chebyshev request
  // diverges.  The non-finite check turns it into a breakdown, and the
  // server's hint-stripping retry converges.
  SolveRequest req;
  req.deck = decks::hot_block(24, 1);
  req.nranks = 2;
  SolverConfig cfg = req.deck.solver;
  cfg.type = SolverType::kChebyshev;
  cfg.eig_hint_min = 0.1;
  cfg.eig_hint_max = 0.2;
  cfg.max_iters = 10000;
  req.config = cfg;
  SolveServer server;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.rerouted);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_FALSE(res.config.has_eig_hints());
  EXPECT_LT(res.failed_attempt_iters, 2000);
}

}  // namespace
}  // namespace tealeaf
