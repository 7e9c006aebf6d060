#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/solve_api.hpp"
#include "driver/decks.hpp"
#include "server/batch.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace tealeaf {
namespace {

SolverConfig native_config(SolverType t) {
  SolverConfig cfg;
  cfg.type = t;
  cfg.max_iters = 20000;
  // Jacobi's convergence rate makes tight tolerances impractical on the
  // test problem; the bitwise comparison does not care about depth.
  cfg.eps = t == SolverType::kJacobi ? 1e-4 : 1e-8;
  if (t == SolverType::kPPCG) {
    cfg.precon = PreconType::kJacobiDiag;
    cfg.halo_depth = 2;
  }
  return cfg;
}

/// The tentpole invariant: a batch of N requests coalesced through one
/// parallel region is bitwise identical to solving each alone, for every
/// native solver, in both geometries.  Sub-team scheduling changes who
/// computes, never what is computed.
TEST(BatchEngine, BatchOfNBitwiseEqualsSolo2D) {
  const double conditioning[] = {2.0, 4.0, 6.0};
  for (SolverType t : {SolverType::kJacobi, SolverType::kCG,
                       SolverType::kChebyshev, SolverType::kPPCG}) {
    std::vector<std::unique_ptr<SimCluster2D>> batched, solo;
    std::vector<BatchItem> items;
    for (double rxy : conditioning) {
      batched.push_back(testing::make_test_problem(24, 2, 2, rxy));
      solo.push_back(testing::make_test_problem(24, 2, 2, rxy));
      items.push_back({batched.back().get(), native_config(t), {}});
    }
    solve_batched(items);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const SolveStats ref = run_solver(*solo[i], native_config(t));
      EXPECT_TRUE(items[i].stats.converged);
      EXPECT_EQ(items[i].stats.outer_iters, ref.outer_iters);
      EXPECT_EQ(items[i].stats.final_norm, ref.final_norm);
      EXPECT_EQ(testing::max_field_diff(*batched[i], *solo[i], FieldId::kU),
                0.0);
    }
  }
}

TEST(BatchEngine, BatchOfNBitwiseEqualsSolo3D) {
  const double conditioning[] = {2.0, 4.0, 6.0};
  for (SolverType t : {SolverType::kJacobi, SolverType::kCG,
                       SolverType::kChebyshev, SolverType::kPPCG}) {
    std::vector<std::unique_ptr<SimCluster>> batched, solo;
    std::vector<BatchItem> items;
    for (double rxyz : conditioning) {
      batched.push_back(testing::make_test_problem_3d(10, 2, 2, rxyz));
      solo.push_back(testing::make_test_problem_3d(10, 2, 2, rxyz));
      items.push_back({batched.back().get(), native_config(t), {}});
    }
    solve_batched(items);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const SolveStats ref = run_solver(*solo[i], native_config(t));
      EXPECT_TRUE(items[i].stats.converged);
      EXPECT_EQ(items[i].stats.outer_iters, ref.outer_iters);
      EXPECT_EQ(items[i].stats.final_norm, ref.final_norm);
      EXPECT_EQ(testing::max_field_diff(*batched[i], *solo[i], FieldId::kU),
                0.0);
    }
  }
}

SweepReport synthetic_report() {
  SweepReport rep;
  rep.ranks = 2;
  rep.steps = 1;
  const auto add = [&](const std::string& solver, PreconType pre, int depth,
                       double seconds, int iters) {
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.precon = pre;
    cell.config.halo_depth = depth;
    cell.config.mesh_n = 16;
    cell.config.dims = 2;
    cell.converged = true;
    cell.iterations = iters;
    cell.solve_seconds = seconds;
    rep.cells.push_back(cell);
  };
  add("ppcg", PreconType::kJacobiDiag, 2, 0.010, 12);
  add("cg", PreconType::kNone, 1, 0.020, 40);
  add("jacobi", PreconType::kNone, 1, 0.300, 900);
  add("mg-pcg", PreconType::kNone, 1, 0.050, 8);
  return rep;
}

TEST(RoutingTable, RanksMeasuredCellsFastestFirst) {
  const RoutingTable table = RoutingTable::from_sweep(synthetic_report());
  EXPECT_EQ(table.size(), 4u);

  const std::vector<RouteEntry> multi = table.route(2, 16, 2);
  ASSERT_EQ(multi.size(), 3u);  // mg-pcg needs the undecomposed grid
  EXPECT_EQ(multi.front().config.type, SolverType::kPPCG);
  EXPECT_FALSE(multi.front().projected);
  EXPECT_EQ(multi.front().label(), "ppcg/jac_diag/d2/n16");
  EXPECT_EQ(multi.back().config.type, SolverType::kJacobi);

  const std::vector<RouteEntry> single = table.route(2, 16, 1);
  ASSERT_EQ(single.size(), 4u);
  // 0.05 s slots in after cg
  EXPECT_EQ(single[2].config.type, SolverType::kMGPCG);
}

/// A poisoned request routed to mg-pcg fails only itself: its breakdown
/// is reported rather than thrown out of drain(), it re-routes onto the
/// next-ranked entry, and the healthy request beside it converges on
/// mg-pcg exactly as a direct session solve does.
TEST(ServerMgPcg, DrainContainsABreakdownToItsRequest) {
  SweepReport rep;
  rep.ranks = 1;
  rep.steps = 1;
  const auto add = [&rep](const std::string& solver, double seconds) {
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.mesh_n = 16;
    cell.config.dims = 2;
    cell.converged = true;
    cell.iterations = 10;
    cell.solve_seconds = seconds;
    rep.cells.push_back(cell);
  };
  add("mg-pcg", 0.001);
  add("cg", 0.010);
  ServerOptions opts;
  opts.routes = RoutingTable::from_sweep(rep);
  SolveServer server(std::move(opts));

  SolveRequest good;
  good.deck = decks::hot_block(16, 1);
  good.nranks = 1;
  good.tag = "good";
  SolveRequest bad = good;
  bad.tag = "poisoned";
  for (StateDef& st : bad.deck.states) {
    st.density = 1e300;  // finite input whose ρ·e overflows
    st.energy = 1e300;
  }
  server.submit(bad);
  server.submit(good);
  std::vector<SolveResult> results;
  ASSERT_NO_THROW(results = server.drain());
  ASSERT_EQ(results.size(), 2u);

  const SolveResult& poisoned = results[0];
  EXPECT_EQ(poisoned.tag, "poisoned");
  EXPECT_TRUE(poisoned.stats.breakdown);
  EXPECT_FALSE(poisoned.ok());
  EXPECT_TRUE(poisoned.rerouted);
  EXPECT_EQ(poisoned.attempts, 2);
  EXPECT_NE(poisoned.reroute_reason.find("mg-pcg"), std::string::npos)
      << poisoned.reroute_reason;
  EXPECT_EQ(poisoned.route_label, "cg/none/d1/n16");
  EXPECT_EQ(poisoned.config.type, SolverType::kCG);

  const SolveResult& healthy = results[1];
  EXPECT_EQ(healthy.tag, "good");
  EXPECT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.rerouted);
  EXPECT_EQ(healthy.route_label, "mg-pcg/none/d1/n16");
  EXPECT_EQ(healthy.config.type, SolverType::kMGPCG);
  SolverConfig mg = good.deck.solver;
  mg.type = SolverType::kMGPCG;
  SolveSession solo(good.deck, 1);
  const SolveStats ref = solo.solve(mg);
  EXPECT_EQ(healthy.stats.outer_iters, ref.outer_iters);
  EXPECT_EQ(healthy.stats.final_norm, ref.final_norm);
  EXPECT_EQ(server.stats().reroutes, 1);
  EXPECT_EQ(server.stats().failures, 1);
}

/// A drain retry keeps the session's precision, so a double-only mg-pcg
/// fallback behind a mixed route is passed over, not thrown out of
/// drain(): the poisoned request re-routes onto the next entry that is
/// valid at mixed precision and the healthy one still returns.
TEST(ServerMgPcg, MixedBreakdownPassesOverTheDoubleOnlyFallback) {
  SweepReport rep;
  rep.ranks = 1;
  rep.steps = 1;
  const auto add = [&rep](const std::string& solver,
                          const std::string& precision, double seconds) {
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.mesh_n = 16;
    cell.config.dims = 2;
    cell.config.precision = precision;
    cell.converged = true;
    cell.iterations = 10;
    cell.solve_seconds = seconds;
    rep.cells.push_back(cell);
  };
  add("cg", "mixed", 0.001);
  add("mg-pcg", "double", 0.002);
  add("cg", "double", 0.010);
  ServerOptions opts;
  opts.routes = RoutingTable::from_sweep(rep);
  const std::vector<RouteEntry> ranked = opts.routes.route(2, 16, 1);
  ASSERT_EQ(ranked.size(), 3u);
  ASSERT_EQ(ranked[1].config.type, SolverType::kMGPCG);
  SolveServer server(std::move(opts));

  SolveRequest good;
  good.deck = decks::hot_block(16, 1);
  good.nranks = 1;
  good.tag = "good";
  SolveRequest bad = good;
  bad.tag = "poisoned";
  for (StateDef& st : bad.deck.states) {
    st.density = 1e300;  // finite input whose ρ·e overflows
    st.energy = 1e300;
  }
  server.submit(bad);
  server.submit(good);
  std::vector<SolveResult> results;
  ASSERT_NO_THROW(results = server.drain());
  ASSERT_EQ(results.size(), 2u);

  const SolveResult& poisoned = results[0];
  EXPECT_EQ(poisoned.tag, "poisoned");
  EXPECT_TRUE(poisoned.stats.breakdown);
  EXPECT_TRUE(poisoned.rerouted);
  EXPECT_EQ(poisoned.route_label, "cg/none/d1/n16");
  EXPECT_EQ(poisoned.config.type, SolverType::kCG);
  EXPECT_EQ(poisoned.config.precision, Precision::kMixed);

  const SolveResult& healthy = results[1];
  EXPECT_EQ(healthy.tag, "good");
  EXPECT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.rerouted);
  EXPECT_EQ(healthy.route_label, "cg/none/d1/n16/mixed");
}

/// An explicit override that cannot run — {mg-pcg, jac_block} is invalid
/// outright, and mg-pcg on two ranks breaks its one-rank rule — fails
/// that request alone: drain() returns every result, the healthy request
/// beside it converges as a lone session solve does, and each rejected
/// request carries the reason without having run a solve.
TEST(SolveServer, InvalidOverrideFailsAloneWithoutThrowingOutOfDrain) {
  const InputDeck deck = decks::hot_block(16, 1);
  SolveServer server;
  SolveRequest good;
  good.deck = deck;
  good.nranks = 2;
  good.tag = "good";
  SolveRequest bad_precon = good;
  bad_precon.tag = "mg-pcg+jac_block";
  bad_precon.config = deck.solver;
  bad_precon.config->type = SolverType::kMGPCG;
  bad_precon.config->precon = PreconType::kJacobiBlock;
  SolveRequest bad_ranks = good;
  bad_ranks.tag = "mg-pcg on 2 ranks";
  bad_ranks.config = deck.solver;
  bad_ranks.config->type = SolverType::kMGPCG;
  server.submit(bad_precon);
  server.submit(good);
  server.submit(bad_ranks);
  std::vector<SolveResult> results;
  ASSERT_NO_THROW(results = server.drain());
  ASSERT_EQ(results.size(), 3u);

  for (const std::size_t i : {0u, 2u}) {
    const SolveResult& r = results[i];
    EXPECT_FALSE(r.ok()) << r.tag;
    EXPECT_EQ(r.attempts, 0) << r.tag;
    EXPECT_EQ(r.config.type, SolverType::kMGPCG) << r.tag;
    EXPECT_EQ(r.stats.spmv_applies, 0) << r.tag;
  }
  EXPECT_EQ(results[0].tag, "mg-pcg+jac_block");
  EXPECT_NE(results[0].reroute_reason.find("embeds multigrid"),
            std::string::npos)
      << results[0].reroute_reason;
  EXPECT_EQ(results[2].tag, "mg-pcg on 2 ranks");
  EXPECT_NE(results[2].reroute_reason.find("one simulated rank"),
            std::string::npos)
      << results[2].reroute_reason;

  const SolveResult& healthy = results[1];
  EXPECT_EQ(healthy.tag, "good");
  EXPECT_TRUE(healthy.ok());
  SolveSession solo(deck, 2);
  const SolveStats ref = solo.solve();
  EXPECT_EQ(healthy.stats.outer_iters, ref.outer_iters);
  EXPECT_EQ(healthy.stats.final_norm, ref.final_norm);
  EXPECT_EQ(server.stats().failures, 2);
  EXPECT_EQ(server.stats().requests, 3);
}

/// Solo requests of one drain chunk (here single precision, which the
/// team engine cannot take) run one after another, so each must report
/// its own solve time: their latencies sum to no more than the drain's
/// busy time, instead of each claiming the whole chunk's wall time.
TEST(SolveServer, SoloRequestsReportTheirOwnLatency) {
  InputDeck deck = decks::hot_block(24, 1);
  deck.solver.precision = Precision::kSingle;
  SolveServer server;
  for (int i = 0; i < 3; ++i) {
    SolveRequest req;
    req.deck = deck;
    req.nranks = 2;
    req.tag = "single-" + std::to_string(i);
    server.submit(std::move(req));
  }
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(server.stats().batches, 1);  // one chunk of the same shape
  double sum = 0.0;
  for (const SolveResult& r : results) {
    EXPECT_FALSE(r.batched) << r.tag;
    EXPECT_GT(r.latency_seconds, 0.0) << r.tag;
    sum += r.latency_seconds;
  }
  EXPECT_LE(sum, server.stats().busy_seconds);
}

TEST(RoutingTable, UnseenMeshFallsBackToModelProjection) {
  const RoutingTable table = RoutingTable::from_sweep(synthetic_report());
  const std::vector<RouteEntry> ranked = table.route(2, 48, 2);
  ASSERT_FALSE(ranked.empty());
  for (const RouteEntry& e : ranked) {
    EXPECT_TRUE(e.projected);
    EXPECT_EQ(e.mesh_n, 48);
    EXPECT_EQ(e.label().front(), '~');
    EXPECT_GT(e.seconds, 0.0);
  }
  // Nothing measured in 3-D: routing has nothing to offer.
  EXPECT_TRUE(table.route(3, 16, 2).empty());
}

TEST(RoutingTable, RoundTripsThroughSweepJson) {
  const SweepReport rep = synthetic_report();
  const RoutingTable table =
      RoutingTable::from_json_string(rep.to_json().dump(2));
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.route(2, 16, 2).front().label(),
            "ppcg/jac_diag/d2/n16");
}

TEST(SolveServer, MixedShapeStreamBatchesPerShapeInArrivalOrder) {
  SolveServer server;
  for (int i = 0; i < 4; ++i) {
    SolveRequest req;
    req.deck = decks::hot_block(24, 1);
    req.nranks = 2;
    req.tag = "small-" + std::to_string(i);
    server.submit(std::move(req));
  }
  for (int i = 0; i < 2; ++i) {
    SolveRequest req;
    req.deck = decks::hot_block(32, 1);
    req.nranks = 2;
    req.tag = "large-" + std::to_string(i);
    server.submit(std::move(req));
  }
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 6u);
  for (const SolveResult& r : results) EXPECT_TRUE(r.ok());
  EXPECT_EQ(results[0].tag, "small-0");
  EXPECT_EQ(results[5].tag, "large-1");
  EXPECT_TRUE(results[0].batched);
  EXPECT_TRUE(results[5].batched);

  // Batched-through-the-server ≡ a lone session solving the same deck.
  SolveSession solo(decks::hot_block(24, 1), 2);
  const SolveStats ref = solo.solve();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].stats.final_norm, ref.final_norm);
    EXPECT_EQ(results[i].stats.outer_iters, ref.outer_iters);
  }
  EXPECT_EQ(server.stats().requests, 6);
  EXPECT_EQ(server.stats().batched_requests, 6);
}

TEST(SolveServer, ShapeCacheReusesSessionsAcrossDrains) {
  SolveServer server;
  SolveRequest req;
  req.deck = decks::hot_block(24, 1);
  req.nranks = 2;
  const SolveResult first = server.solve_one(req);
  EXPECT_TRUE(first.ok());
  EXPECT_EQ(server.sessions().hits(), 0);
  const SolveResult second = server.solve_one(req);
  EXPECT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(server.sessions().hits(), 1);
  EXPECT_EQ(server.stats().cache_hits, 1);
  // Identical request on a reset session: identical solve.
  EXPECT_EQ(second.stats.final_norm, first.stats.final_norm);
}

TEST(SolveServer, RoutesRequestsThroughTheTable) {
  ServerOptions opts;
  opts.routes = RoutingTable::from_sweep(synthetic_report());
  SolveServer server(std::move(opts));
  SolveRequest req;
  req.deck = decks::hot_block(16, 1);
  req.nranks = 2;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.route_label, "ppcg/jac_diag/d2/n16");
  EXPECT_EQ(res.config.type, SolverType::kPPCG);
  EXPECT_EQ(res.config.halo_depth, 2);
  // The deck's tolerances survive routing; only structure is overlaid.
  EXPECT_EQ(res.config.eps, decks::hot_block(16, 1).solver.eps);
}

TEST(SolveServer, StaleHintBreakdownReroutesOnceAndCompletes) {
  SolveRequest req;
  req.deck = decks::hot_block(24, 1);
  req.nranks = 2;
  SolverConfig stale = req.deck.solver;
  stale.type = SolverType::kPPCG;
  // A below-spectrum interval with an odd inner-step count makes the
  // polynomial preconditioner indefinite: ⟨r, M⁻¹r⟩ < 0 at the restart,
  // the deterministic rz-breakdown (true spectrum here is ≈ [1, 3]).
  stale.inner_steps = 3;
  stale.eig_hint_min = 0.1;
  stale.eig_hint_max = 0.2;
  req.config = stale;

  ServerOptions no_retry;
  no_retry.reroute_on_failure = false;
  SolveServer failing(std::move(no_retry));
  const SolveResult broken = failing.solve_one(req);
  EXPECT_TRUE(broken.stats.breakdown);
  EXPECT_FALSE(broken.ok());

  SolveServer server;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.rerouted);
  EXPECT_EQ(res.attempts, 2);
  EXPECT_FALSE(res.config.has_eig_hints());
  EXPECT_EQ(server.stats().reroutes, 1);

  // The retry replays the request from intact fields: bitwise equal to
  // never having hinted at all.
  SolveRequest clean = req;
  clean.config->eig_hint_min = clean.config->eig_hint_max = 0.0;
  SolveServer reference;
  const SolveResult ref = reference.solve_one(clean);
  EXPECT_EQ(res.stats.final_norm, ref.stats.final_norm);
  EXPECT_EQ(res.stats.outer_iters, ref.stats.outer_iters);
}

/// Regression for the re-route double-count: a run whose every step
/// breaks down once and retries must report the SAME total_outer_iters
/// as a run that never failed — failed-attempt iterations live in their
/// own counter.
TEST(SolveServer, RunCountsFinalAttemptsOnlyAfterReroutes) {
  InputDeck clean = decks::hot_block(20, 3);
  clean.solver.type = SolverType::kPPCG;
  clean.solver.inner_steps = 3;
  InputDeck stale = clean;
  stale.solver.eig_hint_min = 0.1;
  stale.solver.eig_hint_max = 0.2;

  SolveServer s1, s2;
  const RunResult ref = s1.run(clean, 2);
  const RunResult rerouted = s2.run(stale, 2);
  ASSERT_TRUE(ref.all_converged);
  ASSERT_TRUE(rerouted.all_converged);
  EXPECT_EQ(rerouted.reroutes, 3);
  EXPECT_EQ(ref.reroutes, 0);
  EXPECT_EQ(rerouted.total_outer_iters, ref.total_outer_iters);
  EXPECT_GT(rerouted.total_failed_attempt_iters, 0);
  EXPECT_EQ(rerouted.final_summary.temp, ref.final_summary.temp);
}

/// The precision-safety regression: an fp64 request and a mixed request of
/// the SAME geometry submitted through the server must never share a
/// session — the shape key carries the precision, so the fp64 stream stays
/// bitwise identical to a server that never saw reduced precision (no
/// shared fp32 bank, no cross-precision eigenvalue memo).
TEST(ServerPrecision, SessionsNeverSharedAcrossPrecisions) {
  InputDeck base = decks::hot_block(24, 1);
  base.solver.type = SolverType::kChebyshev;
  InputDeck mixed = base;
  mixed.solver.precision = Precision::kMixed;
  const auto make = [](const InputDeck& d, const std::string& tag) {
    SolveRequest r;
    r.deck = d;
    r.nranks = 2;
    r.tag = tag;
    return r;
  };

  SolveServer server, reference;
  server.submit(make(base, "d0"));
  server.submit(make(mixed, "m0"));
  server.submit(make(base, "d1"));
  const std::vector<SolveResult> first = server.drain();
  ASSERT_EQ(first.size(), 3u);
  for (const SolveResult& r : first) EXPECT_TRUE(r.ok());

  reference.submit(make(base, "d0"));
  reference.submit(make(base, "d1"));
  const std::vector<SolveResult> ref_first = reference.drain();

  // The fp64 members batch together exactly as if the mixed request were
  // never submitted; the mixed member solves solo in its own session.
  EXPECT_TRUE(first[0].batched);
  EXPECT_EQ(first[0].stats.final_norm, ref_first[0].stats.final_norm);
  EXPECT_EQ(first[0].stats.outer_iters, ref_first[0].stats.outer_iters);
  EXPECT_FALSE(first[1].batched);
  EXPECT_EQ(first[1].config.precision, Precision::kMixed);
  EXPECT_TRUE(first[1].stats.converged);
  EXPECT_LE(first[1].stats.refine_steps, 12);

  // Second drain: the fp64 request reuses the fp64 session's eigenvalue
  // memo, not the mixed one's — still bitwise equal to the clean server.
  const SolveResult second = server.solve_one(make(base, "d2"));
  const SolveResult ref_second = reference.solve_one(make(base, "d2"));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.stats.final_norm, ref_second.stats.final_norm);
  EXPECT_EQ(second.stats.outer_iters, ref_second.stats.outer_iters);
  EXPECT_EQ(second.stats.eigen_cg_iters, ref_second.stats.eigen_cg_iters);
}

/// run_solver_team is fp64-only, so reduced-precision members of a drain
/// group bypass the team engine and solve solo — bitwise identical to a
/// lone session solving the same deck.
TEST(ServerPrecision, ReducedPrecisionMembersBypassTheTeamEngine) {
  InputDeck deck = decks::hot_block(24, 1);
  deck.solver.precision = Precision::kMixed;
  SolveServer server;
  for (int i = 0; i < 2; ++i) {
    SolveRequest req;
    req.deck = deck;
    req.nranks = 2;
    req.tag = "mixed-" + std::to_string(i);
    server.submit(std::move(req));
  }
  const std::vector<SolveResult> results = server.drain();
  ASSERT_EQ(results.size(), 2u);
  SolveSession solo(deck, 2);
  const SolveStats ref = solo.solve();
  for (const SolveResult& r : results) {
    EXPECT_TRUE(r.ok());
    EXPECT_FALSE(r.batched);
    EXPECT_EQ(r.config.precision, Precision::kMixed);
    EXPECT_EQ(r.stats.final_norm, ref.final_norm);
    EXPECT_EQ(r.stats.outer_iters, ref.outer_iters);
    EXPECT_EQ(r.stats.refine_steps, ref.refine_steps);
  }
  EXPECT_EQ(server.stats().batched_requests, 0);
}

/// A sweep-measured mixed cell routes like any other: the routed config
/// carries the precision, the label carries the "/mixed" suffix, and an
/// (invalid) mg-pcg reduced-precision cell is filtered by validation.
TEST(ServerPrecision, RoutesMixedCellsAndFiltersDoubleOnlyBaselines) {
  SweepReport rep = synthetic_report();
  SweepOutcome cell;
  cell.config.solver = "cg";
  cell.config.mesh_n = 16;
  cell.config.dims = 2;
  cell.config.precision = "mixed";
  cell.converged = true;
  cell.iterations = 30;
  cell.solve_seconds = 0.005;  // fastest measured cell of this shape
  rep.cells.push_back(cell);
  SweepOutcome bad = cell;
  bad.config.solver = "mg-pcg";
  bad.config.precision = "single";
  bad.solve_seconds = 0.001;
  rep.cells.push_back(bad);

  RoutingTable table = RoutingTable::from_sweep(rep);
  const std::vector<RouteEntry> ranked = table.route(2, 16, 1);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked.front().label(), "cg/none/d1/n16/mixed");
  EXPECT_EQ(ranked.front().config.precision, Precision::kMixed);
  for (const RouteEntry& e : ranked) {
    if (e.config.type == SolverType::kMGPCG) {
      EXPECT_EQ(e.config.precision, Precision::kDouble);
    }
  }

  ServerOptions opts;
  opts.routes = std::move(table);
  SolveServer server(std::move(opts));
  SolveRequest req;
  req.deck = decks::hot_block(16, 1);
  req.nranks = 2;
  const SolveResult res = server.solve_one(req);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.route_label, "cg/none/d1/n16/mixed");
  EXPECT_EQ(res.config.type, SolverType::kCG);
  EXPECT_EQ(res.config.precision, Precision::kMixed);
  EXPECT_FALSE(res.batched);
  EXPECT_LE(res.stats.final_norm,
            res.config.eps * res.stats.initial_norm);
}

}  // namespace
}  // namespace tealeaf
