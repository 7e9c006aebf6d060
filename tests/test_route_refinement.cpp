// Online routing refinement: measured-latency feedback, demotion,
// persistence.  Latencies are injected deterministically (either straight
// into RoutingTable::observe or through ServerOptions::learn_latency_hook)
// so every assertion is exact — no test here depends on wall-clock noise.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/decks.hpp"
#include "server/route_db.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "util/error.hpp"

namespace tealeaf {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Two-entry table on one measured shape: a "fast" chebyshev entry whose
/// prediction will turn out to be a lie, and an honest (pessimistically
/// predicted) CG entry ranked second.
SweepReport two_route_report(int mesh_n, double cheby_seconds,
                             double cg_seconds) {
  SweepReport rep;
  rep.ranks = 2;
  rep.steps = 1;
  const auto add = [&](const std::string& solver, PreconType pre,
                       double seconds, const std::string& precision) {
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.precon = pre;
    cell.config.halo_depth = 1;
    cell.config.mesh_n = mesh_n;
    cell.config.dims = 2;
    cell.config.precision = precision;
    cell.converged = true;
    cell.iterations = 50;
    cell.solve_seconds = seconds;
    rep.cells.push_back(cell);
  };
  add("chebyshev", PreconType::kNone, cheby_seconds, "double");
  add("cg", PreconType::kNone, cg_seconds, "double");
  return rep;
}

// ---------------------------------------------------------------------------
// RouteDatabase: statistics, merge, persistence
// ---------------------------------------------------------------------------

TEST(RouteDatabase, EwmaRecordSemantics) {
  RouteDatabase db;
  const RouteObservation& a =
      db.record("2d/n16/r2", "cg/none/d1", 1.0, 0.5, 0.5);
  EXPECT_EQ(a.ewma_seconds, 1.0);  // first sample initialises exactly
  EXPECT_EQ(a.observations, 1);
  EXPECT_EQ(a.predicted_seconds, 0.5);

  const RouteObservation& b =
      db.record("2d/n16/r2", "cg/none/d1", 3.0, 0.5, 0.5);
  EXPECT_DOUBLE_EQ(b.ewma_seconds, 0.5 * 3.0 + 0.5 * 1.0);
  EXPECT_EQ(b.observations, 2);
  EXPECT_FALSE(b.demoted);

  const RouteObservation& c =
      db.record_breakdown("2d/n16/r2", "cg/none/d1");
  EXPECT_EQ(c.observations, 3);
  EXPECT_EQ(c.breakdowns, 1);
  EXPECT_TRUE(c.demoted);  // a breakdown demotes immediately

  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.learned(3), 1);
  EXPECT_EQ(db.learned(4), 0);
  EXPECT_EQ(db.demotions(), 1);
  EXPECT_EQ(db.find("2d/n16/r2", "nope"), nullptr);
  EXPECT_EQ(db.find("3d/n16/r2", "cg/none/d1"), nullptr);
}

TEST(RouteDatabase, SaveLoadSaveIsBitwiseStable) {
  RouteDatabase db;
  // Awkward doubles on purpose: the %.17g round-trip must hold exactly.
  db.record("2d/n48/r2", "chebyshev/none/d1", 0.1 + 0.2, 1e-7, 0.3);
  db.record("2d/n48/r2", "chebyshev/none/d1", 1.0 / 3.0, 1e-7, 0.3);
  db.record("2d/n48/r2", "cg/none/d1", 5e-3, 5.0, 0.3);
  db.record("2d/n64/r2", "ppcg/jac_diag/d4/mixed", 7e-3, 6.0, 0.3);
  db.record_breakdown("2d/n64/r2", "ppcg/jac_diag/d4/mixed");

  const std::string p1 = tmp_path("route_db_a.json");
  const std::string p2 = tmp_path("route_db_b.json");
  db.save(p1);
  const RouteDatabase loaded = RouteDatabase::load(p1);
  loaded.save(p2);
  const std::string text1 = slurp(p1);
  EXPECT_FALSE(text1.empty());
  EXPECT_EQ(text1, slurp(p2));  // bitwise-stable save → load → save

  // Self-merge after a round-trip doubles the counts but keeps the EWMAs
  // (equal-weight average of equal values) — and the JSON stays stable.
  RouteDatabase merged = loaded;
  merged.merge(loaded);
  const RouteObservation* obs =
      merged.find("2d/n48/r2", "chebyshev/none/d1");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->observations, 4);
  EXPECT_EQ(obs->ewma_seconds,
            loaded.find("2d/n48/r2", "chebyshev/none/d1")->ewma_seconds);
}

TEST(RouteDatabase, LoadRejectsUnknownVersionAndMissingFile) {
  const std::string path = tmp_path("route_db_future.json");
  std::ofstream(path) << "{\"version\": 99, \"shapes\": {}}\n";
  EXPECT_THROW((void)RouteDatabase::load(path), TeaError);
  EXPECT_THROW((void)RouteDatabase::load(tmp_path("does_not_exist.json")),
               TeaError);
  EXPECT_TRUE(
      RouteDatabase::load_if_exists(tmp_path("also_missing.json")).empty());
}

TEST(RouteDatabase, RetiredEngineDatabasesAskForAFreshSweep) {
  // Version 1 databases — and any route key naming the retired fused or
  // pipelined tiers — were timed on engines that no longer exist: loading
  // one must fail with a re-run-the-sweep error, never re-rank routes.
  const auto expect_rejected = [](const std::string& text) {
    try {
      (void)RouteDatabase::from_json(io::JsonValue::parse(text));
      FAIL() << "must be rejected: " << text;
    } catch (const TeaError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("re-run the sweep"), std::string::npos) << msg;
    }
  };
  expect_rejected(R"({"version": 1, "shapes": {}})");
  const std::string cell =
      R"({"ewma_seconds": 1, "predicted_seconds": 1, "observations": 1,)"
      R"( "breakdowns": 0, "demoted": false})";
  for (const char* route : {"cg/none/d1/fused", "ppcg/none/d4/b8/pipe/mixed"}) {
    expect_rejected(R"({"version": 2, "shapes": {"2d/n16/r2": {")" +
                    std::string(route) + "\": " + cell + "}}}");
  }
  EXPECT_EQ(RouteDatabase::kVersion, 2);
  // A current key with the same shape loads fine.
  EXPECT_NO_THROW((void)RouteDatabase::from_json(io::JsonValue::parse(
      R"({"version": 2, "shapes": {"2d/n16/r2": {"cg/none/d1": )" + cell +
      "}}}")));
}

TEST(RouteDatabase, ExplicitTileHeightKeysAskForAFreshSweep) {
  // The engine derives its row-blocks from the team, so a key recorded at
  // an explicit height ("/b<rows>") names a schedule that no longer runs
  // and must be re-swept.  Keys recorded at the old auto height carry no
  // such segment and keep loading unchanged.
  const std::string cell =
      R"({"ewma_seconds": 1, "predicted_seconds": 1, "observations": 1,)"
      R"( "breakdowns": 0, "demoted": false})";
  const auto db_with = [&](const std::string& route) {
    return io::JsonValue::parse(
        R"({"version": 2, "shapes": {"2d/n16/r2": {")" + route + "\": " +
        cell + "}}}");
  };
  for (const char* route : {"cg/none/d1/b8", "ppcg/jac_diag/d4/b0/3d",
                            "cg/none/d1/b32/csr/mixed"}) {
    try {
      (void)RouteDatabase::from_json(db_with(route));
      FAIL() << "must be rejected: " << route;
    } catch (const TeaError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("re-run the sweep"), std::string::npos) << msg;
      EXPECT_NE(msg.find("derives its blocks"), std::string::npos) << msg;
    }
  }
  for (const char* route : {"cg/none/d1", "cg/jac_block/d1/3d/csr/mixed",
                            "ppcg/jac_diag/d4/f32"}) {
    const RouteDatabase db = RouteDatabase::from_json(db_with(route));
    EXPECT_NE(db.find("2d/n16/r2", route), nullptr) << route;
  }
}

TEST(RouteDatabase, MergeNeverResurrectsFromStaleFewerObservations) {
  // Live database: the route was demoted on the strength of 5 samples.
  RouteDatabase live;
  for (int i = 0; i < 5; ++i) {
    live.record("2d/n48/r2", "chebyshev/none/d1", 0.5, 1e-7, 0.3);
  }
  live.demote("2d/n48/r2", "chebyshev/none/d1");

  // Stale database: an old snapshot with fewer observations and no
  // demotion must NOT clear the flag.
  RouteDatabase stale;
  stale.record("2d/n48/r2", "chebyshev/none/d1", 1e-7, 1e-7, 0.3);
  RouteDatabase a = live;
  a.merge(stale);
  EXPECT_TRUE(a.find("2d/n48/r2", "chebyshev/none/d1")->demoted);
  EXPECT_EQ(a.find("2d/n48/r2", "chebyshev/none/d1")->observations, 6);

  // Merging the other way round (stale absorbs live) must agree: the
  // side with MORE observations decides.
  RouteDatabase b = stale;
  b.merge(live);
  EXPECT_TRUE(b.find("2d/n48/r2", "chebyshev/none/d1")->demoted);

  // A tie keeps the demotion in force.
  RouteDatabase tie1, tie2;
  tie1.record("2d/n48/r2", "cg/none/d1", 1.0, 1.0, 0.3);
  tie1.demote("2d/n48/r2", "cg/none/d1");
  tie2.record("2d/n48/r2", "cg/none/d1", 1.0, 1.0, 0.3);
  tie2.merge(tie1);
  EXPECT_TRUE(tie2.find("2d/n48/r2", "cg/none/d1")->demoted);
}

TEST(RouteDatabase, MergeWeightsEwmasByObservationCount) {
  RouteDatabase a, b;
  a.record("2d/n16/r1", "cg/none/d1", 1.0, 1.0, 1.0);  // 1 obs, ewma 1.0
  b.record("2d/n16/r1", "cg/none/d1", 4.0, 1.0, 1.0);
  b.record("2d/n16/r1", "cg/none/d1", 4.0, 1.0, 1.0);
  b.record("2d/n16/r1", "cg/none/d1", 4.0, 1.0, 1.0);  // 3 obs, ewma 4.0
  a.merge(b);
  const RouteObservation* obs = a.find("2d/n16/r1", "cg/none/d1");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->observations, 4);
  EXPECT_DOUBLE_EQ(obs->ewma_seconds, (1.0 * 1.0 + 4.0 * 3.0) / 4.0);
}

// ---------------------------------------------------------------------------
// RoutingTable: observation, demotion, promotion, precision isolation
// ---------------------------------------------------------------------------

TEST(RouteRefinement, MispredictedRouteDemotedAfterNObservations) {
  RoutingTable table =
      RoutingTable::from_sweep(two_route_report(16, 1e-7, 5.0));
  RouteLearnOptions learn;
  learn.min_observations = 3;
  learn.demote_ratio = 2.0;
  table.set_learning(learn);

  // Before any evidence, the lie ranks first.
  std::vector<RouteEntry> ranked = table.route(2, 16, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].config.type, SolverType::kChebyshev);
  EXPECT_EQ(ranked[0].route_key(), "chebyshev/none/d1");
  EXPECT_EQ(ranked[0].predicted_seconds, 1e-7);

  // Two observations at 5 ms: not yet enough to demote.
  for (int i = 0; i < 2; ++i) {
    const ObserveOutcome o =
        table.observe(2, 16, 2, "chebyshev/none/d1", 5e-3, 1e-7);
    EXPECT_FALSE(o.demoted);
    EXPECT_EQ(o.observations, i + 1);
  }
  EXPECT_EQ(table.route(2, 16, 2)[0].config.type, SolverType::kChebyshev);

  // The third trips the ratio (5e-3 / 1e-7 >> 2): demoted, and the
  // next-ranked honest route takes over.
  const ObserveOutcome o =
      table.observe(2, 16, 2, "chebyshev/none/d1", 5e-3, 1e-7);
  EXPECT_TRUE(o.demoted);
  EXPECT_TRUE(o.newly_demoted);
  ranked = table.route(2, 16, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].config.type, SolverType::kCG);
  EXPECT_TRUE(ranked[1].demoted);
  EXPECT_TRUE(ranked[1].learned);
  EXPECT_EQ(ranked[1].observations, 3);

  // The demotion is shape-local: another rank count is a different shape
  // with no evidence yet.
  EXPECT_EQ(table.route(2, 16, 1)[0].config.type, SolverType::kChebyshev);
}

TEST(RouteRefinement, FreshEvidenceInsideRatioPromotesAgain) {
  RoutingTable table =
      RoutingTable::from_sweep(two_route_report(16, 1e-2, 5.0));
  RouteLearnOptions learn;
  learn.min_observations = 2;
  learn.demote_ratio = 2.0;
  learn.ewma_alpha = 1.0;  // newest sample IS the EWMA: exact control
  table.set_learning(learn);

  table.observe(2, 16, 2, "chebyshev/none/d1", 0.05, 1e-2);
  const ObserveOutcome demoted =
      table.observe(2, 16, 2, "chebyshev/none/d1", 0.05, 1e-2);
  EXPECT_TRUE(demoted.newly_demoted);
  EXPECT_EQ(table.route(2, 16, 2)[0].config.type, SolverType::kCG);

  // Latency back inside the ratio (say the machine was warming up):
  // the route is promoted again — latency demotions are not tattoos.
  const ObserveOutcome promoted =
      table.observe(2, 16, 2, "chebyshev/none/d1", 1.5e-2, 1e-2);
  EXPECT_TRUE(promoted.newly_promoted);
  EXPECT_FALSE(promoted.demoted);
  EXPECT_EQ(table.route(2, 16, 2)[0].config.type, SolverType::kChebyshev);
}

TEST(RouteRefinement, BreakdownDemotesImmediatelyAndPermanently) {
  RoutingTable table =
      RoutingTable::from_sweep(two_route_report(16, 1e-2, 5.0));
  const ObserveOutcome o =
      table.observe_breakdown(2, 16, 2, "chebyshev/none/d1");
  EXPECT_TRUE(o.demoted);
  EXPECT_TRUE(o.newly_demoted);
  EXPECT_EQ(table.route(2, 16, 2)[0].config.type, SolverType::kCG);

  // Good latencies cannot clear a breakdown demotion: the solve FAILED
  // on this operator — only a rebuilt database forgives that.
  for (int i = 0; i < 5; ++i) {
    const ObserveOutcome again =
        table.observe(2, 16, 2, "chebyshev/none/d1", 1e-2, 1e-2);
    EXPECT_TRUE(again.demoted);
    EXPECT_FALSE(again.newly_promoted);
  }
  EXPECT_EQ(table.route(2, 16, 2)[0].config.type, SolverType::kCG);
}

TEST(RouteRefinement, PrecisionKeysNeverLeak) {
  // Same structural route at two precisions: the mixed cell's key carries
  // the "/mixed" suffix, so evidence against one can never demote the
  // other.
  SweepReport rep = two_route_report(16, 1e-7, 5.0);
  SweepOutcome mixed = rep.cells[0];
  mixed.config.precision = "mixed";
  rep.cells.push_back(mixed);
  RoutingTable table = RoutingTable::from_sweep(rep);
  RouteLearnOptions learn;
  learn.min_observations = 1;
  table.set_learning(learn);

  const std::vector<RouteEntry> before = table.route(2, 16, 2);
  ASSERT_EQ(before.size(), 3u);
  EXPECT_EQ(before[0].route_key(), "chebyshev/none/d1");
  EXPECT_EQ(before[1].route_key(), "chebyshev/none/d1/mixed");

  // Demote ONLY the mixed cell.
  const ObserveOutcome o =
      table.observe(2, 16, 2, "chebyshev/none/d1/mixed", 5e-3, 1e-7);
  EXPECT_TRUE(o.newly_demoted);

  const std::vector<RouteEntry> after = table.route(2, 16, 2);
  EXPECT_EQ(after[0].route_key(), "chebyshev/none/d1");  // fp64 untouched
  EXPECT_FALSE(after[0].demoted);
  EXPECT_EQ(after[0].observations, 0);
  EXPECT_TRUE(after.back().demoted);
  EXPECT_EQ(after.back().route_key(), "chebyshev/none/d1/mixed");

  // And the database keys are distinct cells.
  EXPECT_NE(table.database().find(RoutingTable::shape_key(2, 16, 2),
                                  "chebyshev/none/d1/mixed"),
            nullptr);
  EXPECT_EQ(table.database().find(RoutingTable::shape_key(2, 16, 2),
                                  "chebyshev/none/d1"),
            nullptr);
}

TEST(RouteRefinement, SeedDatabasePrimesEveryMeasuredCell) {
  const RoutingTable table =
      RoutingTable::from_sweep(two_route_report(16, 1e-2, 5.0));
  const RouteDatabase seed = table.seed_database();
  EXPECT_EQ(seed.size(), 2u);
  const RouteObservation* obs = seed.find("2d/n16/r2", "cg/none/d1");
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->observations, 1);
  EXPECT_EQ(obs->ewma_seconds, 5.0);
  EXPECT_EQ(obs->predicted_seconds, 5.0);
}

TEST(RouteRefinement, LearnOptionsAreValidated) {
  RoutingTable table;
  RouteLearnOptions bad;
  bad.demote_ratio = 0.9;
  EXPECT_THROW(table.set_learning(bad), TeaError);
  bad = {};
  bad.min_observations = 0;
  EXPECT_THROW(table.set_learning(bad), TeaError);
  bad = {};
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(table.set_learning(bad), TeaError);
}

// ---------------------------------------------------------------------------
// SolveServer: the closed loop, end to end
// ---------------------------------------------------------------------------

/// The acceptance scenario: an adversarially wrong seed table (the
/// chebyshev entry claims 0.1 µs) plus a deterministic latency hook.  The
/// server must demote the lie within the run, converge onto the honest
/// route, persist the database, and a FRESH server loading it must route
/// correctly on request one.
TEST(RouteRefinement, ServerConvergesOntoFastestRouteAndPersists) {
  const std::string db_path = tmp_path("server_route_db.json");
  std::filesystem::remove(db_path);  // hermetic across reruns
  const auto make_options = [&] {
    ServerOptions opts;
    opts.routes = RoutingTable::from_sweep(two_route_report(16, 1e-7, 5.0));
    opts.learn_routes = true;
    opts.learn.min_observations = 3;
    opts.route_db_path = db_path;
    // Deterministic injected latency: every solve "measures" 5 ms, so the
    // chebyshev cell's observed/predicted ratio is 5e-3 / 1e-7 = 5e4.
    opts.learn_latency_hook = [](const std::string&, double) {
      return 5e-3;
    };
    return opts;
  };

  SolveServer server(make_options());
  std::vector<std::string> labels;
  for (int i = 0; i < 5; ++i) {
    SolveRequest req;
    req.deck = decks::layered_material(16, 1);
    req.deck.solver.eps = 1e-8;
    req.nranks = 2;
    const SolveResult res = server.solve_one(std::move(req));
    ASSERT_TRUE(res.ok());
    labels.push_back(res.route_label);
  }
  // Three observations demote the lie; requests 4 and 5 run the honest
  // CG route.
  EXPECT_EQ(labels[0], "chebyshev/none/d1/n16");
  EXPECT_EQ(labels[2], "chebyshev/none/d1/n16");
  EXPECT_EQ(labels[3], "cg/none/d1/n16");
  EXPECT_EQ(labels[4], "cg/none/d1/n16");
  EXPECT_EQ(server.stats().route_observations, 5);
  EXPECT_EQ(server.stats().demotions, 1);
  server.save_route_db();

  // Fresh server, same wrong table, database loaded at construction:
  // request ONE already routes onto the honest entry.
  SolveServer fresh(make_options());
  SolveRequest req;
  req.deck = decks::layered_material(16, 1);
  req.deck.solver.eps = 1e-8;
  req.nranks = 2;
  const SolveResult res = fresh.solve_one(std::move(req));
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.route_label, "cg/none/d1/n16");
  EXPECT_TRUE(res.route_learned);
  EXPECT_GE(res.route_observations, 1);
}

TEST(RouteRefinement, RunHonoursDeckLearningKeys) {
  const std::string db_path = tmp_path("run_route_db.json");
  std::filesystem::remove(db_path);  // hermetic across reruns
  ServerOptions opts;
  opts.routes = RoutingTable::from_sweep(two_route_report(16, 1e-7, 5.0));
  opts.learn.min_observations = 2;
  opts.learn_latency_hook = [](const std::string&, double) { return 5e-3; };
  SolveServer server(std::move(opts));

  InputDeck deck = decks::layered_material(16, 6);
  deck.solver.eps = 1e-8;
  deck.route_learn = true;
  deck.route_db = db_path;
  deck.route_demote_ratio = 3.0;
  const RunResult run = server.run(deck, 2);
  EXPECT_TRUE(run.all_converged);
  EXPECT_EQ(server.options().learn.demote_ratio, 3.0);

  // The run demoted the lie after two steps and saved the database.
  const RouteDatabase db = RouteDatabase::load(db_path);
  const RouteObservation* cheby =
      db.find("2d/n16/r2", "chebyshev/none/d1");
  ASSERT_NE(cheby, nullptr);
  EXPECT_TRUE(cheby->demoted);
  const RouteObservation* cg = db.find("2d/n16/r2", "cg/none/d1");
  ASSERT_NE(cg, nullptr);
  EXPECT_GE(cg->observations, 2);
  EXPECT_FALSE(cg->demoted);
}

TEST(RouteRefinement, SaveRouteDbRequiresConfiguredPath) {
  SolveServer server{ServerOptions{}};
  EXPECT_THROW(server.save_route_db(), TeaError);
}

}  // namespace
}  // namespace tealeaf
