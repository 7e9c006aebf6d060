#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "driver/decks.hpp"
#include "driver/sweep.hpp"
#include "model/scaling.hpp"

namespace tealeaf {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.solvers = {"cg", "ppcg"};
  spec.precons = {PreconType::kNone, PreconType::kJacobiDiag};
  spec.halo_depths = {1, 4};
  spec.mesh_sizes = {16, 24};
  spec.ranks = 2;
  return spec;
}

TEST(SweepEnumeration, FullCrossProductInDeclaredOrder) {
  const SweepSpec spec = small_spec();
  const std::vector<SweepCase> cases = enumerate_cases(spec, 48);
  ASSERT_EQ(cases.size(), spec.num_cases());
  ASSERT_EQ(cases.size(), 2u * 2u * 2u * 2u * 1u);

  // Axis nesting: solver outermost, threads innermost.
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n24/t0");
  EXPECT_EQ(cases[2].label(), "cg/none/d4/n16/t0");
  EXPECT_EQ(cases[4].label(), "cg/jac_diag/d1/n16/t0");
  EXPECT_EQ(cases[8].label(), "ppcg/none/d1/n16/t0");
  EXPECT_EQ(cases.back().label(), "ppcg/jac_diag/d4/n24/t0");

  // Enumeration is deterministic: a second call yields identical cells.
  const std::vector<SweepCase> again = enumerate_cases(spec, 48);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].label(), again[i].label());
  }
}

TEST(SweepEnumeration, EmptyMeshAxisUsesBaseMesh) {
  SweepSpec spec;
  spec.solvers = {"jacobi"};
  const std::vector<SweepCase> cases = enumerate_cases(spec, 40);
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].mesh_n, 40);
}

TEST(SweepEnumeration, RejectsBadAxes) {
  SweepSpec spec;
  spec.solvers = {"warp-drive"};
  EXPECT_THROW(enumerate_cases(spec, 32), TeaError);
  spec = small_spec();
  spec.halo_depths = {0};
  EXPECT_THROW(spec.validate(), TeaError);
  spec = small_spec();
  spec.ranks = 0;
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepDeck, ParsesAndRoundTripsSweepSection) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\n"
      "x_cells=32\ny_cells=32\nend_step=1\n"
      "sweep_solvers=cg,ppcg,mg-pcg\n"
      "sweep_precons=none,jac_diag\n"
      "sweep_halo_depths=1,4,8\n"
      "sweep_mesh_sizes=16,32\n"
      "sweep_threads=0,2\n"
      "sweep_ranks=2\n"
      "state 1 density=1.0 energy=1.0\n"
      "*endtea\n");
  ASSERT_TRUE(deck.sweep.requested());
  EXPECT_EQ(deck.sweep.solvers,
            (std::vector<std::string>{"cg", "ppcg", "mg-pcg"}));
  EXPECT_EQ(deck.sweep.precons,
            (std::vector<PreconType>{PreconType::kNone,
                                     PreconType::kJacobiDiag}));
  EXPECT_EQ(deck.sweep.halo_depths, (std::vector<int>{1, 4, 8}));
  EXPECT_EQ(deck.sweep.mesh_sizes, (std::vector<int>{16, 32}));
  EXPECT_EQ(deck.sweep.thread_counts, (std::vector<int>{0, 2}));
  EXPECT_EQ(deck.sweep.ranks, 2);
  EXPECT_EQ(deck.sweep.num_cases(), 3u * 2u * 3u * 2u * 2u);

  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.sweep.solvers, deck.sweep.solvers);
  EXPECT_EQ(back.sweep.precons, deck.sweep.precons);
  EXPECT_EQ(back.sweep.halo_depths, deck.sweep.halo_depths);
  EXPECT_EQ(back.sweep.mesh_sizes, deck.sweep.mesh_sizes);
  EXPECT_EQ(back.sweep.thread_counts, deck.sweep.thread_counts);
  EXPECT_EQ(back.sweep.ranks, deck.sweep.ranks);
}

TEST(SweepDeck, RetiredEngineKeysFailLoudly) {
  // The fused and pipelined engine tiers are gone, and the engine derives
  // its row-blocks from the team: their deck keys fail loudly.
  for (const std::string key :
       {"tl_fuse_kernels", "tl_pipeline", "tl_tile_rows", "sweep_fused",
        "sweep_pipeline", "sweep_tile_rows"}) {
    try {
      (void)InputDeck::parse_string(
          "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
          "sweep_solvers=cg\n" +
          key + "=1\nstate 1 density=1.0 energy=1.0\n*endtea\n");
      FAIL() << key << " must be rejected";
    } catch (const TeaError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + key + "' was retired"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("derives its row-blocks"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("remove the key"), std::string::npos) << msg;
    }
  }
}

TEST(SweepDeck, NonSweepDecksStayNonSweep) {
  const InputDeck deck = decks::hot_block(16, 1);
  EXPECT_FALSE(deck.sweep.requested());
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_FALSE(back.sweep.requested());
}

TEST(SweepDeck, RejectsUnknownSweepValues) {
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "sweep_solvers=cg\nsweep_precons=ilu\n"
                   "state 1 density=1 energy=1\n*endtea\n"),
               TeaError);
}

/// Shared fixture: one executed 2-solver × 2-mesh sweep (plus one invalid
/// combination) reused by the end-to-end and round-trip tests.
class SweepRun : public ::testing::Test {
 protected:
  static const SweepReport& report() {
    static const SweepReport rep = [] {
      InputDeck base = decks::hot_block(16, 1);
      base.solver.eps = 1e-8;
      SweepSpec spec;
      spec.solvers = {"cg", "ppcg"};
      spec.precons = {PreconType::kNone, PreconType::kJacobiBlock};
      spec.halo_depths = {1, 4};
      spec.mesh_sizes = {16, 24};
      spec.ranks = 2;
      return run_sweep(base, spec);
    }();
    return rep;
  }
};

TEST_F(SweepRun, EndToEndAllValidCellsConverge) {
  const SweepReport& rep = report();
  ASSERT_EQ(rep.cells.size(), 16u);
  EXPECT_EQ(rep.ranks, 2);
  EXPECT_EQ(rep.steps, 1);

  int converged = 0, skipped = 0;
  for (const SweepOutcome& c : rep.cells) {
    if (c.skipped) {
      ++skipped;
      EXPECT_FALSE(c.skip_reason.empty());
      continue;
    }
    EXPECT_TRUE(c.converged) << c.config.label();
    ++converged;
    EXPECT_GT(c.iterations, 0) << c.config.label();
    EXPECT_GT(c.spmv, 0) << c.config.label();
    EXPECT_GT(c.reductions, 0) << c.config.label();
    EXPECT_GT(c.solve_seconds, 0.0) << c.config.label();
    EXPECT_GT(c.comm_seconds, 0.0) << c.config.label();
    EXPECT_LT(c.final_norm, 1e-8 * 1e3) << c.config.label();
  }
  // Skipped: cg × d4 (2 precons × 2 meshes) and ppcg × jac_block × d4
  // (2 meshes) — the matrix-powers contract of SolverConfig::validate.
  EXPECT_EQ(skipped, 6);
  EXPECT_EQ(converged, 10);

  // Ranking covers exactly the converged cells, fastest first.
  const std::vector<int> order = rep.ranking();
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(rep.cells[order[i - 1]].solve_seconds,
              rep.cells[order[i]].solve_seconds);
  }
  EXPECT_EQ(rep.best(), order.front());

  // Speedups: exactly one cell at 1.0 (the best), the rest in (0, 1].
  const std::vector<double> speedup = rep.speedups();
  EXPECT_DOUBLE_EQ(speedup[rep.best()], 1.0);
  for (std::size_t i = 0; i < speedup.size(); ++i) {
    if (rep.cells[i].skipped) {
      EXPECT_DOUBLE_EQ(speedup[i], 0.0);
    } else {
      EXPECT_GT(speedup[i], 0.0);
      EXPECT_LE(speedup[i], 1.0);
    }
  }
}

TEST(SweepDesignQuestions, PPCGCutsReductionsAndDepthCutsExchanges) {
  // The design questions the sweep exists to answer (paper §II): PPCG
  // trades global reductions for inner Chebyshev steps, and matrix-powers
  // halo depth trades exchange rounds for deeper halos.  Use a problem
  // hard enough that the iteration counts are not prestep-dominated.
  InputDeck base = decks::layered_material(32, 1);
  SweepSpec spec;
  spec.solvers = {"cg", "ppcg"};
  spec.halo_depths = {1, 4};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);

  const auto cell = [&](const std::string& label) -> const SweepOutcome& {
    for (const SweepOutcome& c : rep.cells) {
      if (c.config.label() == label) return c;
    }
    throw TeaError("no cell " + label);
  };
  const SweepOutcome& cg = cell("cg/none/d1/n32/t0");
  const SweepOutcome& ppcg1 = cell("ppcg/none/d1/n32/t0");
  const SweepOutcome& ppcg4 = cell("ppcg/none/d4/n32/t0");
  ASSERT_TRUE(cg.converged && ppcg1.converged && ppcg4.converged);
  EXPECT_LT(ppcg1.reductions, cg.reductions);
  EXPECT_LT(ppcg4.exchanges, ppcg1.exchanges);
}

TEST_F(SweepRun, CsvRoundTrips) {
  const SweepReport& rep = report();
  const std::vector<std::string> lines = rep.to_csv_lines();
  ASSERT_EQ(lines.size(), rep.cells.size() + 1);  // header + one per cell

  const SweepReport back = SweepReport::from_csv_lines(lines);
  ASSERT_EQ(back.cells.size(), rep.cells.size());
  EXPECT_EQ(back.ranks, rep.ranks);
  EXPECT_EQ(back.steps, rep.steps);
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    const SweepOutcome& a = rep.cells[i];
    const SweepOutcome& b = back.cells[i];
    EXPECT_EQ(a.config.label(), b.config.label());
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.inner_steps, b.inner_steps);
    EXPECT_EQ(a.spmv, b.spmv);
    EXPECT_EQ(a.reductions, b.reductions);
    EXPECT_EQ(a.exchanges, b.exchanges);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.message_bytes, b.message_bytes);
    EXPECT_DOUBLE_EQ(a.final_norm, b.final_norm);
    EXPECT_DOUBLE_EQ(a.solve_seconds, b.solve_seconds);
    EXPECT_DOUBLE_EQ(a.comm_seconds, b.comm_seconds);
  }
  // Derived views survive the trip bit-for-bit.
  EXPECT_EQ(back.ranking(), rep.ranking());
  EXPECT_EQ(back.best(), rep.best());

  // Corrupt cells are rejected with the library's error type, not a raw
  // std::invalid_argument.
  std::vector<std::string> corrupt = lines;
  corrupt[1].replace(corrupt[1].find(",1,"), 3, ",x,");
  EXPECT_THROW(SweepReport::from_csv_lines(corrupt), TeaError);
}

TEST_F(SweepRun, JsonRoundTrips) {
  const SweepReport& rep = report();
  const std::string text = rep.to_json().dump(2);
  const SweepReport back = SweepReport::from_json_string(text);
  ASSERT_EQ(back.cells.size(), rep.cells.size());
  EXPECT_EQ(back.ranks, rep.ranks);
  EXPECT_EQ(back.steps, rep.steps);
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    const SweepOutcome& a = rep.cells[i];
    const SweepOutcome& b = back.cells[i];
    EXPECT_EQ(a.config.label(), b.config.label());
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.skip_reason, b.skip_reason);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.message_bytes, b.message_bytes);
    EXPECT_DOUBLE_EQ(a.final_norm, b.final_norm);
    EXPECT_DOUBLE_EQ(a.solve_seconds, b.solve_seconds);
    EXPECT_DOUBLE_EQ(a.comm_seconds, b.comm_seconds);
  }
  EXPECT_EQ(back.ranking(), rep.ranking());

  // The document also carries the ranking and best-cell identification
  // for consumers that read the JSON directly.
  const io::JsonValue doc = io::JsonValue::parse(text);
  ASSERT_TRUE(doc.contains("ranking"));
  EXPECT_EQ(static_cast<int>(doc.at("best").as_number()), rep.best());
  EXPECT_EQ(doc.at("best_label").as_string(),
            rep.cells[rep.best()].config.label());
}

TEST(SweepMgPcg, RunsAsFifthSolverAxis) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "mg-pcg"};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 2u);
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_FALSE(c.skipped) << c.config.label();
    EXPECT_TRUE(c.converged) << c.config.label();
  }
  // MG-PCG converges in far fewer (mesh-independent) iterations.
  EXPECT_LT(rep.cells[1].iterations, rep.cells[0].iterations);
}

TEST(SweepDeckDriven, DeckSweepSectionDrivesRun) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  base.sweep.solvers = {"cg", "jacobi"};
  base.sweep.mesh_sizes = {12, 16};
  base.sweep.ranks = 2;
  const SweepReport rep = run_sweep(base);
  ASSERT_EQ(rep.cells.size(), 4u);
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_TRUE(c.converged) << c.config.label();
  }
}

TEST(SweepReport, RetiredEngineFieldsAreRejected) {
  // Reports recorded before the one-engine collapse carry fused/pipeline
  // fields: their timings describe engines that no longer exist, so they
  // must be re-run, never silently ranked.
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  const auto expect_retired = [](const auto& parse, const std::string& field) {
    try {
      parse();
      FAIL() << field << " must be rejected";
    } catch (const TeaError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("'" + field + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("re-run the sweep"), std::string::npos) << msg;
    }
  };
  for (const char* field : {"fused", "pipeline"}) {
    io::JsonValue doc = rep.to_json();
    io::JsonValue cells = io::JsonValue::array();
    io::JsonValue cell = doc.at("cells").at(0);
    cell.set(field, true);
    cells.push_back(std::move(cell));
    doc.set("cells", std::move(cells));
    expect_retired([&] { (void)SweepReport::from_json(doc); }, field);

    std::vector<std::string> lines = rep.to_csv_lines();
    lines.front() = lines.front() + "," + field;
    expect_retired([&] { (void)SweepReport::from_csv_lines(lines); }, field);
  }
}

TEST(SweepReport, ExplicitTileHeightCellsAreRejected) {
  // Reports from before the engine derived its row-blocks carry a
  // tile_rows field.  Cells recorded at auto (-1) still describe today's
  // routes and keep loading; an explicit height timed a block split the
  // engine no longer runs, so the report must be re-run.
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  const auto expect_rejected = [](const auto& parse) {
    try {
      parse();
      FAIL() << "an explicit tile height must be rejected";
    } catch (const TeaError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("tile_rows = 8"), std::string::npos) << msg;
      EXPECT_NE(msg.find("re-run the sweep"), std::string::npos) << msg;
    }
  };
  const auto json_with = [&](int tile_rows) {
    io::JsonValue doc = rep.to_json();
    io::JsonValue cells = io::JsonValue::array();
    io::JsonValue cell = doc.at("cells").at(0);
    cell.set("tile_rows", tile_rows);
    cells.push_back(std::move(cell));
    doc.set("cells", std::move(cells));
    return doc;
  };
  // The old CSV layout: a tile_rows column after threads.
  const auto csv_with = [&](const std::string& tile_rows) {
    std::vector<std::string> lines = rep.to_csv_lines();
    const auto insert_after_threads = [](std::string& line,
                                         const std::string& value) {
      std::size_t at = 0;
      for (int comma = 0; comma < 5; ++comma) at = line.find(',', at) + 1;
      line.insert(at, value + ",");
    };
    insert_after_threads(lines[0], "tile_rows");
    for (std::size_t i = 1; i < lines.size(); ++i) {
      insert_after_threads(lines[i], tile_rows);
    }
    return lines;
  };

  const SweepReport json_auto = SweepReport::from_json(json_with(-1));
  ASSERT_EQ(json_auto.cells.size(), 1u);
  EXPECT_EQ(json_auto.cells[0].config.label(), rep.cells[0].config.label());
  const SweepReport csv_auto = SweepReport::from_csv_lines(csv_with("-1"));
  ASSERT_EQ(csv_auto.cells.size(), rep.cells.size());
  EXPECT_EQ(csv_auto.cells[0].config.label(), rep.cells[0].config.label());
  EXPECT_EQ(csv_auto.cells[0].iterations, rep.cells[0].iterations);

  expect_rejected([&] { (void)SweepReport::from_json(json_with(8)); });
  expect_rejected([&] { (void)SweepReport::from_csv_lines(csv_with("8")); });
}

TEST(SweepBreakdown, BreakdownRowFailsWithoutAbortingTheSweep) {
  // A deck whose PPCG cells reliably break down (two presteps grossly
  // underestimate the spectrum; the odd-degree Chebyshev polynomial goes
  // negative beyond the estimated window → ⟨r, M⁻¹r⟩ <= 0).  The sweep
  // must record those rows as failed and still run the CG cells.
  InputDeck base = decks::crooked_pipe(32, 1);
  base.initial_timestep *= 1000.0;
  base.solver.eigen_cg_iters = 2;
  base.solver.inner_steps = 11;
  base.solver.eps = 1e-8;
  base.solver.max_iters = 20000;
  base.sweep.solvers = {"cg", "ppcg"};
  base.sweep.thread_counts = {1, 2};
  base.sweep.ranks = 2;

  const SweepReport rep = run_sweep(base);
  ASSERT_EQ(rep.cells.size(), 4u);
  int failed = 0, ok = 0;
  for (const SweepOutcome& c : rep.cells) {
    ASSERT_FALSE(c.skipped);
    if (c.config.solver == "ppcg") {
      EXPECT_FALSE(c.converged) << c.config.label();
      EXPECT_FALSE(c.fail_reason.empty()) << c.config.label();
      EXPECT_NE(c.fail_reason.find("breakdown"), std::string::npos);
      ++failed;
    } else {
      EXPECT_TRUE(c.converged) << c.config.label();
      EXPECT_TRUE(c.fail_reason.empty()) << c.config.label();
      ++ok;
    }
  }
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(ok, 2);

  // Failed rows are excluded from the ranking but present in the table;
  // the JSON form carries the reason, the CSV status says "failed".
  EXPECT_EQ(rep.ranking().size(), 2u);
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  EXPECT_EQ(json_back.cells[1].fail_reason, rep.cells[1].fail_reason);
  const std::vector<std::string> lines = rep.to_csv_lines();
  int failed_rows = 0;
  for (const std::string& line : lines) {
    if (line.find(",failed,") != std::string::npos) ++failed_rows;
  }
  EXPECT_EQ(failed_rows, 2);
}

TEST(SweepScalingBridge, SpeedupsComeFromScalingModelHelper) {
  EXPECT_EQ(relative_speedups({}).size(), 0u);
  const std::vector<double> s = relative_speedups({2.0, 1.0, 0.0, 4.0});
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0], 0.5);
  EXPECT_DOUBLE_EQ(s[1], 1.0);
  EXPECT_DOUBLE_EQ(s[2], 0.0);  // failed run
  EXPECT_DOUBLE_EQ(s[3], 0.25);

  const ScalingSeries series =
      measured_series("threads", {{1, 8.0}, {2, 4.0}, {4, 4.0}});
  const std::vector<double> eff = scaling_efficiency(series);
  ASSERT_EQ(eff.size(), 3u);
  EXPECT_DOUBLE_EQ(eff[0], 1.0);
  EXPECT_DOUBLE_EQ(eff[1], 1.0);
  EXPECT_DOUBLE_EQ(eff[2], 0.5);
}

// ---- geometry axis (2d | 3d) ---------------------------------------------

TEST(SweepGeometryAxis, EnumeratesInsideTheThreadAxis) {
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.thread_counts = {0, 2};
  spec.geometries = {2, 3};
  const std::vector<SweepCase> cases = enumerate_cases(spec, 16);
  ASSERT_EQ(cases.size(), 4u);
  ASSERT_EQ(spec.num_cases(), 4u);
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n16/t0/3d");
  EXPECT_EQ(cases[2].label(), "cg/none/d1/n16/t2");
  EXPECT_EQ(cases[3].label(), "cg/none/d1/n16/t2/3d");
  spec.geometries = {4};
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepGeometryAxis, RanksConverged2DAnd3DRowsAndRoundTrips) {
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "jacobi", "chebyshev", "ppcg", "mg-pcg"};
  spec.geometries = {2, 3};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 10u);

  // EVERY solver — the four natives AND the mg-pcg baseline — converges
  // in BOTH geometries now that the multigrid hierarchy is
  // dimension-generic; no cell of the cross-product is skipped.
  int converged_3d = 0;
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_FALSE(c.skipped) << c.config.label() << ": " << c.skip_reason;
    EXPECT_TRUE(c.converged) << c.config.label();
    EXPECT_TRUE(c.fail_reason.empty()) << c.config.label();
    if (c.config.dims == 3) ++converged_3d;
  }
  EXPECT_EQ(converged_3d, 5);  // one per solver, mg-pcg included

  // 3-D cells move more halo bytes than their 2-D siblings (face-area
  // payloads) and the ranking mixes both geometries.
  EXPECT_GT(rep.cells[1].message_bytes, rep.cells[0].message_bytes);
  bool ranked_3d = false;
  for (const int i : rep.ranking()) {
    if (rep.cells[i].config.dims == 3) ranked_3d = true;
  }
  EXPECT_TRUE(ranked_3d);

  // The geometry column survives both serialisation round trips.
  const std::vector<std::string> lines = rep.to_csv_lines();
  EXPECT_NE(lines.front().find(",geometry,"), std::string::npos);
  const SweepReport csv_back = SweepReport::from_csv_lines(lines);
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(csv_back.cells[i].config.dims, rep.cells[i].config.dims);
    EXPECT_EQ(json_back.cells[i].config.dims, rep.cells[i].config.dims);
    EXPECT_EQ(csv_back.cells[i].config.label(), rep.cells[i].config.label());
  }
}

TEST(SweepGeometryAxis, NoMgPcg3DCellIsEverSkipped) {
  // The last hole of the design-space matrix (ROADMAP "3-D mg-pcg"): the
  // mg-pcg × 3d cross-product contributes zero skipped cells across the
  // mesh axis, and each cell ranks as a converged row.
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"mg-pcg"};
  spec.mesh_sizes = {8, 12};
  spec.geometries = {3};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 2u);
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_FALSE(c.skipped) << c.config.label() << ": " << c.skip_reason;
    EXPECT_TRUE(c.converged) << c.config.label();
    EXPECT_GT(c.iterations, 0) << c.config.label();
  }
  EXPECT_EQ(rep.ranking().size(), 2u);
}

TEST(SweepGeometryAxis, SkipPlumbingStillFiresForInvalidCombos) {
  // Retiring the mg-pcg × 3d skip must not have loosened the genuinely
  // invalid combinations: an assembled operator on mg-pcg still
  // records a reasoned skip (in both geometries), as do its
  // preconditioner/depth contracts.
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"mg-pcg"};
  spec.operators = {"csr"};
  spec.geometries = {2, 3};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 2u);
  for (const SweepOutcome& c : rep.cells) {
    EXPECT_TRUE(c.skipped) << c.config.label();
    EXPECT_NE(c.skip_reason.find("no assembled-operator form"),
              std::string::npos)
        << c.skip_reason;
  }

  SweepSpec mg;
  mg.solvers = {"mg-pcg"};
  mg.precons = {PreconType::kJacobiDiag};
  mg.geometries = {3};
  mg.ranks = 2;
  const SweepReport rep2 = run_sweep(base, mg);
  ASSERT_EQ(rep2.cells.size(), 1u);
  EXPECT_TRUE(rep2.cells[0].skipped);
  EXPECT_NE(rep2.cells[0].skip_reason.find("embeds multigrid"),
            std::string::npos)
      << rep2.cells[0].skip_reason;
}

TEST(SweepGeometryAxis, SlabCellMatches2DIterationCounts) {
  // The cross-dimension consistency contract surfaces in the sweep too:
  // with z extents mirroring x, a 3-D hot-block cell is the extruded 2-D
  // problem, and its iteration counts track the 2-D cell's closely (the
  // solve is plane-wise identical up to the z coupling of the extruded
  // states' edges).  Exact equality is covered by test_geometry3d; here
  // we assert the sweep wiring produced a genuinely comparable problem.
  InputDeck base = decks::hot_block(12, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.geometries = {2, 3};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 2u);
  ASSERT_TRUE(rep.cells[0].converged);
  ASSERT_TRUE(rep.cells[1].converged);
  EXPECT_GT(rep.cells[1].iterations, 0);
  EXPECT_LT(std::abs(rep.cells[1].iterations - rep.cells[0].iterations),
            rep.cells[0].iterations);  // same order of magnitude
}


TEST(SweepPrecisionAxis, EnumeratesAsInnermostAxis) {
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.thread_counts = {0, 2};
  spec.precisions = {"double", "fp32", "mixed"};  // alias canonicalises
  const std::vector<SweepCase> cases = enumerate_cases(spec, 16);
  ASSERT_EQ(cases.size(), 6u);
  ASSERT_EQ(spec.num_cases(), 6u);
  // Precision is the innermost axis and its label suffix comes last.
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0");
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n16/t0/f32");
  EXPECT_EQ(cases[2].label(), "cg/none/d1/n16/t0/mixed");
  EXPECT_EQ(cases[3].label(), "cg/none/d1/n16/t2");
  EXPECT_EQ(cases[4].label(), "cg/none/d1/n16/t2/f32");
  EXPECT_EQ(cases[5].label(), "cg/none/d1/n16/t2/mixed");
  EXPECT_EQ(cases[1].precision, "single");  // canonical name, not the alias
  spec.precisions = {"half"};
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepPrecisionAxis, RanksConvergedCellsAndRoundTrips) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "mg-pcg"};
  spec.precisions = {"double", "mixed"};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 4u);

  // cg runs in both precisions and both converge to the deck's tl_eps;
  // the double and mixed rows agree on the physics (same operator, same
  // target) while taking their own iteration counts.
  EXPECT_FALSE(rep.cells[0].skipped);
  EXPECT_FALSE(rep.cells[1].skipped);
  EXPECT_TRUE(rep.cells[0].converged) << rep.cells[0].config.label();
  EXPECT_TRUE(rep.cells[1].converged) << rep.cells[1].config.label();
  EXPECT_EQ(rep.cells[1].config.label(), "cg/none/d1/n16/t0/mixed");

  // mg-pcg stays double-only: the mixed cell is a reasoned skip, the
  // double cell runs.
  EXPECT_FALSE(rep.cells[2].skipped);
  EXPECT_TRUE(rep.cells[3].skipped);
  EXPECT_NE(rep.cells[3].skip_reason.find("double-only"), std::string::npos);

  // The precision column survives both serialisation round trips.
  const std::vector<std::string> lines = rep.to_csv_lines();
  EXPECT_NE(lines.front().find(",precision,"), std::string::npos);
  const SweepReport csv_back = SweepReport::from_csv_lines(lines);
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(csv_back.cells[i].config.precision,
              rep.cells[i].config.precision);
    EXPECT_EQ(json_back.cells[i].config.precision,
              rep.cells[i].config.precision);
    EXPECT_EQ(csv_back.cells[i].config.label(), rep.cells[i].config.label());
  }
}

}  // namespace
}  // namespace tealeaf
