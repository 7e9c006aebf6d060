// The execution engine's contract: every native solve — whatever the
// row-block height, thread count, rank count, geometry, operator form or
// precision — is bitwise identical to the serial reference solver in
// serial_reference.hpp: same iterates, iteration counts, recurrence
// scalars and CommStats.  Plus the tile scheduler's primitives, the auto
// tile height, and the tile axis of the deck, sweep and scaling model.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "driver/decks.hpp"
#include "driver/deck.hpp"
#include "driver/sweep.hpp"
#include "driver/tealeaf_app.hpp"
#include "model/machine.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"
#include "ops/kernels.hpp"
#include "serial_reference.hpp"
#include "solvers/cg.hpp"
#include "solvers/solver.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

#if defined(TEALEAF_HAVE_OPENMP)
#include <omp.h>
#endif

namespace tealeaf {
namespace {

using testing::make_test_problem;
using testing::max_field_diff;

// ---- Team::for_range_2d (the tile scheduler) -----------------------------

TEST(TeamForRange2D, CoversEveryPairExactlyOnce) {
  const std::vector<std::int64_t> counts = {3, 0, 5, 1, 4};
  std::vector<std::vector<int>> hits;
  for (const std::int64_t n : counts) {
    hits.emplace_back(static_cast<std::size_t>(n), 0);
  }
  parallel_region([&](Team& t) {
    t.for_range_2d(
        static_cast<std::int64_t>(counts.size()),
        [&](std::int64_t o) { return counts[static_cast<std::size_t>(o)]; },
        [&](std::int64_t o, std::int64_t i) {
          ++hits[static_cast<std::size_t>(o)][static_cast<std::size_t>(i)];
        });
  });
  for (std::size_t o = 0; o < counts.size(); ++o) {
    for (std::size_t i = 0; i < hits[o].size(); ++i) {
      ASSERT_EQ(hits[o][i], 1) << "pair (" << o << ", " << i << ")";
    }
  }
}

TEST(TeamForRange2D, HandlesEmptyAndTinyIterationSpaces) {
  int runs = 0;
  parallel_region([&](Team& t) {
    t.for_range_2d(3, [](std::int64_t) { return 0; },
                   [&](std::int64_t, std::int64_t) { ++runs; });
    // Fewer pairs than threads: each pair still runs exactly once.
    t.for_range_2d(1, [](std::int64_t) { return 1; },
                   [&](std::int64_t, std::int64_t) {
#if defined(TEALEAF_HAVE_OPENMP)
#pragma omp atomic
#endif
                     ++runs;
                   });
  });
  EXPECT_EQ(runs, 1);
}

TEST(TiledCluster, NumRowTilesEdgeCases) {
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 0), 1);   // untiled
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 16), 1);  // tile == rows
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 100), 1); // tile > rows
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 1), 16);  // one-row tiles
  EXPECT_EQ(SimCluster2D::num_row_tiles(16, 5), 4);   // non-dividing
  EXPECT_EQ(SimCluster2D::num_row_tiles(0, 4), 0);    // empty range
}

// ---- the engine against the serial reference (bitwise) -------------------

/// RAII thread-count override for one engine run.
class ThreadScope {
 public:
  explicit ThreadScope(int threads) {
#if defined(TEALEAF_HAVE_OPENMP)
    saved_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
  }
  ~ThreadScope() {
#if defined(TEALEAF_HAVE_OPENMP)
    omp_set_num_threads(saved_);
#endif
  }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_ = 1;
};

enum class Variant { kCG, kChrono, kJacobi, kChebyshev, kPPCG, kPPCGPowers };

/// One cell of the harness: a solver configuration × geometry × operator
/// × precision, run by the engine at one tile height and thread count on
/// one rank count.
struct Cell {
  Variant variant;
  PreconType precon;
  int dims;
  OperatorKind op;
  Precision precision;
  int tile_rows;
  int threads;
  int ranks;
};

/// Tile heights: one block per rank, one-row blocks, a non-dividing
/// height, auto, and taller than any chunk.
constexpr int kTiles[] = {0, 1, 5, -1, 1000};
/// (threads, ranks): ranks equal to, above and below the thread count.
constexpr std::pair<int, int> kTeams[] = {{1, 1}, {1, 2}, {2, 1},
                                          {2, 4}, {4, 2}, {4, 8}};
constexpr Precision kPrecisions[] = {Precision::kDouble, Precision::kSingle,
                                     Precision::kMixed};

SolverConfig config_of(const Cell& c) {
  SolverConfig cfg;
  cfg.precon = c.precon;
  cfg.op = c.op;
  cfg.precision = c.precision;
  cfg.tile_rows = c.tile_rows;
  cfg.eps = 1e-8;
  cfg.max_iters = 300;
  cfg.eigen_cg_iters = 8;
  cfg.inner_steps = 5;
  switch (c.variant) {
    case Variant::kCG: cfg.type = SolverType::kCG; break;
    case Variant::kChrono:
      cfg.type = SolverType::kCG;
      cfg.fuse_cg_reductions = true;
      break;
    case Variant::kJacobi:
      cfg.type = SolverType::kJacobi;
      cfg.eps = 1e-4;
      cfg.max_iters = 400;
      break;
    case Variant::kChebyshev: cfg.type = SolverType::kChebyshev; break;
    case Variant::kPPCG: cfg.type = SolverType::kPPCG; break;
    case Variant::kPPCGPowers:
      cfg.type = SolverType::kPPCG;
      cfg.halo_depth = 3;
      break;
  }
  return cfg;
}

/// Every valid solver × preconditioner × geometry × operator combination;
/// precision and tile height rotate through their values cell by cell,
/// and (threads, ranks) once per run of five cells, so every value of
/// each meets many solvers and every tile height meets every team shape.
std::vector<Cell> engine_cells() {
  std::vector<Cell> cells;
  int i = 0;
  for (const Variant v :
       {Variant::kCG, Variant::kChrono, Variant::kJacobi,
        Variant::kChebyshev, Variant::kPPCG, Variant::kPPCGPowers}) {
    for (const PreconType precon :
         {PreconType::kNone, PreconType::kJacobiDiag,
          PreconType::kJacobiBlock}) {
      for (const int dims : {2, 3}) {
        for (const OperatorKind op :
             {OperatorKind::kStencil, OperatorKind::kCsr,
              OperatorKind::kSellCSigma}) {
          const auto [threads, ranks] = kTeams[(i / 5) % 6];
          const Cell c{v, precon, dims, op, kPrecisions[i % 3], kTiles[i % 5],
                       threads, ranks};
          try {
            (void)config_of(c).validated();
          } catch (const TeaError&) {
            continue;  // a combination the solver contract rejects
          }
          cells.push_back(c);
          ++i;
        }
      }
    }
  }
  return cells;
}

std::string cell_name(const Cell& c) {
  static const char* const kVariants[] = {"cg",        "chrono", "jacobi",
                                          "chebyshev", "ppcg",   "ppcg_d3"};
  std::string name = std::string(kVariants[static_cast<int>(c.variant)]) +
                     "_" + to_string(c.precon) + "_" +
                     std::to_string(c.dims) + "d_" +
                     (c.op == OperatorKind::kSellCSigma ? "sell"
                                                        : to_string(c.op)) +
                     "_" + to_string(c.precision) + "_b" +
                     (c.tile_rows < 0 ? std::string("auto")
                                      : std::to_string(c.tile_rows)) +
                     "_t" + std::to_string(c.threads) + "_r" +
                     std::to_string(c.ranks);
  return name;
}

void PrintTo(const Cell& c, std::ostream* os) { *os << cell_name(c); }

std::unique_ptr<SimCluster> make_problem(const Cell& c) {
  auto cl = c.dims == 3 ? testing::make_test_problem_3d(8, c.ranks, 3, 4.0)
                        : make_test_problem(20, c.ranks, 3, 6.0);
  testing::install_operator(*cl, c.op);
  return cl;
}

class EngineVsReference : public ::testing::TestWithParam<Cell> {};

TEST_P(EngineVsReference, BitwiseIdentical) {
  const Cell c = GetParam();
  const SolverConfig cfg = config_of(c);
  auto ref = make_problem(c);
  auto eng = make_problem(c);
  const SolveStats rs = testing::reference::run(*ref, cfg);
  SolveStats es;
  {
    ThreadScope threads(c.threads);
    es = run_solver(*eng, cfg);
  }
  ASSERT_GT(rs.spmv_applies, 1);  // the cell did real work
  EXPECT_EQ(es.converged, rs.converged);
  EXPECT_EQ(es.breakdown, rs.breakdown);
  EXPECT_EQ(es.outer_iters, rs.outer_iters);
  EXPECT_EQ(es.inner_steps, rs.inner_steps);
  EXPECT_EQ(es.spmv_applies, rs.spmv_applies);
  EXPECT_EQ(es.eigen_cg_iters, rs.eigen_cg_iters);
  EXPECT_EQ(es.refine_steps, rs.refine_steps);
  EXPECT_EQ(es.eigmin, rs.eigmin);
  EXPECT_EQ(es.eigmax, rs.eigmax);
  EXPECT_EQ(es.initial_norm, rs.initial_norm);
  EXPECT_EQ(es.final_norm, rs.final_norm);
  EXPECT_EQ(max_field_diff(*ref, *eng, FieldId::kU), 0.0);
  // The schedule never changes the data motion.
  EXPECT_EQ(eng->stats().exchange_calls, ref->stats().exchange_calls);
  EXPECT_EQ(eng->stats().messages, ref->stats().messages);
  EXPECT_EQ(eng->stats().message_bytes, ref->stats().message_bytes);
  EXPECT_EQ(eng->stats().reductions, ref->stats().reductions);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolversPreconsGeometriesOperators, EngineVsReference,
    ::testing::ValuesIn(engine_cells()),
    [](const auto& info) { return cell_name(info.param); });

TEST(EngineVsReference, CellsCoverEveryAxisValue) {
  const std::vector<Cell> cells = engine_cells();
  std::set<std::pair<int, int>> tile_threads;
  std::set<std::pair<int, int>> variant_precision;
  std::set<std::pair<int, int>> teams;
  for (const Cell& c : cells) {
    tile_threads.insert({c.tile_rows, c.threads});
    variant_precision.insert(
        {static_cast<int>(c.variant), static_cast<int>(c.precision)});
    teams.insert({c.threads, c.ranks});
  }
  EXPECT_EQ(tile_threads.size(), 5u * 3u);
  EXPECT_EQ(variant_precision.size(), 6u * 3u);
  EXPECT_EQ(teams.size(), std::size(kTeams));
}

TEST(EngineVsReference, CGRecurrenceScalarsBitwiseIdentical) {
  // rro and every (α, β) of the classic recurrence — the scalars that
  // steer the whole solve and feed the eigenvalue estimates — per
  // iteration, against the reference, across preconditioners, geometries,
  // operators, tile heights and team shapes.
  int i = 0;
  for (const PreconType precon : {PreconType::kNone, PreconType::kJacobiDiag,
                                  PreconType::kJacobiBlock}) {
    for (const int dims : {2, 3}) {
      for (const OperatorKind op :
           {OperatorKind::kStencil, OperatorKind::kCsr,
            OperatorKind::kSellCSigma}) {
        const auto [threads, ranks] = kTeams[i % 6];
        const Cell c{Variant::kCG, precon, dims, op, Precision::kDouble,
                     kTiles[i++ % 5], threads, ranks};
        auto ref = make_problem(c);
        auto eng = make_problem(c);
        constexpr int kIters = 8;
        std::vector<double> ref_rr;
        CGRecurrence ref_rec;
        double rr = testing::reference::cg_setup(*ref, precon);
        ref_rr.push_back(rr);
        for (int it = 0; it < kIters; ++it) {
          bool broke = false;
          rr = testing::reference::cg_iteration(*ref, precon, rr, &ref_rec,
                                                broke);
          ASSERT_FALSE(broke);
          ref_rr.push_back(rr);
        }
        std::vector<double> eng_rr;
        CGRecurrence eng_rec;
        const int tile =
            c.tile_rows < 0 ? auto_tile_rows(machines::spruce_hybrid(),
                                             eng->chunk(0).nx(),
                                             eng->halo_depth())
                            : c.tile_rows;
        {
          ThreadScope scope(threads);
          parallel_region([&](Team& t) {
            std::vector<double> mine_rr;
            CGRecurrence mine;
            bool broke = false;
            double e = cg_setup(*eng, precon, t);
            mine_rr.push_back(e);
            for (int it = 0; it < kIters; ++it) {
              e = cg_iteration(*eng, precon, tile, e, &mine, broke, t);
              mine_rr.push_back(e);
            }
            t.single([&] {
              eng_rr = mine_rr;
              eng_rec = mine;
            });
          });
        }
        const std::string where = cell_name(c);
        EXPECT_EQ(eng_rr, ref_rr) << where;
        EXPECT_EQ(eng_rec.alphas, ref_rec.alphas) << where;
        EXPECT_EQ(eng_rec.betas, ref_rec.betas) << where;
        EXPECT_EQ(eng->stats().reductions, ref->stats().reductions) << where;
        EXPECT_EQ(max_field_diff(*ref, *eng, FieldId::kP), 0.0) << where;
      }
    }
  }
}

// ---- auto tile derivation ------------------------------------------------

TEST(AutoTile, DerivesFromMachineL2AndFallsBack) {
  const MachineSpec spruce = machines::spruce_hybrid();
  ASSERT_GT(spruce.l2_kb, 0.0);
  const int rows = auto_tile_rows(spruce, 512, 2);
  EXPECT_GE(rows, 1);
  // Half of 256 KB over 6 fields × 8 B × (512+4) cells ≈ 5 rows.
  EXPECT_LT(rows, 64);
  // Narrower chunks fit more rows per block.
  EXPECT_GT(auto_tile_rows(spruce, 64, 2), rows);
  // No modelled L2: the documented 64-row fallback.
  MachineSpec no_l2 = spruce;
  no_l2.l2_kb = 0.0;
  EXPECT_EQ(auto_tile_rows(no_l2, 512, 2), 64);
}

// ---- iteration cap ------------------------------------------------------

TEST(JacobiCap, MaxItersStopsExactly) {
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.eps = 1e-14;
  cfg.max_iters = 21;
  auto cl = make_test_problem(24, 2, 2, 4.0);
  const SolveStats st = run_solver(*cl, cfg);
  EXPECT_FALSE(st.converged);
  EXPECT_EQ(st.outer_iters, 21);
}

// ---- sweep tile axis ----------------------------------------------------

TEST(SweepTileAxis, EnumeratesTileHeightsWithLabels) {
  SweepSpec spec;
  spec.solvers = {"cg"};
  spec.tile_rows = {-1, 0, 8};
  const std::vector<SweepCase> cases = enumerate_cases(spec, 16);
  ASSERT_EQ(cases.size(), 3u);
  ASSERT_EQ(spec.num_cases(), 3u);
  EXPECT_EQ(cases[0].label(), "cg/none/d1/n16/t0");  // auto: no suffix
  EXPECT_EQ(cases[1].label(), "cg/none/d1/n16/t0/b0");
  EXPECT_EQ(cases[2].label(), "cg/none/d1/n16/t0/b8");
  spec.tile_rows = {-2};
  EXPECT_THROW(spec.validate(), TeaError);
}

TEST(SweepTileAxis, TiledCellsMatchAndRoundTrip) {
  InputDeck base = decks::hot_block(16, 1);
  base.solver.eps = 1e-8;
  SweepSpec spec;
  spec.solvers = {"cg", "mg-pcg"};
  spec.tile_rows = {-1, 0, 4};
  spec.ranks = 2;
  const SweepReport rep = run_sweep(base, spec);
  ASSERT_EQ(rep.cells.size(), 6u);

  // cg: every tile height runs and solves bitwise alike.
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(rep.cells[i].skipped) << i;
    EXPECT_TRUE(rep.cells[i].converged) << i;
    EXPECT_EQ(rep.cells[i].iterations, rep.cells[0].iterations) << i;
    EXPECT_EQ(rep.cells[i].final_norm, rep.cells[0].final_norm) << i;
    EXPECT_EQ(rep.cells[i].message_bytes, rep.cells[0].message_bytes) << i;
  }
  EXPECT_EQ(rep.cells[2].config.tile_rows, 4);

  // mg-pcg: auto and one-block run; an explicit height is skipped.
  EXPECT_FALSE(rep.cells[3].skipped);
  EXPECT_FALSE(rep.cells[4].skipped);
  EXPECT_TRUE(rep.cells[5].skipped);
  EXPECT_EQ(rep.cells[4].iterations, rep.cells[3].iterations);

  // The tile column survives both serialisation round trips.
  const SweepReport csv_back = SweepReport::from_csv_lines(rep.to_csv_lines());
  const SweepReport json_back =
      SweepReport::from_json_string(rep.to_json().dump(2));
  for (std::size_t i = 0; i < rep.cells.size(); ++i) {
    EXPECT_EQ(csv_back.cells[i].config.tile_rows,
              rep.cells[i].config.tile_rows);
    EXPECT_EQ(json_back.cells[i].config.tile_rows,
              rep.cells[i].config.tile_rows);
    EXPECT_EQ(csv_back.cells[i].config.label(), rep.cells[i].config.label());
  }
}

// ---- deck knobs and diagnostics ------------------------------------------

TEST(TileDeck, TileRowsKnobParsesAndRoundTrips) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "tl_tile_rows=24\n"
      "sweep_solvers=cg\nsweep_tile_rows=0,16,64\n"
      "state 1 density=1.0 energy=1.0\n*endtea\n");
  EXPECT_EQ(deck.solver.tile_rows, 24);
  EXPECT_EQ(deck.sweep.tile_rows, (std::vector<int>{0, 16, 64}));
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.solver.tile_rows, 24);
  EXPECT_EQ(back.sweep.tile_rows, deck.sweep.tile_rows);
}

TEST(TileDeck, AutoTileRowsIsTheDefaultAndRoundTrips) {
  const InputDeck deck = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "tl_tile_rows=auto\nstate 1 density=1.0 energy=1.0\n*endtea\n");
  EXPECT_EQ(deck.solver.tile_rows, -1);
  EXPECT_EQ(SolverConfig{}.tile_rows, -1);
  const InputDeck back = InputDeck::parse_string(deck.to_string());
  EXPECT_EQ(back.solver.tile_rows, -1);
  const InputDeck one_block = InputDeck::parse_string(
      "*tea\nx_cells=16\ny_cells=16\nend_step=1\n"
      "tl_tile_rows=0\nstate 1 density=1.0 energy=1.0\n*endtea\n");
  EXPECT_EQ(InputDeck::parse_string(one_block.to_string()).solver.tile_rows,
            0);
}

TEST(TileDeck, MistypedKnobFailsWithSuggestion) {
  try {
    InputDeck::parse_string(
        "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
        "tl_tile_row=16\nstate 1 density=1 energy=1\n*endtea\n");
    FAIL() << "typo must not be silently ignored";
  } catch (const TeaError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'tl_tile_row'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("did you mean 'tl_tile_rows'"), std::string::npos)
        << msg;
  }
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "sweep_tile_row=1\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
}

TEST(TileDeck, KnobOutsideTeaBlockIsRejected) {
  EXPECT_THROW(InputDeck::parse_string(
                   "tl_tile_rows=16\n*tea\nx_cells=8\ny_cells=8\n"
                   "end_step=1\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  // A knob trailing the *endtea line must be rejected too, not dropped.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "state 1 density=1 energy=1\n*endtea\n"
                   "tl_tile_rows=16\n"),
               TeaError);
}

TEST(TileDeck, BooleanFlagsAcceptExplicitValues) {
  const InputDeck off = InputDeck::parse_string(
      "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
      "tl_cg_fuse_reductions=0\nstate 1 density=1 energy=1\n*endtea\n");
  EXPECT_FALSE(off.solver.fuse_cg_reductions);
  const InputDeck on = InputDeck::parse_string(
      "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
      "tl_cg_fuse_reductions=true\nstate 1 density=1 energy=1\n*endtea\n");
  EXPECT_TRUE(on.solver.fuse_cg_reductions);
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "tl_cg_fuse_reductions=maybe\nstate 1 density=1 "
                   "energy=1\n*endtea\n"),
               TeaError);
}

// ---- scaling model: blocked-cache variant --------------------------------

TEST(TiledModel, BlockedBytesVariantSpeedsUpCacheFittingTiles) {
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.tile_rows = 0;  // one block per rank: streams like an untiled sweep
  SolveStats stats;
  stats.outer_iters = 200;
  SolverRunSummary run = SolverRunSummary::from(cfg, stats, 1024);
  const GlobalMesh2D mesh(1024, 1024);
  const ScalingModel model(machines::spruce_hybrid(), mesh, 1);

  const double untiled = model.run_seconds(run, 1);
  run.tile_rows = 4;  // 4 rows × 1024 cells × 6 fields × 8 B ≈ 192 KB < L2
  const double tiled_fit = model.run_seconds(run, 1);
  run.tile_rows = 4096;  // taller than L2: streaming bytes again
  const double tiled_spill = model.run_seconds(run, 1);

  EXPECT_LT(tiled_fit, untiled);
  EXPECT_EQ(tiled_spill, untiled);

  // A machine with no modelled L2 never takes the blocked variant.
  MachineSpec no_l2 = machines::spruce_hybrid();
  no_l2.l2_kb = 0.0;
  const ScalingModel flat(no_l2, mesh, 1);
  run.tile_rows = 4;
  EXPECT_EQ(flat.run_seconds(run, 1), flat.run_seconds([&] {
    SolverRunSummary u = run;
    u.tile_rows = 0;
    return u;
  }(), 1));
}

TEST(TiledModel, SummaryRecordsTileHeightAndResolvesAuto) {
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  cfg.tile_rows = 128;
  SolveStats stats;
  stats.outer_iters = 100;
  EXPECT_EQ(SolverRunSummary::from(cfg, stats, 256).tile_rows, 128);

  // `auto` stays symbolic in the summary and resolves inside the model
  // against the modelled chunk width, like the real engine does.
  cfg.tile_rows = -1;
  SolverRunSummary run = SolverRunSummary::from(cfg, stats, 1024);
  EXPECT_EQ(run.tile_rows, -1);
  const GlobalMesh2D mesh(1024, 1024);
  const ScalingModel model(machines::spruce_hybrid(), mesh, 1);
  SolverRunSummary untiled = run;
  untiled.tile_rows = 0;
  // spruce L2 fits the auto-derived block → the blocked variant applies.
  EXPECT_LT(model.run_seconds(run, 1), model.run_seconds(untiled, 1));
}

}  // namespace
}  // namespace tealeaf
