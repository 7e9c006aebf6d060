// The execution engine's contract: every native solve — whatever the
// thread count, rank count, geometry, operator form or precision — is
// bitwise identical to the serial reference solver in
// serial_reference.hpp: same iterates, iteration counts, recurrence
// scalars and CommStats.  Plus the row-block scheduler's primitives, the
// engine's deck diagnostics and the scaling model's blocked variant.

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
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

// ---- the team-derived row-blocks ----------------------------------------

TEST(TiledCluster, BlocksPerPlaneDeriveFromTheTeam) {
  // threads <= ranks: one block per rank (the owner-thread mapping).
  EXPECT_EQ(SimCluster::blocks_per_plane(1, 1), 1);
  EXPECT_EQ(SimCluster::blocks_per_plane(2, 4), 1);
  EXPECT_EQ(SimCluster::blocks_per_plane(4, 4), 1);
  EXPECT_EQ(SimCluster::blocks_per_plane(8, 12), 1);
  // threads > ranks: T / gcd(T, R) blocks, so R·blocks is a multiple of T.
  EXPECT_EQ(SimCluster::blocks_per_plane(2, 1), 2);
  EXPECT_EQ(SimCluster::blocks_per_plane(4, 2), 2);
  EXPECT_EQ(SimCluster::blocks_per_plane(3, 2), 3);
  EXPECT_EQ(SimCluster::blocks_per_plane(4, 3), 4);
  EXPECT_EQ(SimCluster::blocks_per_plane(6, 4), 3);
}

TEST(TiledCluster, BlocksCoverEveryRowOnceAndSplitEvenly) {
  // (threads, ranks, dims): threads <= ranks, and uneven and even splits
  // with threads > ranks, in both geometries.
  struct Shape {
    int threads, ranks, dims;
  };
  for (const Shape sh : {Shape{1, 1, 2}, Shape{2, 4, 2}, Shape{3, 2, 2},
                         Shape{4, 3, 2}, Shape{4, 2, 3}, Shape{3, 2, 3}}) {
    auto cl = sh.dims == 3 ? testing::make_test_problem_3d(8, sh.ranks, 2)
                           : make_test_problem(20, sh.ranks, 2);
    // hits[r][ρ]: times row ρ = l·ny + k of rank r was visited.
    std::vector<std::vector<int>> hits;
    for (int r = 0; r < cl->nranks(); ++r) {
      hits.emplace_back(static_cast<std::size_t>(cl->chunk(r).num_rows()), 0);
    }
    std::vector<int> tiles_of(static_cast<std::size_t>(sh.threads), 0);
    int team_size = 0;
    {
      ThreadScope scope(sh.threads);
      parallel_region([&](Team& t) {
        t.single([&] { team_size = t.num_threads(); });
        int mine = 0;
        cl->for_each_tile(
            t, [](int, Chunk& c) { return interior_bounds(c); },
            [&](int r, Chunk& c, const Bounds& tb) {
              ++mine;
              for (int l = tb.llo; l < tb.lhi; ++l) {
                for (int k = tb.klo; k < tb.khi; ++k) {
                  ++hits[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(l * c.ny() + k)];
                }
              }
            });
        tiles_of[static_cast<std::size_t>(t.thread_id())] = mine;
      });
    }
    const std::string where = "t" + std::to_string(sh.threads) + "_r" +
                              std::to_string(sh.ranks) + "_" +
                              std::to_string(sh.dims) + "d";
    for (const std::vector<int>& rank_hits : hits) {
      for (const int h : rank_hits) ASSERT_EQ(h, 1) << where;
    }
    if (team_size == sh.threads && sh.threads > sh.ranks) {
      for (const int n : tiles_of) EXPECT_EQ(n, tiles_of[0]) << where;
    }
  }
}

// ---- the engine against the serial reference (bitwise) -------------------

enum class Variant { kCG, kChrono, kJacobi, kChebyshev, kPPCG, kPPCGPowers };

/// One cell of the harness: a solver configuration × geometry × operator
/// × precision, run by the engine with one thread count on one rank
/// count.
struct Cell {
  Variant variant;
  PreconType precon;
  int dims;
  OperatorKind op;
  Precision precision;
  int threads;
  int ranks;
};

/// (threads, ranks): ranks equal to, above and below the thread count —
/// one block per rank when threads <= ranks, T / gcd(T, R) blocks per
/// rank otherwise, including the uneven splits 3-on-2 and 4-on-3.
constexpr std::pair<int, int> kTeams[] = {{1, 1}, {1, 2}, {2, 1}, {2, 4},
                                          {4, 2}, {4, 8}, {3, 2}, {4, 3}};
constexpr std::size_t kNumTeams = std::size(kTeams);
constexpr Precision kPrecisions[] = {Precision::kDouble, Precision::kSingle,
                                     Precision::kMixed};

SolverConfig config_of(const Cell& c) {
  SolverConfig cfg;
  cfg.precon = c.precon;
  cfg.op = c.op;
  cfg.precision = c.precision;
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
/// precision and (threads, ranks) rotate through their values cell by
/// cell, so every value of each meets many solvers and every team shape
/// meets both geometries.
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
          const auto [threads, ranks] = kTeams[i % kNumTeams];
          const Cell c{v, precon, dims, op, kPrecisions[i % 3], threads,
                       ranks};
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
                     "_" + to_string(c.precision) + "_t" +
                     std::to_string(c.threads) + "_r" +
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
  std::set<std::pair<int, int>> variant_precision;
  std::set<std::pair<int, int>> teams;
  std::set<std::tuple<int, int, int>> team_dims;
  for (const Cell& c : cells) {
    variant_precision.insert(
        {static_cast<int>(c.variant), static_cast<int>(c.precision)});
    teams.insert({c.threads, c.ranks});
    team_dims.insert({c.threads, c.ranks, c.dims});
  }
  EXPECT_EQ(variant_precision.size(), 6u * 3u);
  EXPECT_EQ(teams.size(), kNumTeams);
  EXPECT_EQ(team_dims.size(), kNumTeams * 2u);
}

TEST(EngineVsReference, CGRecurrenceScalarsBitwiseIdentical) {
  // rro and every (α, β) of the classic recurrence — the scalars that
  // steer the whole solve and feed the eigenvalue estimates — per
  // iteration, against the reference, across preconditioners, geometries,
  // operators and team shapes.
  int i = 0;
  for (const PreconType precon : {PreconType::kNone, PreconType::kJacobiDiag,
                                  PreconType::kJacobiBlock}) {
    for (const int dims : {2, 3}) {
      for (const OperatorKind op :
           {OperatorKind::kStencil, OperatorKind::kCsr,
            OperatorKind::kSellCSigma}) {
        const auto [threads, ranks] = kTeams[i++ % kNumTeams];
        const Cell c{Variant::kCG, precon, dims, op, Precision::kDouble,
                     threads, ranks};
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
        {
          ThreadScope scope(threads);
          parallel_region([&](Team& t) {
            std::vector<double> mine_rr;
            CGRecurrence mine;
            bool broke = false;
            double e = cg_setup(*eng, precon, t);
            mine_rr.push_back(e);
            for (int it = 0; it < kIters; ++it) {
              e = cg_iteration(*eng, precon, e, &mine, broke, t);
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

// ---- deck knobs and diagnostics ------------------------------------------

TEST(DeckKnobs, MistypedKnobFailsWithSuggestion) {
  try {
    InputDeck::parse_string(
        "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
        "tl_halo_dept=2\nstate 1 density=1 energy=1\n*endtea\n");
    FAIL() << "typo must not be silently ignored";
  } catch (const TeaError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'tl_halo_dept'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("did you mean 'tl_halo_depth'"), std::string::npos)
        << msg;
  }
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "sweep_thread=1\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
}

TEST(DeckKnobs, KnobOutsideTeaBlockIsRejected) {
  EXPECT_THROW(InputDeck::parse_string(
                   "tl_halo_depth=2\n*tea\nx_cells=8\ny_cells=8\n"
                   "end_step=1\nstate 1 density=1 energy=1\n*endtea\n"),
               TeaError);
  // A knob trailing the *endtea line must be rejected too, not dropped.
  EXPECT_THROW(InputDeck::parse_string(
                   "*tea\nx_cells=8\ny_cells=8\nend_step=1\n"
                   "state 1 density=1 energy=1\n*endtea\n"
                   "tl_halo_depth=2\n"),
               TeaError);
}

TEST(DeckKnobs, BooleanFlagsAcceptExplicitValues) {
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

TEST(TiledModel, BlockedVariantAppliesWhenOneRowFitsL2) {
  // The engine's fused sweeps keep their intermediate field in L2 while
  // one halo-extended row of the working set fits there: the model then
  // prices the blocked bytes/cell variant.
  SolverConfig cfg;
  cfg.type = SolverType::kJacobi;
  SolveStats stats;
  stats.outer_iters = 200;
  SolverRunSummary run = SolverRunSummary::from(cfg, stats, 1024);
  const GlobalMesh2D mesh(1024, 1024);
  const auto seconds_at_l2 = [&](double l2_kb, Precision precision) {
    MachineSpec m = machines::spruce_hybrid();
    m.l2_kb = l2_kb;
    run.precision = precision;
    return ScalingModel(m, mesh, 1).run_seconds(run, 1);
  };
  // One row: (1024 + 4) cells × 6 fields × 8 B ≈ 48 KiB.
  const double streaming = seconds_at_l2(0.0, Precision::kDouble);
  EXPECT_LT(seconds_at_l2(256.0, Precision::kDouble), streaming);
  EXPECT_EQ(seconds_at_l2(32.0, Precision::kDouble), streaming);
  // fp32 rows are half the bytes, so they fit where fp64 rows do not.
  EXPECT_LT(seconds_at_l2(32.0, Precision::kSingle),
            seconds_at_l2(0.0, Precision::kSingle));
}

}  // namespace
}  // namespace tealeaf
