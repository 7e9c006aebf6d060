// The paper's purpose, as one command: sweep the solver design space
// (solver × preconditioner × matrix-powers depth × mesh size × threads ×
// geometry × operator × precision) over a deck and emit a ranked result
// table as CSV + JSON.
//
// Run:  ./examples/design_space_sweep [--mesh 48] [--ranks 4] [--steps 1]
//           [--solvers cg,ppcg,chebyshev,mg-pcg] [--precons none,jac_diag]
//           [--depths 1,4] [--meshes 32,48] [--threads 0] [--geometry 2d,3d]
//           [--operators stencil,csr,sell-c-sigma]
//           [--precisions double,single,mixed] [--deck path/to/tea.in]
//           [--csv out.csv] [--json out.json] [--route-db route_db.json]
//
// --route-db additionally emits a RouteDatabase seed: every converged
// cell becomes one observation priming a solve server's online routing
// statistics (the nightly sweep uploads these as artifacts).
//
// A deck passed via --deck that carries its own sweep_* section overrides
// the axis flags — sweeps are declarative deck content first.

#include <cstdio>
#include <fstream>

#include "util/error.hpp"

#include "driver/decks.hpp"
#include "driver/sweep.hpp"
#include "model/scaling.hpp"
#include "server/routing.hpp"
#include "util/args.hpp"

namespace {

using namespace tealeaf;

int run(const Args& args);

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  try {
    return run(args);
  } catch (const TeaError& e) {
    std::fprintf(stderr, "sweep error: %s\n", e.what());
    return 1;
  }
}

namespace {

int run(const Args& args) {
  args.reject_retired({"fused", "pipeline", "tiles"});

  InputDeck base;
  const std::string deck_path = args.get("deck", "");
  if (!deck_path.empty()) {
    std::ifstream in(deck_path);
    if (!in.is_open()) {
      std::fprintf(stderr, "cannot open deck: %s\n", deck_path.c_str());
      return 1;
    }
    base = InputDeck::parse(in);
  } else {
    base = decks::layered_material(args.get_int("mesh", 48), 1);
    base.solver.eps = 1e-8;
  }

  SweepSpec spec = base.sweep;
  if (!spec.requested()) {
    spec.solvers = split_list(
        args.get("solvers", "cg,ppcg,chebyshev,mg-pcg"), "--solvers");
    spec.precons.clear();
    for (const std::string& p :
         split_list(args.get("precons", "none,jac_diag"), "--precons")) {
      spec.precons.push_back(precon_type_from_string(p));
    }
    spec.halo_depths = split_int_list(args.get("depths", "1,4"), "--depths");
    spec.mesh_sizes = split_int_list(
        args.get("meshes", std::to_string(base.x_cells) + ",32"), "--meshes");
    spec.thread_counts = split_int_list(args.get("threads", "0"),
                                        "--threads");
    spec.geometries.clear();  // empty = inherit the deck's geometry
    if (args.has("geometry")) {
      for (const std::string& g :
           split_list(args.get("geometry", "2d"), "--geometry")) {
        if (g == "2d") {
          spec.geometries.push_back(2);
        } else if (g == "3d") {
          spec.geometries.push_back(3);
        } else {
          throw TeaError("--geometry entries must be '2d' or '3d', got '" +
                         g + "'");
        }
      }
    }
    spec.operators = split_list(args.get("operators", "stencil"),
                                "--operators");
    spec.precisions = split_list(args.get("precisions", "double"),
                                 "--precisions");
    spec.ranks = args.get_int("ranks", 4);
  }

  spec.validate();  // reject bad axes before any output

  SweepOptions opts;
  opts.steps = args.get_int("steps", 1);
  opts.echo = true;

  std::printf("design-space sweep: %zu cells (%zu solvers x %zu precons x "
              "%zu depths x %zu meshes x %zu thread counts x "
              "%zu geometries x %zu operators x %zu precisions), "
              "%d ranks\n\n",
              spec.num_cases(), spec.solvers.size(), spec.precons.size(),
              spec.halo_depths.size(),
              spec.mesh_sizes.empty() ? 1 : spec.mesh_sizes.size(),
              spec.thread_counts.size(),
              spec.geometries.empty() ? 1 : spec.geometries.size(),
              spec.operators.size(),
              spec.precisions.empty() ? 1 : spec.precisions.size(),
              spec.ranks);

  const SweepReport report = run_sweep(base, spec, opts);

  const std::string csv_path = args.get("csv", "design_space_sweep.csv");
  const std::string json_path = args.get("json", "design_space_sweep.json");
  report.write_csv(csv_path);
  report.write_json(json_path);

  // Ranked summary: converged cells fastest-first.
  const std::vector<int> order = report.ranking();
  const std::vector<double> speedup = report.speedups();
  std::printf("\n%-4s %-28s %8s %12s %12s %10s %8s\n", "rank", "config",
              "iters", "final_norm", "seconds", "comm_s", "speedup");
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const SweepOutcome& c = report.cells[order[pos]];
    std::printf("%-4zu %-28s %8d %12.3e %12.6f %10.6f %8.3f\n", pos + 1,
                c.config.label().c_str(), c.iterations, c.final_norm,
                c.solve_seconds, c.comm_seconds, speedup[order[pos]]);
  }

  int skipped = 0, failed = 0;
  for (const SweepOutcome& c : report.cells) {
    skipped += c.skipped ? 1 : 0;
    failed += (!c.skipped && !c.converged) ? 1 : 0;
  }
  std::printf("\n%zu cells: %zu converged, %d failed, %d skipped "
              "(invalid combinations)\n",
              report.cells.size(), order.size(), failed, skipped);

  const int best = report.best();
  if (best < 0) {
    std::printf("no configuration converged\n");
    return 1;
  }
  std::printf("best configuration: %s (%d iterations, %.6f s)\n",
              report.cells[best].config.label().c_str(),
              report.cells[best].iterations,
              report.cells[best].solve_seconds);

  // If the sweep carried a thread axis, report measured strong-scaling
  // efficiency of the best (solver, precon, depth, mesh) point over it.
  if (spec.thread_counts.size() > 1) {
    const SweepCase& bc = report.cells[best].config;
    std::vector<ScalingPoint> points;
    for (const SweepOutcome& c : report.cells) {
      if (c.skipped || !c.converged) continue;
      if (c.config.solver == bc.solver && c.config.precon == bc.precon &&
          c.config.halo_depth == bc.halo_depth &&
          c.config.mesh_n == bc.mesh_n) {
        points.push_back({std::max(1, c.config.threads), c.solve_seconds});
      }
    }
    const ScalingSeries series =
        measured_series(bc.solver + " thread scaling", points);
    const std::vector<double> eff = scaling_efficiency(series);
    std::printf("\nthread scaling of the best configuration:\n");
    for (std::size_t i = 0; i < series.points.size(); ++i) {
      std::printf("  %3d threads  %10.6f s  eff %.2f\n",
                  series.points[i].nodes, series.points[i].seconds, eff[i]);
    }
  }

  std::printf("\nwrote %s and %s\n", csv_path.c_str(), json_path.c_str());

  // Seed database for the solve server's online refinement: each
  // converged cell primes its (shape, route) statistic with one
  // observation at the measured seconds.
  const std::string db_path = args.get("route-db", "");
  if (!db_path.empty()) {
    const RouteDatabase seed =
        RoutingTable::from_sweep(report).seed_database();
    seed.save(db_path);
    std::printf("wrote route-db seed %s (%zu cells over %zu shapes)\n",
                db_path.c_str(), seed.size(), seed.shapes());
  }
  return 0;
}

}  // namespace
