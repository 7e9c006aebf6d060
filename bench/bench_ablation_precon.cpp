// Ablation: preconditioner effect on the condition number (paper §IV-C1:
// "this block Jacobi preconditioner typically reduces the condition
// number of the matrix by around 40%").  We estimate κ(M⁻¹A) from the
// Lanczos tridiagonal of preconditioned CG on the crooked-pipe operator
// and report the reduction for diagonal and block Jacobi.

#include <cstdio>

#include "bench_common.hpp"
#include "solvers/cg.hpp"
#include "util/args.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) {
  using namespace tealeaf;
  const Args args(argc, argv);
  const int n = args.get_int("mesh", 96);
  const int lanczos_steps = args.get_int("steps", 40);

  std::printf("Ablation: condition number vs preconditioner "
              "(crooked pipe %dx%d, %d Lanczos steps)\n\n", n, n,
              lanczos_steps);
  std::printf("%-12s %-12s %-12s %-12s %-14s %-8s\n", "precon", "eigmin",
              "eigmax", "kappa", "reduction", "cg iters");

  double kappa_none = 0.0;
  for (const PreconType precon :
       {PreconType::kNone, PreconType::kJacobiDiag,
        PreconType::kJacobiBlock}) {
    InputDeck deck = decks::crooked_pipe(n, 1);
    TeaLeafApp app(deck, 4);
    SimCluster2D& cl = app.cluster();
    // Drive the first timestep's setup manually so we can run a plain
    // recorded-CG solve on the operator.
    const double dt = deck.initial_timestep;
    const double dx = cl.mesh().dx();
    cl.exchange({FieldId::kDensity, FieldId::kEnergy1}, cl.halo_depth());
    cl.for_each_chunk([&](int, Chunk2D& c) {
      kernels::init_u_u0(c);
      kernels::init_conduction(c, deck.coefficient, dt / (dx * dx),
                               dt / (dx * dx));
    });
    CGRecurrence rec;
    parallel_region([&](Team& t) {
      CGRecurrence mine;  // per-thread copy; identical on every thread
      double rro = cg_setup(cl, precon, t);
      bool broke = false;
      for (int i = 0; i < lanczos_steps && !broke; ++i) {
        rro = cg_iteration(cl, precon, rro, &mine, broke, t);
      }
      t.single([&] { rec = mine; });
    });
    const EigenEstimate est = estimate_eigenvalues(rec, 1.0, 1.0);
    const double kappa = est.eigmax / est.eigmin;
    if (precon == PreconType::kNone) kappa_none = kappa;

    // Also count full-solve iterations for the practical effect.
    InputDeck deck2 = decks::crooked_pipe(n, 1);
    deck2.solver.type = SolverType::kCG;
    deck2.solver.precon = precon;
    deck2.solver.eps = 1e-8;
    deck2.solver.max_iters = 100000;
    TeaLeafApp app2(deck2, 4);
    const SolveStats st = app2.step();

    std::printf("%-12s %-12.4f %-12.1f %-12.1f %-14s %-8d\n",
                to_string(precon), est.eigmin, est.eigmax, kappa,
                precon == PreconType::kNone
                    ? std::string("(baseline)").c_str()
                    : (std::to_string(static_cast<int>(
                           (1.0 - kappa / kappa_none) * 100.0)) + "%")
                          .c_str(),
                st.outer_iters);
  }
  std::printf("\npaper §IV-C1: block Jacobi typically cuts the condition "
              "number by ~40%% with zero communication.\n");
  return 0;
}
