// End-to-end benchmark of tealeaf_core: time to solution for the paper's
// decks through SolveSession, and latency/throughput of a SolveServer
// request stream, with per-layer timings taken around the benchmark's own
// calls into each layer's public functions.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --root <repo checkout> --workdir <scratch dir inside it>
//
// Workloads (see perfbench/README.md for why each exists):
//   pipe_ppcg          crooked-pipe deck, 512², PPCG depth 4, 2 ranks on
//                      4 threads
//   brick3d_csr_mixed  tea_3d_heat materials at 96³, CG + point Jacobi,
//                      assembled CSR operator, mixed precision, 4 ranks on
//                      2 threads
//   server_stream      seeded stream of small requests to a SolveServer
//                      (not in BENCHMARK.json: too unsteady on shared
//                      virtual machines to gate; see README.md)
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes every span to <workdir>/traces/.  The last stdout
// line is the result object; earlier lines describe the environment.
// Exits 1 when any correctness check fails, 2 on a usage or build error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "amg/multigrid.hpp"
#include "api/solve_api.hpp"
#include "bench_lib.hpp"
#include "driver/deck.hpp"
#include "driver/sweep.hpp"
#include "io/json.hpp"
#include "io/matrix_market.hpp"
#include "model/scaling.hpp"
#include "model/trace.hpp"
#include "ops/kernels.hpp"
#include "ops/sparse_matrix.hpp"
#include "precon/preconditioner.hpp"
#include "server/routing.hpp"
#include "server/solve_server.hpp"
#include "solvers/solver.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

#if defined(TEALEAF_HAVE_OPENMP)
#include <omp.h>
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace tealeaf;
namespace pb = perfbench;

// ---------------------------------------------------------------------------
// Fixed workload parameters.  Changing any of them changes the benchmark.
// ---------------------------------------------------------------------------

// Thread counts are explicit and capped at nproc.
constexpr int kPipeThreads = 4;  // threads > ranks
constexpr int kPipeRanks = 2;
constexpr int kPipeSteps = 2;  // leading timesteps timed per solve

constexpr int kBrickCells = 96;
constexpr int kBrickThreads = 2;  // threads < ranks; see README for why not 4
constexpr int kBrickRanks = 4;
constexpr int kBrickSteps = 2;

constexpr int kStreamThreads = 4;
constexpr int kStreamRanks = 2;      // ranks of every decomposable request
constexpr int kBurstSize = 48;       // requests per closed-loop burst
// The paced rate keeps the server below a quarter of its capacity, so a
// host that runs at half speed for a while still clears its queue.
constexpr double kPacedRate = 80.0;   // open-loop arrivals per second
constexpr int kPacedRequests = 1500;  // p99 has 15 samples beyond it
constexpr int kPoolSize = 1200;      // generated requests, cycled (6 blocks)
constexpr int kSetupRepeats = 5;     // setup_s is the median of these
constexpr std::uint64_t kWarmupSeed = 0;
constexpr std::uint64_t kOrderSeed = 0x0DDBA11ULL;  // request-kind order

/// splitmix64: the workload generator's only source of randomness, so the
/// same seed gives the same inputs on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

double wall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  TEA_REQUIRE(in.is_open(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// Run state shared by the workloads
// ---------------------------------------------------------------------------

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string root;     // repository checkout (decks/, perfbench/)
  std::string workdir;  // scratch directory inside the checkout

  pb::Tracer tracer;
  pb::Report report;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> check_failures;

  /// Run one operation (a timestep or a request), counting it; an
  /// exception or a false return marks it failed.
  template <class Fn>
  bool attempt(const std::string& what, Fn&& fn) {
    ++attempted;
    try {
      if (fn()) return true;
      check(false, what + " did not converge");
    } catch (const std::exception& e) {
      check(false, what + " threw: " + e.what());
    }
    ++failed;
    return false;
  }

  void check(bool ok, const std::string& why) {
    if (!ok && check_failures.size() < 20) check_failures.push_back(why);
  }
};

/// Median seconds of `fn` over up to `reps` calls (at least 3) within
/// `budget` seconds, each call traced as `span`.
template <class Fn>
double time_median(Run& run, const std::string& span, int reps, double budget,
                   Fn&& fn) {
  std::vector<double> t;
  const double stop = wall() + budget;
  for (int i = 0; i < reps && (i < 3 || wall() < stop); ++i) {
    pb::Tracer::Scope s(run.tracer, span, i);
    const double t0 = wall();
    fn();
    t.push_back(wall() - t0);
  }
  return pb::median(t);
}

pb::Reference load_reference(const Run& run, const std::string& key) {
  const io::JsonValue doc = io::JsonValue::parse(
      read_file(run.root + "/perfbench/reference.json"));
  return pb::reference_from_json(doc.at(key));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Layer probes shared by every workload (traced runs only)
// ---------------------------------------------------------------------------

/// util: fork/join of an empty parallel_region, and one sub-team
/// SpinBarrier episode over every thread (the server batch engine's
/// barrier), both in microseconds.
void probe_util(Run& run) {
  constexpr int kInner = 200;
  const double region = time_median(run, "util.parallel_region", 25, 0.3, [] {
    for (int i = 0; i < kInner; ++i) parallel_region([](const Team&) {});
  });
  run.report.add("util.region_us", region / kInner * 1e6, "us");
  const double barrier = time_median(run, "util.barrier", 25, 0.3, [] {
    SpinBarrier spin(num_threads());
    parallel_region([&](const Team& t) {
      Team sub(t.thread_id(), t.num_threads(), &spin);
      for (int i = 0; i < kInner; ++i) sub.barrier();
    });
  });
  run.report.add("util.barrier_us", barrier / kInner * 1e6, "us");
}

/// Bytes per cell of one operator apply, as model/scaling.cpp's
/// ScalingModel::run_seconds charges it: 32 B (p, w, kx, ky) for the 2-D
/// stencil plus 8 B of kz in 3-D; 16 B per stored entry plus 16 B for an
/// assembled row; halved for fp32 storage.  Computed, not measured.
double smvp_bytes_per_cell(const Chunk& c, bool fp32) {
  double bytes = 32.0 + (c.dims() == 3 ? 8.0 : 0.0);
  if (c.op_kind() != OperatorKind::kStencil) {
    bytes = 16.0 * c.csr()->nnz_per_row() + 16.0;
  }
  return fp32 ? 0.5 * bytes : bytes;
}

/// comm/ops/precon/amg probes on a prepared session, using its own chunk,
/// operator, precision and the configuration's halo depth.  Leaves the
/// session's fields scrambled: call after every checked solve.
void probe_kernels(Run& run, SolveSession& session, const SolverConfig& cfg,
                   io::JsonValue& env) {
  SimCluster2D& cl = session.cluster();
  Chunk& c = cl.chunk(0);
  // Exchange and kernels run on the storage the solve itself uses.
  const bool fp32 = cfg.precision != Precision::kDouble && c.fp32_enabled();
  const auto activate_fp32 = [&](bool on) {
    for (int r = 0; r < cl.nranks(); ++r) cl.chunk(r).set_fp32_active(on);
  };
  if (fp32) activate_fp32(true);
  run.report.add("comm.exchange_s",
                 time_median(run, "comm.exchange", 40, 0.5, [&] {
                   cl.exchange({FieldId::kP}, cfg.halo_depth);
                 }),
                 "s");
  const Bounds in = interior_bounds(c);
  const double smvp = time_median(run, "ops.smvp", 40, 0.5, [&] {
    kernels::smvp(c, FieldId::kP, FieldId::kW, in);
  });
  const double precon = time_median(run, "precon.apply", 40, 0.5, [&] {
    kernels::apply_preconditioner(c, cfg.precon, FieldId::kR, FieldId::kZ);
  });
  if (fp32) activate_fp32(false);
  const double cells = static_cast<double>(c.nx()) * c.ny() * c.nz();
  run.report.add("ops.smvp_s", smvp, "s");
  run.report.add("ops.smvp_gbs",
                 cells * smvp_bytes_per_cell(c, fp32) / smvp / 1e9, "GB/s");
  run.report.add("precon.apply_s", precon, "s");
  // Assembly as a step of this workload pays it: fp64 CSR from the
  // stencil, plus the fp32 re-assembly when the solve runs in fp32.
  run.report.add("ops.assemble_s",
                 time_median(run, "ops.assemble", 10, 0.5, [&] {
                   const CsrMatrix m = assemble_from_stencil(c);
                   if (fp32) {
                     const CsrMatrix32 m32 = assemble_from_stencil_t<float>(c);
                     (void)m32;
                   }
                   (void)m;
                 }),
                 "s");
  env.set("chunk_cells", cells);
  env.set("array_bytes", static_cast<double>(c.field(FieldId::kP).size()) *
                             (fp32 ? 4.0 : 8.0));
  env.set("smvp_bytes_per_cell_computed", smvp_bytes_per_cell(c, fp32));

  std::unique_ptr<Multigrid> mg;
  {
    pb::Tracer::Scope s(run.tracer, "amg.setup");
    mg = c.dims() == 3 ? std::make_unique<Multigrid>(c.kx(), c.ky(), c.kz(),
                                                     c.nx(), c.ny(), c.nz())
                       : std::make_unique<Multigrid>(c.kx(), c.ky(), c.nx(),
                                                     c.ny());
  }
  run.report.add("amg.vcycle_s", time_median(run, "amg.v_cycle", 10, 0.5, [&] {
                   mg->v_cycle(c.r(), c.z());
                 }),
                 "s");
}

/// The server stream's Matrix Market operator: a 5-point SPD system (2-D
/// Laplacian plus 1 on the diagonal) on an n × n grid.
std::string write_stream_matrix(const Run& run, int n) {
  io::TripletMatrix m;
  m.n = static_cast<std::int64_t>(n) * n;
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      const std::int64_t row = static_cast<std::int64_t>(k) * n + j;
      m.entries.push_back({row, row, 5.0});
      if (j > 0) m.entries.push_back({row, row - 1, -1.0});
      if (j < n - 1) m.entries.push_back({row, row + 1, -1.0});
      if (k > 0) m.entries.push_back({row, row - n, -1.0});
      if (k < n - 1) m.entries.push_back({row, row + n, -1.0});
    }
  }
  const std::string path = run.workdir + "/stream.mtx";
  io::save_matrix_market(path, m);
  return path;
}

constexpr int kMtxCells = 48;

void probe_mtx(Run& run) {
  const std::string path = write_stream_matrix(run, kMtxCells);
  run.report.add("io.mtx_load_s",
                 time_median(run, "io.load_matrix_market", 20, 0.5, [&] {
                   const io::TripletMatrix m = io::load_matrix_market(path);
                   (void)m;
                 }),
                 "s");
}

/// Scaling-model seconds of one step of `cfg` that produced `st`.
double model_seconds(SolveSession& session, const SolverConfig& cfg,
                     const SolveStats& st) {
  const GlobalMesh& mesh = session.cluster().mesh();
  const int mesh_n = std::max(mesh.nx, mesh.ny);
  const ScalingModel model(session.machine(), mesh, /*timesteps=*/1);
  return model.run_seconds(SolverRunSummary::from(cfg, st, mesh_n),
                           session.shape().nranks);
}

/// Synthetic sweep report the stream's routing table is built from: solver
/// × preconditioner × depth × precision cells (no engine axes) at three 2-D
/// meshes and one 3-D mesh.  Per-cell costs are fixed so every seed routes
/// alike (cg at 32², ppcg depth 2 at 64², chebyshev at 96², cg in 3-D,
/// each with a ≥ 15 % margin); the seed only jitters them by ±2 %.  mg-pcg
/// cells rank first, so the single-rank routed requests run it (it is
/// filtered out for decomposed requests).
SweepReport synthetic_sweep(std::uint64_t seed) {
  Rng rng(seed ^ 0x5EEDF00DULL);
  SweepReport rep;
  rep.ranks = kStreamRanks;
  rep.steps = 1;
  const auto add = [&](const std::string& solver, PreconType pre, int depth,
                       const std::string& precision, int dims, int n,
                       int iters) {
    const bool diag = pre == PreconType::kJacobiDiag;
    double us_per_cell = solver == "jacobi"      ? 3.0
                         : solver == "chebyshev" ? 0.6
                         : solver == "ppcg"      ? 0.55
                         : solver == "mg-pcg"    ? 0.05
                                                 : 0.5;
    if (diag) us_per_cell *= 1.05;
    if (precision != "double") us_per_cell *= 1.1;
    const bool winner =
        precision == "double" &&
        ((dims == 2 && n == 32 && solver == "cg" && !diag) ||
         (dims == 2 && n == 64 && solver == "ppcg" && diag && depth == 2) ||
         (dims == 2 && n == 96 && solver == "chebyshev" && diag) ||
         (dims == 3 && solver == "cg" && diag));
    if (winner) us_per_cell = 0.3;
    SweepOutcome cell;
    cell.config.solver = solver;
    cell.config.precon = pre;
    cell.config.halo_depth = depth;
    cell.config.mesh_n = n;
    cell.config.dims = dims;
    cell.config.precision = precision;
    cell.converged = true;
    cell.iterations = iters;
    const double cells = dims == 3 ? double(n) * n * n : double(n) * n;
    cell.solve_seconds = cells * us_per_cell * 1e-6 * rng.uniform(0.98, 1.02);
    rep.cells.push_back(cell);
  };
  for (const int n : {32, 64, 96}) {
    add("mg-pcg", PreconType::kNone, 1, "double", 2, n, 6);
    for (const PreconType pre : {PreconType::kNone, PreconType::kJacobiDiag}) {
      for (const char* precision : {"double", "mixed"}) {
        add("cg", pre, 1, precision, 2, n, n);
        add("chebyshev", pre, 1, precision, 2, n, 2 * n);
        add("jacobi", pre, 1, precision, 2, n, 20 * n);
        for (const int depth : {1, 2}) {
          add("ppcg", pre, depth, precision, 2, n, n / 4);
        }
      }
    }
  }
  for (const PreconType pre : {PreconType::kNone, PreconType::kJacobiDiag}) {
    add("cg", pre, 1, "double", 3, 24, 40);
    add("ppcg", pre, 1, "double", 3, 24, 10);
    add("chebyshev", pre, 1, "double", 3, 24, 60);
  }
  return rep;
}

/// The open-loop generator's wait for the next due time.  It spins rather
/// than sleeps: a sleeping caller lets its vCPU go idle, and on a virtual
/// machine waking it again costs milliseconds that vary with the host's
/// load, which would land in every request's latency.
void wait_until(const pb::Tracer& clock, double t) {
  while (clock.now() < t) cpu_pause();
}

/// What one drain returned: its results, or the exception it threw.
struct Drained {
  long long first_id = 0;  // request id of the first queued request
  std::size_t count = 0;   // requests the drain was handed
  std::vector<SolveResult> results;
  std::string error;
};

Drained drain(Run& run, SolveServer& server, long long first_id) {
  pb::Tracer::Scope span(run.tracer, "server.drain", first_id);
  Drained d;
  d.first_id = first_id;
  d.count = server.pending();
  try {
    d.results = server.drain();
  } catch (const std::exception& e) {
    d.error = e.what();
  }
  return d;
}

/// Count each request of a drain as one operation: it fails when it did
/// not converge (after its re-route) or when the drain threw.
void check_drained(Run& run, const Drained& d) {
  for (std::size_t k = 0; k < d.count; ++k) {
    std::string what =
        "request " + std::to_string(d.first_id + static_cast<long long>(k));
    if (k < d.results.size()) {
      const SolveResult& r = d.results[k];
      what += " (" + std::string(to_string(r.config.type)) + "/" +
              to_string(r.config.precision) + " route '" + r.route_label +
              "' attempts " + std::to_string(r.attempts) + " iters " +
              std::to_string(r.stats.outer_iters) + " " +
              r.stats.breakdown_reason + ")";
    }
    run.attempt(what, [&] {
      if (!d.error.empty()) throw TeaError("drain: " + d.error);
      const SolveResult& r = d.results.at(k);
      return r.ok() && std::isfinite(r.stats.final_norm);
    });
  }
}

/// The server.* metrics of an open-loop phase, with the server's counters
/// taken since `since`.
void report_server(Run& run, const pb::OpenLoopTimes& times,
                   const std::vector<double>& drain_s, const ServerStats& now,
                   const ServerStats& since) {
  const long long hits = now.cache_hits - since.cache_hits;
  const long long misses = now.cache_misses - since.cache_misses;
  const long long batches = now.batches - since.batches;
  run.report.add("server.drain_s", pb::median(drain_s), "s");
  run.report.add("server.queue_wait_p50_s",
                 pb::nearest_rank(times.queue_wait, 0.5), "s");
  run.report.add("server.queue_wait_p99_s",
                 pb::tail_percentile(times.queue_wait).value, "s");
  run.report.add("server.gen_late_s", pb::tail_percentile(times.late).value,
                 "s");
  run.report.add("server.cache_hit_ratio",
                 static_cast<double>(hits) / std::max(1LL, hits + misses),
                 "ratio");
  run.report.add("server.batch_size_mean",
                 static_cast<double>(now.requests - since.requests) /
                     static_cast<double>(std::max(1LL, batches)),
                 "count");
  run.report.add("server.reroutes",
                 static_cast<double>(now.reroutes - since.reroutes), "count");
}

// ---------------------------------------------------------------------------
// Deck workloads: pipe_ppcg and brick3d_csr_mixed
// ---------------------------------------------------------------------------

struct DeckSpec {
  std::string text;  // the generated deck
  int ranks = 1;
  int steps = 1;     // leading timesteps per timed solve
  std::string reference_key;
};

DeckSpec pipe_spec(const Run& run) {
  DeckSpec d;
  // The paper's Fig. 3 deck exactly as shipped, with its own solver
  // configuration: PPCG, 10 inner steps, depth 4, tl_eps = 1e-10.
  d.text = read_file(run.root + "/decks/tea_bm_crooked_pipe.in");
  d.ranks = kPipeRanks;
  d.steps = kPipeSteps;
  d.reference_key = "pipe_ppcg";
  return d;
}

DeckSpec brick_spec(const Run& run) {
  DeckSpec d;
  // The tea_3d_heat materials (layered brick, hot sphere) on a 96³ mesh,
  // switched to CG + point Jacobi over an assembled CSR operator with
  // fp32 storage under fp64 refinement.  Later keys override earlier ones.
  std::string text = read_file(run.root + "/decks/tea_3d_heat.in");
  const std::string overrides =
      "x_cells=" + std::to_string(kBrickCells) +
      "\ny_cells=" + std::to_string(kBrickCells) +
      "\nz_cells=" + std::to_string(kBrickCells) +
      "\ntl_use_cg\ntl_preconditioner_type=jac_diag\ntl_halo_depth=1"
      "\ntl_operator=csr\ntl_precision=mixed\n";
  const std::size_t end = text.rfind("*endtea");
  TEA_REQUIRE(end != std::string::npos, "tea_3d_heat.in has no *endtea");
  text.insert(end, overrides);
  d.text = text;
  d.ranks = kBrickRanks;
  d.steps = kBrickSteps;
  d.reference_key = "brick3d_csr_mixed";
  return d;
}

/// The session's final state: FieldSummary plus sqrt(Σ u² dV) over every
/// chunk's interior.
pb::Observed observe(SolveSession& session) {
  const FieldSummary fs = session.field_summary();
  SimCluster2D& cl = session.cluster();
  double sum = 0.0;
  for (int r = 0; r < cl.nranks(); ++r) {
    const Chunk& c = cl.chunk(r);
    for (int l = 0; l < c.nz(); ++l)
      for (int k = 0; k < c.ny(); ++k)
        for (int j = 0; j < c.nx(); ++j) sum += c.u()(j, k, l) * c.u()(j, k, l);
  }
  return {fs.avg_temp(), fs.ie, std::sqrt(sum * cl.mesh().cell_volume())};
}

/// One timestep as the benchmark saw it.
struct StepRecord {
  double run_seconds = 0.0;
  SolveStats stats;
  CommStats comm;
};

/// One timed solve: reset the session to the deck, then `steps` timesteps
/// through the SolveSession phases, appending each to `out`.  `total` is
/// the wall time of the whole solve.  False when a step failed.
bool timed_solve(Run& run, SolveSession& session, const InputDeck& deck,
                 int steps, long long rep, std::vector<StepRecord>& out,
                 double& total) {
  pb::Tracer::Scope solve_span(run.tracer, "solve", rep);
  const double t0 = wall();
  {
    pb::Tracer::Scope s(run.tracer, "api.reset", rep);
    session.reset(deck);
  }
  const SolverConfig cfg = deck.solver.validated();
  bool ok = true;
  for (int k = 0; k < steps && ok; ++k) {
    const long long id = rep * steps + k;
    ok = run.attempt("step " + std::to_string(id), [&] {
      pb::Tracer::Scope step_span(run.tracer, "step", id);
      StepRecord rec;
      {
        pb::Tracer::Scope s(run.tracer, "api.prepare", id);
        session.prepare(cfg.op);
      }
      const CommStats before = session.cluster().stats();
      {
        pb::Tracer::Scope s(run.tracer, "solvers.run_solver", id);
        const double r0 = wall();
        rec.stats = run_solver(session.cluster(), cfg, session.machine());
        rec.run_seconds = wall() - r0;
      }
      const CommStats& after = session.cluster().stats();
      rec.comm.messages = after.messages - before.messages;
      rec.comm.message_bytes = after.message_bytes - before.message_bytes;
      rec.comm.reductions = after.reductions - before.reductions;
      if (!rec.stats.converged) return false;
      {
        pb::Tracer::Scope s(run.tracer, "api.finish_solve", id);
        session.finish_solve(rec.stats);
      }
      out.push_back(rec);
      return true;
    });
  }
  total = wall() - t0;
  return ok;
}

void run_deck_workload(Run& run, const DeckSpec& spec, io::JsonValue& env) {
  // --- setup: parse + session construction + one warm-up step, repeated;
  // the last session is the one measured.
  std::vector<double> setup;
  std::vector<double> parse;
  std::vector<double> session_new;
  std::unique_ptr<SolveSession> session;
  InputDeck deck;
  for (int i = 0; i < kSetupRepeats; ++i) {
    session.reset();
    const double t0 = wall();
    {
      pb::Tracer::Scope s(run.tracer, "driver.deck_parse", i);
      deck = InputDeck::parse_string(spec.text);
    }
    const double t1 = wall();
    {
      pb::Tracer::Scope s(run.tracer, "api.session_new", i);
      session = std::make_unique<SolveSession>(deck, spec.ranks);
    }
    const double t2 = wall();
    {
      pb::Tracer::Scope s(run.tracer, "warmup", i);
      const SolveStats st = session->solve();
      run.check(st.converged, "warm-up step did not converge");
    }
    setup.push_back(wall() - t0);
    parse.push_back(t1 - t0);
    session_new.push_back(t2 - t1);
  }
  const pb::Reference ref = load_reference(run, spec.reference_key);

  // --- measurement: timed solves until the window closes.  A traced run
  // alternates traced and untraced solves so the tracing overhead is
  // measured within one run.
  const bool traced_run = run.tracer.enabled();
  std::vector<double> solve_s[2];    // [traced]
  std::vector<StepRecord> records;   // traced solves only
  const double stop = wall() + run.seconds;
  for (long long rep = 0; rep < 2 || wall() < stop; ++rep) {
    const bool traced = traced_run && rep % 2 == 1;
    run.tracer.set_enabled(traced);
    std::vector<StepRecord> recs;
    double total = 0.0;
    const bool ok = timed_solve(run, *session, deck, spec.steps, rep, recs,
                                total);
    run.tracer.set_enabled(traced_run);
    if (!ok) continue;
    const pb::Observed obs = observe(*session);
    std::string why;
    const bool match = pb::matches_reference(obs, ref, &why);
    run.check(match, spec.reference_key + " final state: " + why);
    env.set("final_avg_temp", obs.avg_temp);
    env.set("final_ie", obs.ie);
    env.set("final_temp_l2", obs.temp_l2);
    solve_s[traced].push_back(total);
    if (traced) {
      records.insert(records.end(), recs.begin(), recs.end());
    }
  }
  if (!traced_run) {
    run.report.add("setup_s", pb::median(setup), "s");
    run.report.add("solve_s", pb::median(solve_s[0]), "s");
    run.report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // --- per-layer metrics (traced run)
  run.report.add("trace.overhead_solve_frac",
                 pb::median(solve_s[1]) / pb::median(solve_s[0]) - 1.0,
                 "fraction");
  run.report.add("driver.deck_parse_s", pb::median(parse), "s");
  run.report.add("api.session_new_s", pb::median(session_new), "s");

  const auto agg = pb::aggregate(run.tracer.spans());
  const auto span_median = [&](const std::string& name) {
    const auto it = agg.find(name);
    return it == agg.end() ? 0.0 : pb::median(it->second.durations);
  };
  run.report.add("api.reset_s", span_median("api.reset"), "s");
  run.report.add("api.prepare_s", span_median("api.prepare"), "s");
  run.report.add("api.finish_s", span_median("api.finish_solve"), "s");

  const SolverConfig cfg = deck.solver.validated();
  std::vector<double> run_s, outer, inner, spmv, eig, refine, msgs, bytes,
      reds, ratio;
  const double cells = static_cast<double>(deck.x_cells) * deck.y_cells *
                       (deck.dims == 3 ? deck.z_cells : 1);
  std::vector<double> cell_rate;
  for (const StepRecord& r : records) {
    run_s.push_back(r.run_seconds);
    outer.push_back(r.stats.outer_iters);
    inner.push_back(static_cast<double>(r.stats.inner_steps));
    spmv.push_back(static_cast<double>(r.stats.spmv_applies));
    eig.push_back(r.stats.eigen_cg_iters);
    refine.push_back(r.stats.refine_steps);
    msgs.push_back(static_cast<double>(r.comm.messages));
    bytes.push_back(static_cast<double>(r.comm.message_bytes));
    reds.push_back(static_cast<double>(r.comm.reductions));
    ratio.push_back(model_seconds(*session, cfg, r.stats) / r.run_seconds);
    cell_rate.push_back(cells *
                        (r.stats.outer_iters + r.stats.inner_steps +
                         r.stats.eigen_cg_iters) /
                        r.run_seconds);
  }
  run.report.add("solvers.run_s", pb::median(run_s), "s");
  run.report.add("solvers.outer_iters", pb::median(outer), "count");
  run.report.add("solvers.inner_steps", pb::median(inner), "count");
  run.report.add("solvers.spmv_applies", pb::median(spmv), "count");
  run.report.add("solvers.eigen_cg_iters", pb::median(eig), "count");
  run.report.add("solvers.refine_steps", pb::median(refine), "count");
  run.report.add("solvers.cell_iters_per_s", pb::median(cell_rate), "1/s");
  run.report.add("comm.msgs_per_solve", pb::median(msgs), "count");
  run.report.add("comm.bytes_per_solve", pb::median(bytes), "bytes");
  run.report.add("comm.reductions_per_solve", pb::median(reds), "count");
  run.report.add("model.pred_over_meas", pb::median(ratio), "ratio");

  // --- the same deck, one timestep per request, through a SolveServer:
  // the server layer's cost on top of the solve.
  ServerOptions opts;
  SolveServer server(std::move(opts));
  InputDeck one = deck;
  one.end_step = 1;
  one.end_time = 0.0;
  const RoutingTable table =
      RoutingTable::from_sweep(synthetic_sweep(run.seed));
  run.report.add("server.route_us",
                 time_median(run, "server.route", 50, 0.2, [&] {
                   const auto r = table.route(deck.dims,
                                              std::max(deck.x_cells,
                                                       deck.y_cells),
                                              spec.ranks);
                   (void)r;
                 }) * 1e6,
                 "us");
  std::vector<double> drains;
  std::vector<Drained> drained;
  const double base = run.tracer.now();
  const std::vector<double> due = {base, base};
  const pb::OpenLoopTimes times = pb::run_open_loop(
      due, [&] { return run.tracer.now(); },
      [&](double t) { wait_until(run.tracer, t); },
      [&](std::size_t i) {
        SolveRequest req;
        req.deck = one;
        req.nranks = spec.ranks;
        req.config = cfg;
        req.tag = "deck-" + std::to_string(i);
        pb::Tracer::Scope s(run.tracer, "server.submit",
                            static_cast<long long>(i));
        server.submit(std::move(req));
      },
      [&](std::size_t first, std::size_t) {
        const double d0 = wall();
        drained.push_back(drain(run, server, static_cast<long long>(first)));
        drains.push_back(wall() - d0);
      });
  for (const Drained& d : drained) check_drained(run, d);
  report_server(run, times, drains, server.stats(), ServerStats{});

  probe_util(run);
  probe_mtx(run);
  probe_kernels(run, *session, cfg, env);
}

// ---------------------------------------------------------------------------
// server_stream
// ---------------------------------------------------------------------------

/// A generated request before parsing: the deck text the server's caller
/// would send, plus the request envelope.
struct RequestSpec {
  std::string text;
  int nranks = kStreamRanks;
  bool explicit_config = false;
  SolverType type = SolverType::kCG;
  PreconType precon = PreconType::kNone;
  Precision precision = Precision::kDouble;
  OperatorKind op = OperatorKind::kStencil;
  bool stale_hint = false;  // below-spectrum eigen hint: breaks down
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// 2-D deck: a seeded background plus one seeded hot rectangle at least
/// as dense as the background (see README: a hot block much lighter than
/// its surroundings can make the default Chebyshev diverge).
std::string deck2d_text(Rng& rng, int n) {
  const double x0 = rng.uniform(0.0, 6.0);
  const double y0 = rng.uniform(0.0, 6.0);
  const double rho = rng.uniform(0.8, 1.25);
  return "*tea\nx_cells=" + std::to_string(n) +
         "\ny_cells=" + std::to_string(n) +
         "\nxmin=0.0\nxmax=10.0\nymin=0.0\nymax=10.0"
         "\ninitial_timestep=0.04\nend_step=1\ntl_use_cg"
         "\nstate 1 density=" + fmt(rho) +
         " energy=" + fmt(rng.uniform(0.005, 0.05)) +
         "\nstate 2 density=" + fmt(rho * rng.uniform(1.0, 2.0)) +
         " energy=" + fmt(rng.uniform(1.0, 25.0)) +
         " geometry=rectangle xmin=" + fmt(x0) +
         " xmax=" + fmt(x0 + rng.uniform(1.0, 4.0)) + " ymin=" + fmt(y0) +
         " ymax=" + fmt(y0 + rng.uniform(1.0, 4.0)) + "\n*endtea\n";
}

/// 3-D deck at 24³: the tea_3d_heat layout with a seeded sphere.
std::string deck3d_text(Rng& rng) {
  return "*tea\ntl_geometry=3d\nx_cells=24\ny_cells=24\nz_cells=24"
         "\nxmin=0.0\nxmax=10.0\nymin=0.0\nymax=10.0\nzmin=0.0\nzmax=10.0"
         "\ninitial_timestep=0.04\nend_step=1\ntl_use_cg"
         "\nstate 1 density=2.0 energy=0.01"
         "\nstate 2 density=10.0 energy=0.01 geometry=rectangle xmin=0.0 "
         "xmax=10.0 ymin=0.0 ymax=3.0"
         "\nstate 3 density=0.1 energy=" + fmt(rng.uniform(5.0, 15.0)) +
         " geometry=circle xcentre=" + fmt(rng.uniform(3.0, 7.0)) +
         " ycentre=" + fmt(rng.uniform(4.0, 7.0)) +
         " zcentre=" + fmt(rng.uniform(3.0, 7.0)) + " radius=2.0\n*endtea\n";
}

/// The stream, in blocks of 200 requests with a fixed composition and a
/// fixed (shuffled once) order; the seed draws each request's materials and
/// geometry.  Every seed so offers the server the same sequence of request
/// kinds, and with it the same batching and session-cache pattern:
///   4   stale-hint PPCG requests (every 50th) that break down and re-route
///   1   Matrix Market request (every 200th), single rank
///   10  24³ 3-D requests, half routed, half explicit CG
///   6   single-rank routed 96² requests, which the table sends to mg-pcg;
///       at 3 % of the stream they are the latency tail (p99)
///   90  routed 2-D requests on 2 ranks
///   89  explicit 2-D requests on 2 ranks: cg/ppcg/chebyshev/jacobi over
///       the four meshes, half with point Jacobi, 20 of them mixed
///       precision and 7 CG on an assembled CSR or SELL-C-σ operator.
constexpr int kBlock = 200;

std::vector<RequestSpec> generate_stream(std::uint64_t seed, int count,
                                         const std::string& mtx_path) {
  Rng rng(seed);
  Rng order(kOrderSeed);
  const int meshes[] = {32, 48, 64, 96};
  const SolverType solvers[] = {SolverType::kCG, SolverType::kPPCG,
                                SolverType::kChebyshev, SolverType::kJacobi};
  // One block's templates (deck text filled in below).
  std::vector<RequestSpec> block;
  for (int j = 0; j < 10; ++j) {
    RequestSpec r;
    r.text = "3d";
    r.explicit_config = j % 2 == 1;
    block.push_back(r);
  }
  for (int j = 0; j < 6; ++j) {
    RequestSpec r;
    r.text = "96";
    r.nranks = 1;
    block.push_back(r);
  }
  for (int j = 0; j < 90; ++j) {
    RequestSpec r;
    r.text = std::to_string(meshes[j % 4]);
    block.push_back(r);
  }
  for (int j = 0; j < 89; ++j) {
    RequestSpec r;
    r.text = std::to_string(meshes[(j / 4) % 4]);
    r.explicit_config = true;
    r.type = solvers[j % 4];
    if (r.type != SolverType::kJacobi && (j / 16) % 2 == 1) {
      r.precon = PreconType::kJacobiDiag;
    }
    if (j % 9 == 4 && j < 63) {
      r.type = SolverType::kCG;
      r.op = (j / 9) % 2 == 0 ? OperatorKind::kCsr : OperatorKind::kSellCSigma;
    } else if (j % 9 == 0 || j % 9 == 2) {
      r.precision = Precision::kMixed;
    }
    block.push_back(r);
  }

  std::vector<RequestSpec> out;
  while (static_cast<int>(out.size()) < count) {
    std::vector<RequestSpec> shuffled = block;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[static_cast<std::size_t>(
                                      order.below(static_cast<int>(i)))]);
    }
    std::size_t next = 0;
    for (int i = 0; i < kBlock && static_cast<int>(out.size()) < count; ++i) {
      RequestSpec r;
      if (i % 50 == 25) {
        // hot_block materials, PPCG with 3 inner steps and an interval far
        // below the spectrum: an indefinite polynomial preconditioner.
        r.text =
            "*tea\nx_cells=32\ny_cells=32\nxmax=10.0\nymax=10.0"
            "\ninitial_timestep=0.04\nend_step=1\ntl_use_cg"
            "\nstate 1 density=1.0 energy=0.01"
            "\nstate 2 density=1.0 energy=10.0 geometry=rectangle xmin=2.0 "
            "xmax=4.0 ymin=2.0 ymax=4.0\n*endtea\n";
        r.explicit_config = true;
        r.type = SolverType::kPPCG;
        r.stale_hint = true;
      } else if (i % kBlock == 100) {
        r.text = "*tea\nx_cells=" + std::to_string(kMtxCells) +
                 "\ny_cells=" + std::to_string(kMtxCells) +
                 "\nend_step=1\ntl_use_cg\ntl_operator=csr\nmatrix_file=" +
                 mtx_path + "\nstate 1 density=1.0 energy=1.0\n*endtea\n";
        r.nranks = 1;
      } else {
        r = shuffled[next++];
        r.text = r.text == "3d" ? deck3d_text(rng)
                                : deck2d_text(rng, std::stoi(r.text));
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

SolveRequest make_request(const RequestSpec& spec, InputDeck deck,
                          long long id) {
  SolveRequest req;
  req.nranks = spec.nranks;
  req.tag = "req-" + std::to_string(id);
  if (spec.explicit_config) {
    SolverConfig cfg = deck.solver;
    cfg.type = spec.type;
    cfg.precon = spec.precon;
    cfg.precision = spec.precision;
    cfg.op = spec.op;
    if (spec.stale_hint) {
      cfg.inner_steps = 3;
      cfg.eig_hint_min = 0.1;
      cfg.eig_hint_max = 0.2;
    }
    req.config = cfg;
  }
  req.deck = std::move(deck);
  return req;
}

/// Everything the stream's set-up builds: parsed requests and the server.
struct Stream {
  std::vector<RequestSpec> specs;
  std::vector<InputDeck> decks;
  std::vector<double> parse_s;
  std::unique_ptr<SolveServer> server;
  std::size_t cursor = 0;  // next pool entry

  SolveRequest next(long long id) {
    const std::size_t i = cursor++ % specs.size();
    return make_request(specs[i], decks[i], id);
  }
};

void setup_stream(Run& run, Stream& st, const std::string& mtx_path) {
  {
    pb::Tracer::Scope s(run.tracer, "generate");
    st.specs = generate_stream(run.seed, kPoolSize, mtx_path);
  }
  st.decks.clear();
  st.parse_s.clear();
  for (std::size_t i = 0; i < st.specs.size(); ++i) {
    pb::Tracer::Scope s(run.tracer, "driver.deck_parse",
                        static_cast<long long>(i));
    const double t0 = wall();
    st.decks.push_back(InputDeck::parse_string(st.specs[i].text));
    st.parse_s.push_back(wall() - t0);
  }
  {
    pb::Tracer::Scope s(run.tracer, "server.construct");
    ServerOptions opts;  // defaults: learning off, no route-DB file
    opts.routes = RoutingTable::from_sweep(synthetic_sweep(run.seed));
    st.server = std::make_unique<SolveServer>(std::move(opts));
  }
  // Warm-up: one request of every request signature, taken from a block
  // generated with a fixed seed so every run warms up the same way; this
  // builds every session shape and makes every lazy allocation before
  // timing.
  pb::Tracer::Scope s(run.tracer, "warmup");
  std::set<std::string> seen;
  for (const RequestSpec& r : generate_stream(kWarmupSeed, kBlock, mtx_path)) {
    const InputDeck d = InputDeck::parse_string(r.text);
    const std::string sig =
        std::to_string(d.dims) + "/" + std::to_string(d.x_cells) + "/" +
        std::to_string(r.nranks) + "/" + std::to_string(r.explicit_config) +
        "/" + to_string(r.type) + "/" +
        std::to_string(static_cast<int>(r.precon)) + "/" +
        to_string(r.precision) + "/" +
        std::to_string(static_cast<int>(r.op)) + "/" +
        std::to_string(r.stale_hint) + "/" + d.matrix_file;
    if (!seen.insert(sig).second) continue;
    st.server->submit(make_request(r, d, -1));
  }
  const std::size_t count = st.server->pending();
  const std::vector<SolveResult> res = st.server->drain();
  for (std::size_t k = 0; k < count; ++k) {
    run.check(res.at(k).ok(),
              "warm-up request " + std::to_string(k) + " failed");
  }
}

void run_server_workload(Run& run, io::JsonValue& env) {
  std::vector<double> setup;
  Stream st;
  for (int i = 0; i < kSetupRepeats; ++i) {
    st.server.reset();
    const double t0 = wall();
    const std::string mtx = write_stream_matrix(run, kMtxCells);
    setup_stream(run, st, mtx);
    setup.push_back(wall() - t0);
  }
  SolveServer& server = *st.server;
  const ServerStats warm = server.stats();
  const bool traced_run = run.tracer.enabled();
  const int paced_n = kPacedRequests;
  const double burst_window =
      std::max(0.0, run.seconds - paced_n / kPacedRate);
  long long next_id = 0;

  // --- burst phase (closed loop): submit a burst, drain it, repeat.
  std::vector<double> burst_s[2];  // [traced]
  std::vector<Drained> bursts;
  const double burst_stop = wall() + burst_window;
  std::size_t burst_cursor = st.cursor;
  for (int b = 0; b < 2 || wall() < burst_stop; ++b) {
    // A traced run replays every burst's requests twice, untraced then
    // traced, so the overhead compares equal work.
    const bool traced = traced_run && b % 2 == 1;
    if (traced) st.cursor = burst_cursor;
    burst_cursor = st.cursor;
    run.tracer.set_enabled(traced);
    const double t0 = wall();
    const long long first = next_id;
    {
      pb::Tracer::Scope s(run.tracer, "burst", b);
      for (int k = 0; k < kBurstSize; ++k) {
        pb::Tracer::Scope sub(run.tracer, "server.submit", next_id);
        server.submit(st.next(next_id++));
      }
      bursts.push_back(drain(run, server, first));
    }
    const double dt = wall() - t0;
    run.tracer.set_enabled(traced_run);
    burst_s[traced].push_back(dt);
  }

  // --- paced phase (open loop at kPacedRate).  A traced run paces one
  // set of requests twice, untraced then traced.
  std::vector<SolveResult> paced_results(static_cast<std::size_t>(paced_n));
  std::vector<std::size_t> paced_pool(static_cast<std::size_t>(paced_n));
  std::vector<double> due(static_cast<std::size_t>(paced_n));
  const double t_base = run.tracer.now() + 0.05;
  for (int i = 0; i < paced_n; ++i) due[i] = t_base + i / kPacedRate;
  const long long paced_first = next_id;
  std::vector<double> drain_s;
  std::vector<Drained> paced;
  const std::size_t half = traced_run ? due.size() / 2 : due.size();
  const std::size_t paced_cursor = st.cursor;
  const pb::OpenLoopTimes times = pb::run_open_loop(
      due, [&] { return run.tracer.now(); },
      [&](double t) { wait_until(run.tracer, t); },
      [&](std::size_t i) {
        run.tracer.set_enabled(traced_run && i >= half);
        if (i == half && traced_run) st.cursor = paced_cursor;
        const long long id = paced_first + static_cast<long long>(i);
        pb::Tracer::Scope s(run.tracer, "server.submit", id);
        paced_pool[i] = st.cursor % st.specs.size();
        server.submit(st.next(id));
      },
      [&](std::size_t first, std::size_t) {
        const double d0 = wall();
        paced.push_back(
            drain(run, server, paced_first + static_cast<long long>(first)));
        drain_s.push_back(wall() - d0);
      });
  run.tracer.set_enabled(traced_run);
  for (const Drained& d : bursts) check_drained(run, d);
  for (const Drained& d : paced) {
    check_drained(run, d);
    for (std::size_t k = 0; k < d.results.size(); ++k) {
      paced_results[static_cast<std::size_t>(d.first_id - paced_first) + k] =
          d.results[k];
    }
  }
  const pb::Tail tail = pb::tail_percentile(times.latency);

  // Output check: a fixed deck run through the same server must land on
  // the recorded field summary whichever route the table picks.
  {
    const pb::Reference ref = load_reference(run, "server_stream_probe");
    run.attempt("probe run", [&] {
      const InputDeck probe = InputDeck::parse_string(
          read_file(run.root + "/perfbench/probe.in"));
      const RunResult r = server.run(probe, kStreamRanks);
      std::string why;
      const pb::Observed obs{r.final_summary.avg_temp(), r.final_summary.ie};
      const bool match = pb::matches_reference(obs, ref, &why);
      run.check(match, "server_stream probe field summary: " + why);
      env.set("final_avg_temp", r.final_summary.avg_temp());
      env.set("final_ie", r.final_summary.ie);
      return r.all_converged;
    });
  }

  if (!traced_run) {
    run.report.add("setup_s", pb::median(setup), "s");
    run.report.add("solve_s", pb::median(burst_s[0]), "s");
    // The server's own metrics; BENCHMARK.json does not gate this workload.
    run.report.add("req_per_s", kBurstSize / pb::median(burst_s[0]), "1/s");
    run.report.add("req_p50_s", pb::nearest_rank(times.latency, 0.5), "s");
    run.report.add("req_p99_s", tail.value, "s");
    run.report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // --- per-layer metrics (traced run)
  const auto mid = times.latency.begin() + static_cast<std::ptrdiff_t>(half);
  const std::vector<double> lat_untraced(times.latency.begin(), mid);
  const std::vector<double> lat_traced(mid, times.latency.end());
  run.report.add("trace.overhead_solve_frac",
                 pb::median(burst_s[1]) / pb::median(burst_s[0]) - 1.0,
                 "fraction");
  run.report.add("trace.overhead_req_p50_frac",
                 pb::nearest_rank(lat_traced, 0.5) /
                         pb::nearest_rank(lat_untraced, 0.5) -
                     1.0,
                 "fraction");
  run.report.add("req.tail_q", tail.q, "quantile");
  run.report.add("req.samples", static_cast<double>(times.latency.size()),
                 "count");
  for (std::size_t i = half; i < due.size(); ++i) {
    const long long id = paced_first + static_cast<long long>(i);
    const double start = due[i] + times.queue_wait[i];
    const double done = due[i] + times.latency[i];
    const int req = run.tracer.add("request", due[i], done, -1, id);
    run.tracer.add("request.queue_wait", due[i], start, req, id);
    run.tracer.add("request.service", start, done, req, id);
  }

  report_server(run, times, drain_s, server.stats(), warm);
  run.report.add("driver.deck_parse_s", pb::median(st.parse_s), "s");

  // Solver counts of the paced requests, as the library reports them.
  std::vector<double> run_s, outer, inner, spmv, eig, refine, cell_rate;
  for (std::size_t i = 0; i < paced_results.size(); ++i) {
    const SolveStats& s = paced_results[i].stats;
    if (!paced_results[i].ok() || s.solve_seconds <= 0.0) continue;
    const InputDeck& d = st.decks[paced_pool[i]];
    const double cells = static_cast<double>(d.x_cells) * d.y_cells * d.z_cells;
    run_s.push_back(s.solve_seconds);
    outer.push_back(s.outer_iters);
    inner.push_back(static_cast<double>(s.inner_steps));
    spmv.push_back(static_cast<double>(s.spmv_applies));
    eig.push_back(s.eigen_cg_iters);
    refine.push_back(s.refine_steps);
    cell_rate.push_back(
        cells * (s.outer_iters + s.inner_steps + s.eigen_cg_iters) /
        s.solve_seconds);
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  run.report.add("solvers.run_s", pb::median(run_s), "s");
  run.report.add("solvers.outer_iters", mean(outer), "count");
  run.report.add("solvers.inner_steps", mean(inner), "count");
  run.report.add("solvers.spmv_applies", mean(spmv), "count");
  run.report.add("solvers.eigen_cg_iters", mean(eig), "count");
  run.report.add("solvers.refine_steps", mean(refine), "count");
  run.report.add("solvers.cell_iters_per_s", pb::median(cell_rate), "1/s");

  // Routing cost for the stream's own request shapes.
  const RoutingTable& table = server.routes();
  std::size_t at = 0;
  run.report.add("server.route_us",
                 time_median(run, "server.route", 400, 0.3, [&] {
                   const std::size_t i = at++ % st.decks.size();
                   const InputDeck& d = st.decks[i];
                   const auto r =
                       table.route(d.dims, std::max(d.x_cells, d.y_cells),
                                   st.specs[i].nranks);
                   (void)r;
                 }) * 1e6,
                 "us");

  // api / comm / model probes: one session per 2-D stencil shape of the
  // stream, driven through the SolveSession phases with the deck's CG.
  std::vector<double> news, resets, prepares, finishes, msgs, bytes, reds,
      ratio;
  std::unique_ptr<SolveSession> largest;
  for (const int n : {32, 48, 64, 96}) {
    InputDeck d;
    for (std::size_t i = 0; i < st.decks.size(); ++i) {
      if (st.decks[i].dims == 2 && st.decks[i].x_cells == n &&
          st.decks[i].matrix_file.empty() && !st.specs[i].stale_hint) {
        d = st.decks[i];
        break;
      }
    }
    std::unique_ptr<SolveSession> session;
    for (int rep = 0; rep < 5; ++rep) {
      const double t0 = wall();
      {
        pb::Tracer::Scope s(run.tracer, "api.session_new", n);
        session = std::make_unique<SolveSession>(d, kStreamRanks);
      }
      const double t1 = wall();
      {
        pb::Tracer::Scope s(run.tracer, "api.reset", n);
        session->reset(d);
      }
      const double t2 = wall();
      {
        pb::Tracer::Scope s(run.tracer, "api.prepare", n);
        session->prepare(d.solver.op);
      }
      const double t3 = wall();
      const CommStats before = session->cluster().stats();
      SolveStats stats;
      double solve = 0.0;
      {
        pb::Tracer::Scope s(run.tracer, "solvers.run_solver", n);
        const double r0 = wall();
        stats = run_solver(session->cluster(), d.solver.validated(),
                           session->machine());
        solve = wall() - r0;
      }
      const CommStats& after = session->cluster().stats();
      const double t4 = wall();
      {
        pb::Tracer::Scope s(run.tracer, "api.finish_solve", n);
        session->finish_solve(stats);
      }
      const double t5 = wall();
      run.check(stats.converged, "api probe solve did not converge");
      news.push_back(t1 - t0);
      resets.push_back(t2 - t1);
      prepares.push_back(t3 - t2);
      finishes.push_back(t5 - t4);
      msgs.push_back(static_cast<double>(after.messages - before.messages));
      bytes.push_back(
          static_cast<double>(after.message_bytes - before.message_bytes));
      reds.push_back(static_cast<double>(after.reductions - before.reductions));
      ratio.push_back(model_seconds(*session, d.solver.validated(), stats) /
                      solve);
    }
    largest = std::move(session);
  }
  run.report.add("api.session_new_s", pb::median(news), "s");
  run.report.add("api.reset_s", pb::median(resets), "s");
  run.report.add("api.prepare_s", pb::median(prepares), "s");
  run.report.add("api.finish_s", pb::median(finishes), "s");
  run.report.add("comm.msgs_per_solve", pb::median(msgs), "count");
  run.report.add("comm.bytes_per_solve", pb::median(bytes), "bytes");
  run.report.add("comm.reductions_per_solve", pb::median(reds), "count");
  run.report.add("model.pred_over_meas", pb::median(ratio), "ratio");

  probe_util(run);
  probe_mtx(run);
  // Kernel probes on the largest 2-D request shape; the multigrid probe
  // runs inside probe_kernels on its rank-0 chunk.
  probe_kernels(run, *largest, largest->deck().solver.validated(), env);
}

// ---------------------------------------------------------------------------
// Environment and entry point
// ---------------------------------------------------------------------------

/// Keep every thread busy for a second before anything is timed.  On a
/// virtual machine an idle vCPU is descheduled by the host and the first
/// work after an idle spell runs up to a second late; this is the
/// benchmark's own warm-up, outside every metric.
void spin_up() {
  const double stop = wall() + 1.0;
  parallel_region([&](const Team&) {
    volatile double x = 0.0;
    while (wall() < stop) x = x + 1.0;
  });
}

/// Refuse builds whose timings would mislead: unoptimised, assertions on,
/// or sanitizers.
std::string build_problem() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build";
#elif !defined(NDEBUG)
  return "assertions enabled (Debug-style build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type " + type;
  }
  return "";
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  try {
    const Args args(argc, argv);
    run.workload = args.get("workload", "");
    run.seed = static_cast<std::uint64_t>(std::stoull(args.get("seed", "1")));
    run.seconds = args.get_double("seconds", 10.0);
    run.trace = args.get_int("trace", 0) != 0;
    run.root = args.get("root", ".");
    run.workdir = args.get("workdir", ".");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  if (run.workload != "pipe_ppcg" && run.workload != "brick3d_csr_mixed" &&
      run.workload != "server_stream") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 run.workload.c_str());
    return 2;
  }
  if (const std::string why = build_problem(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s\n",
                 why.c_str());
    return 2;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int wanted = run.workload == "pipe_ppcg"           ? kPipeThreads
                     : run.workload == "brick3d_csr_mixed" ? kBrickThreads
                                                           : kStreamThreads;
  const int threads = std::min(wanted, std::max(1, nproc));
#if defined(TEALEAF_HAVE_OPENMP)
  omp_set_num_threads(threads);
#endif
  std::filesystem::create_directories(run.workdir);
  spin_up();
  run.tracer.set_enabled(run.trace);

  io::JsonValue env = io::JsonValue::object();
  env.set("workload", run.workload);
  env.set("seed", static_cast<long long>(run.seed));
  env.set("trace", run.trace);
  env.set("threads", num_threads());
  env.set("nproc", nproc);
  env.set("compiler", std::string(__VERSION__));
  env.set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  // glibc answers these from cpuid, without reading files.
  env.set("l2_bytes", static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  env.set("l3_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  for (const char* var :
       {"OMP_WAIT_POLICY", "GOMP_SPINCOUNT", "OMP_NUM_THREADS"}) {
    const char* v = std::getenv(var);
    env.set(var, v != nullptr ? std::string(v) : std::string("unset"));
  }

  try {
    if (run.workload == "server_stream") {
      env.set("ranks", kStreamRanks);
      env.set("paced_rate_per_s", kPacedRate);
      env.set("burst_size", kBurstSize);
      run_server_workload(run, env);
    } else {
      const DeckSpec spec = run.workload == "pipe_ppcg" ? pipe_spec(run)
                                                        : brick_spec(run);
      env.set("ranks", spec.ranks);
      env.set("steps_per_solve", spec.steps);
      run_deck_workload(run, spec, env);
    }
  } catch (const std::exception& e) {
    run.check(false, std::string("workload aborted: ") + e.what());
    ++run.failed;
    run.attempted = std::max(run.attempted, run.failed);
  }
  if (run.trace) {
    run.report.add("fail_frac",
                   run.attempted > 0 ? static_cast<double>(run.failed) /
                                           static_cast<double>(run.attempted)
                                     : 1.0,
                   "fraction");
    const std::string dir = run.workdir + "/traces";
    std::filesystem::create_directories(dir);
    const std::string path =
        dir + "/" + run.workload + "-seed" + std::to_string(run.seed) + ".json";
    std::ofstream(path) << pb::trace_json(run.tracer.spans()).dump(1) << "\n";
    env.set("trace_file", path);
  }
  for (const std::string& e : run.report.errors()) run.check(false, e);
  for (const std::string& f : run.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  const bool correct = run.check_failures.empty() && run.failed == 0;
  std::printf("{\"env\": %s}\n", env.dump().c_str());
  std::printf(
      "%s\n",
      run.report.result_line(correct, run.attempted, run.failed).c_str());
  return correct ? 0 : 1;
}
