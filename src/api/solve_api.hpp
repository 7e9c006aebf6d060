#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/sim_comm.hpp"
#include "driver/deck.hpp"
#include "model/machine.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// The cached identity of a solve problem: everything that determines the
/// size (and so the reusable allocation) of a SimCluster — geometry, cell
/// counts, decomposition width and halo allocation.  Two requests with
/// equal shapes can run on the same session after a `reset`; coefficients
/// and right-hand side are NOT part of the shape.
struct ProblemShape {
  int dims = 2;
  int nx = 0;
  int ny = 0;
  int nz = 1;
  int nranks = 1;
  int halo = 2;  ///< halo allocation depth (max(2, matrix-powers depth))
  /// Operator representation the deck asks for.  Part of the shape so an
  /// assembled-operator session (which carries matrix storage) is never
  /// handed to a stencil request or vice versa.
  OperatorKind op = OperatorKind::kStencil;
  /// Storage precision the deck asks for.  Part of the shape so a session
  /// whose chunks carry (or lack) the fp32 field bank and fp32 assembled
  /// matrices is never handed to a request of the other precision — and
  /// so eigenvalue memos never leak between fp64 and fp32 operators.
  Precision precision = Precision::kDouble;

  [[nodiscard]] static ProblemShape of(const InputDeck& deck, int nranks,
                                       int halo);

  /// Stable cache key, e.g. "2d/512x512x1/r4/h2"; assembled-operator
  /// shapes append the kind ("…/h2/csr") and non-double precisions append
  /// "/f32" or "/mixed", so legacy stencil/double keys are unchanged.
  [[nodiscard]] std::string key() const;

  [[nodiscard]] bool operator==(const ProblemShape&) const = default;
};

/// One unit of work for the solve service: the problem (shape +
/// coefficients + right-hand side, all carried by the deck) plus an
/// optional solver-configuration override.  Without an override the
/// server routes the request through its RoutingTable (falling back to
/// `deck.solver` when no table is loaded).
struct SolveRequest {
  InputDeck deck;
  int nranks = 4;
  /// Explicit configuration override: skip routing and run exactly this.
  std::optional<SolverConfig> config;
  /// Caller correlation id, echoed into the SolveResult.
  std::string tag;
};

/// What came back.  `stats` describes the FINAL attempt only; iterations
/// burned by failed attempts live in `failed_attempt_iters` so aggregate
/// accounting (RunResult::total_outer_iters) never double-counts a
/// re-routed request.
struct SolveResult {
  SolveStats stats;
  SolverConfig config;        ///< configuration of the final attempt
  std::string route_label;    ///< routing-table entry label ("" = explicit)
  /// Solves run for this request: 1, 2 after a re-route, 0 when its
  /// configuration could not run at all (see `reroute_reason`).
  int attempts = 1;
  /// Work burned by attempts that broke down before the final one:
  /// outer iterations (incl. eigen presteps) plus inner Chebyshev steps.
  /// NOT included in `stats`.
  long long failed_attempt_iters = 0;
  bool cache_hit = false;     ///< session came from the shape cache
  bool rerouted = false;      ///< breakdown triggered the one-shot re-route
  /// The failed first attempt's breakdown_reason when `rerouted` (`stats`
  /// carries the final attempt's own); when `attempts` is 0, why the
  /// configuration was rejected before any solve (an invalid override).
  std::string reroute_reason;
  bool batched = false;       ///< solved through the sub-team batch engine
  /// Wall time of this request's solve (batched requests share their
  /// batch's wall time, a solo solve is timed alone; a re-routed request
  /// adds its retry).
  double latency_seconds = 0.0;
  /// Online-refinement view of the final route (zero / false when the
  /// request ran an explicit override or the server has no table).
  /// `route_observations` counts the measured latencies behind the
  /// route's database cell AFTER this request's own observation (when
  /// learning is on); `predicted_route_seconds` is the raw sweep/model
  /// prediction the demotion ratio divides by.
  long long route_observations = 0;
  bool route_learned = false;   ///< cell reached min_observations
  bool route_demoted = false;   ///< final route is currently demoted
  double predicted_route_seconds = 0.0;
  std::string tag;

  [[nodiscard]] bool ok() const { return stats.converged; }
};

/// Volume-weighted diagnostics over the whole domain (upstream
/// field_summary kernel).
struct FieldSummary {
  double volume = 0.0;    ///< Σ cell areas
  double mass = 0.0;      ///< Σ ρ·dA
  double ie = 0.0;        ///< Σ ρ·e·dA (internal energy)
  double temp = 0.0;      ///< Σ u·dA
  /// Domain-average temperature (the quantity of Fig. 4).
  [[nodiscard]] double avg_temp() const {
    return volume > 0.0 ? temp / volume : 0.0;
  }
};

/// Handle that owns everything reusable about a solve problem: the
/// SimCluster (decomposition, field allocations, halo depth) and the
/// eigenvalue estimates of the current operator.  This is the ONE entry
/// path onto the solvers — TeaLeafApp, the sweep and the solve server
/// all hold sessions instead of hand-rolling cluster setup.
///
/// One `solve()` performs one implicit conduction step exactly as the
/// driver's timestep always has: full-depth material exchange, u/u0 and
/// conduction-coefficient rebuild, A·u = u0, energy recovery — so a
/// session solve is bitwise identical to the pre-PR6 TeaLeafApp::step.
class SolveSession {
 public:
  /// Build the cluster and initialise fields from the deck.  Halo depth
  /// is sized for the deck solver's matrix-powers configuration;
  /// `halo_override` > 0 forces a deeper allocation (the server uses this
  /// to size sessions for the deepest routed configuration).
  /// Throws TeaError on an invalid deck.
  explicit SolveSession(const InputDeck& deck, int nranks = 4,
                        int halo_override = 0);

  /// Re-initialise density/energy/u from a (possibly different) deck of
  /// the SAME shape — the cache-reuse path.  Cheap: no allocation.  The
  /// eigenvalue memo survives only when the new deck text matches the
  /// current one (same deck ⇒ same operator); any change clears it.
  /// Throws TeaError when the shape differs.
  void reset(const InputDeck& deck);

  /// One implicit conduction step with the deck's own solver config.
  SolveStats solve() { return solve(deck_.solver); }

  /// One implicit conduction step with an explicit configuration
  /// (validated() is applied — entry-layer misuse checks).  Remembers the
  /// eigenvalue estimates of a successful Chebyshev/PPCG solve.
  SolveStats solve(const SolverConfig& cfg);

  /// Batch-engine split of `solve()`: `prepare` runs the standalone
  /// pre-solve phases (exchange, u/u0, conduction build) OUTSIDE any
  /// region; `solve_prepared_team` runs only the solver on the caller's
  /// team (every thread, identical args — see run_solver_team);
  /// `finish_solve` recovers energy and advances the session clock.
  /// cfg must already be validated and halo-compatible.
  /// `prepare(op)` additionally installs the operator representation the
  /// coming solve will traverse: kStencil clears any assembled matrix;
  /// kCsr / kSellCSigma assemble the freshly built conduction stencil into
  /// CSR (and SELL-C-σ) per chunk — values rebuilt every prepare on the
  /// chunk's kept index pattern, old values released first — or, when the
  /// deck names a matrix_file, load that Matrix Market operator instead
  /// (single-rank, 2-D; the file is parsed once and memoised by path).
  void prepare() { prepare(deck_.solver.op); }
  void prepare(OperatorKind op);
  [[nodiscard]] SolveStats solve_prepared_team(const SolverConfig& cfg,
                                               const Team& team);
  void finish_solve(const SolveStats& stats);

  [[nodiscard]] FieldSummary field_summary();

  [[nodiscard]] const ProblemShape& shape() const { return shape_; }
  [[nodiscard]] SimCluster2D& cluster() { return *cluster_; }
  [[nodiscard]] const InputDeck& deck() const { return deck_; }
  [[nodiscard]] double sim_time() const { return sim_time_; }
  [[nodiscard]] int solves_taken() const { return solves_taken_; }

  /// Eigenvalue memo: the widened [λmin, λmax] of the session's current
  /// operator, remembered from the last successful Chebyshev/PPCG solve.
  /// `with_eig_hints` copies them into a config (no-op when nothing is
  /// remembered or the solver takes no hints) so repeat solves skip the
  /// CG presteps — the server's opt-in amortisation.  Hinted solves are
  /// faster but not bitwise-equal to prestepped ones.
  [[nodiscard]] bool has_eig_estimate() const { return eig_max_ > 0.0; }
  [[nodiscard]] SolverConfig with_eig_hints(SolverConfig cfg) const;
  void forget_eig_estimate() { eig_min_ = eig_max_ = 0.0; }

  /// Machine a scaling model prices the session's runs against by
  /// default (spruce_hybrid, as SweepOptions).  The solve itself needs no
  /// machine: the engine derives its row-blocks from the thread team.
  [[nodiscard]] static MachineSpec machine() {
    return machines::spruce_hybrid();
  }

 private:
  InputDeck deck_;
  ProblemShape shape_;
  std::unique_ptr<SimCluster2D> cluster_;
  double sim_time_ = 0.0;
  int solves_taken_ = 0;
  double eig_min_ = 0.0;
  double eig_max_ = 0.0;
  /// Matrix Market memo: the CSR built from deck_.matrix_file, keyed by
  /// the path it came from (reloaded only when the path changes).
  std::string loaded_matrix_path_;
  std::shared_ptr<const CsrMatrix> loaded_matrix_;
};

/// Shape-keyed pool of sessions: the solve server's working set.  A batch
/// of B same-shape requests borrows B sessions of that shape (growing the
/// pool on demand); hit/miss counters record the reuse rate and a simple
/// LRU policy over shapes bounds the total session count.
class SessionCache {
 public:
  explicit SessionCache(std::size_t max_sessions = 8)
      : max_sessions_(max_sessions) {}

  /// Borrow `count` sessions for the given shape, constructing what the
  /// pool lacks.  Each returned session still holds its previous deck's
  /// fields — `reset` it before use.  Pointers stay valid until the next
  /// `acquire` (which may evict other shapes, never the one returned).
  std::vector<SolveSession*> acquire(const InputDeck& deck, int nranks,
                                     int halo, int count);

  [[nodiscard]] long long hits() const { return hits_; }
  [[nodiscard]] long long misses() const { return misses_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t shapes() const { return pool_.size(); }
  [[nodiscard]] std::size_t max_sessions() const { return max_sessions_; }

 private:
  struct ShapeEntry {
    std::vector<std::unique_ptr<SolveSession>> sessions;
    long long last_use = 0;
  };

  std::size_t max_sessions_;
  long long clock_ = 0;
  long long hits_ = 0;
  long long misses_ = 0;
  std::map<std::string, ShapeEntry> pool_;
};

}  // namespace tealeaf
