#pragma once

#include <string>
#include <vector>

#include "driver/sweep.hpp"
#include "model/machine.hpp"
#include "server/route_db.hpp"
#include "solvers/solver_config.hpp"

namespace tealeaf {

/// Online-refinement policy: how measured per-request latencies fold back
/// into the table's ranking (ROADMAP "online refinement à la Xabclib").
struct RouteLearnOptions {
  /// Observations before a cell's EWMA is trusted: below this the blend
  /// weight stays small and the demotion rule does not fire.
  int min_observations = 3;
  /// Demote a route once EWMA(measured) / predicted exceeds this.  Must
  /// be > 1 — a ratio of 2 means "twice as slow as the sweep promised".
  double demote_ratio = 2.0;
  /// Weight of the newest sample in the EWMA.
  double ewma_alpha = 0.3;
};

/// What one observe()/observe_breakdown() call did to the table's state —
/// the example prints promotion/demotion events from these.
struct ObserveOutcome {
  std::string shape;           ///< shape key the observation landed in
  long long observations = 0;  ///< cell total after this sample
  double ewma_seconds = 0.0;
  bool demoted = false;
  bool newly_demoted = false;   ///< this sample tripped the demotion rule
  bool newly_promoted = false;  ///< this sample cleared an earlier demotion
};

/// One routable configuration: a sweep cell that converged, reduced to
/// what the server needs to reproduce it — solver × preconditioner ×
/// matrix-powers depth × geometry × operator × precision,
/// plus the evidence (measured or model-projected seconds) that ranked
/// it.
struct RouteEntry {
  SolverConfig config;
  int threads = 0;      ///< thread count the cell was measured with
  int mesh_n = 0;       ///< mesh edge the evidence comes from
  int dims = 2;
  double seconds = 0.0; ///< per-step solve seconds backing the ranking
  bool projected = false;  ///< seconds came from the scaling model

  /// Online-refinement annotations (populated by RoutingTable::route when
  /// the table holds a RouteDatabase).  `seconds` above is then the
  /// blended estimate; the raw sweep/model prediction stays here so the
  /// demotion ratio never divides by its own feedback.
  double predicted_seconds = 0.0;
  long long observations = 0;  ///< measured latencies behind the blend
  bool learned = false;        ///< observations reached min_observations
  bool demoted = false;        ///< ranked below every non-demoted entry

  /// Compact identifier in the sweep's label style, led by
  /// to_string(config.type), e.g. "ppcg/jac_diag/d4/n512" ("~" prefix
  /// when model-projected).
  [[nodiscard]] std::string label() const;

  /// Database key for this route: label() minus the mesh size (the shape
  /// key carries it) and minus the "~" projection marker, e.g.
  /// "ppcg/jac_diag/d4".  Includes the precision suffix, so fp32 /
  /// mixed evidence lives in its own cell.
  [[nodiscard]] std::string route_key() const;

  /// Construction-time misuse check: config.validated(), the rules the
  /// sweep skips cells by (mg-pcg's constraints included).  Returns
  /// *this.
  [[nodiscard]] RouteEntry validated() const;
};

/// Ranked solver selection per problem shape, built from a design-space
/// sweep's result table (typically the nightly sweep JSON artifact).
/// For a shape the sweep measured, ranking is by measured seconds; for an
/// unseen mesh size, the nearest measured mesh's entries are re-ranked by
/// the scaling model's projection (iterations ∝ n — model/trace.hpp).
class RoutingTable {
 public:
  RoutingTable() = default;

  /// Keep every converged, non-skipped cell of the report.
  [[nodiscard]] static RoutingTable from_sweep(const SweepReport& report);
  [[nodiscard]] static RoutingTable from_json_string(const std::string& text);
  [[nodiscard]] static RoutingTable from_json_file(const std::string& path);

  /// Ranked viable entries for a shape, best first.  mg-pcg entries are
  /// filtered out when nranks > 1 (the baseline solves the undecomposed
  /// grid) and entries whose validated() fails are dropped.  Empty when
  /// the table holds nothing viable for `dims`.
  ///
  /// When the table holds online evidence (merge_database / observe), each
  /// entry is annotated from its (shape, route) cell: `seconds` becomes a
  /// gradual blend of the sweep/model prediction and the measured EWMA
  /// (weight observations / (observations + min_observations)), and
  /// demoted entries sort below every non-demoted viable entry regardless
  /// of their blended seconds.
  [[nodiscard]] std::vector<RouteEntry> route(
      int dims, int mesh_n, int nranks,
      const MachineSpec& machine = machines::spruce_hybrid()) const;

  /// Database key for a problem shape, e.g. "2d/n48/r2".
  [[nodiscard]] static std::string shape_key(int dims, int mesh_n,
                                             int nranks);

  /// Fold one measured per-request latency into (shape, route_key).
  /// `predicted_seconds` must be the route's RAW sweep/model prediction
  /// (RouteEntry::predicted_seconds), never the blended `seconds` — the
  /// demotion ratio compares machine reality against the offline promise.
  /// Once the cell holds min_observations samples the rule runs both
  /// ways: EWMA/predicted > demote_ratio demotes, and a breakdown-free
  /// cell back inside the ratio is promoted again.
  ObserveOutcome observe(int dims, int mesh_n, int nranks,
                         const std::string& route_key,
                         double measured_seconds, double predicted_seconds);

  /// A numerical breakdown: counts as an observation and demotes
  /// immediately (the failed solve is stronger evidence than any ratio).
  ObserveOutcome observe_breakdown(int dims, int mesh_n, int nranks,
                                   const std::string& route_key);

  void set_learning(RouteLearnOptions opts);
  [[nodiscard]] const RouteLearnOptions& learning() const { return learn_; }

  /// Fold a persisted database in (RouteDatabase::merge semantics — the
  /// side with more observations decides demotions).
  void merge_database(const RouteDatabase& db) { db_.merge(db); }
  [[nodiscard]] const RouteDatabase& database() const { return db_; }

  /// A seed database from this table's own measured cells: every cell
  /// becomes one observation whose EWMA and prediction are its measured
  /// seconds.  The sweep driver persists these so nightly artifacts can
  /// prime a server's online statistics.
  [[nodiscard]] RouteDatabase seed_database() const;

  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] std::size_t size() const { return cells_.size(); }
  [[nodiscard]] int sweep_ranks() const { return ranks_; }

 private:
  struct MeasuredCell {
    RouteEntry entry;
    /// Iteration structure backing the scaling-model projection.
    int iterations = 0;
    long long inner_steps = 0;
  };

  std::vector<MeasuredCell> cells_;
  int ranks_ = 0;
  int steps_ = 1;  ///< timesteps each cell ran (seconds are per cell run)
  RouteLearnOptions learn_;
  RouteDatabase db_;  ///< accumulated online evidence, persisted via save()
};

}  // namespace tealeaf
