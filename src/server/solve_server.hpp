#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "api/solve_api.hpp"
#include "driver/tealeaf_app.hpp"
#include "server/routing.hpp"

namespace tealeaf {

struct ServerOptions {
  /// Largest same-shape coalesced batch handed to the sub-team engine.
  int max_batch = 8;
  /// Session-cache capacity (SessionCache LRU bound).
  std::size_t max_sessions = 8;
  /// Seed Chebyshev/PPCG solves with the session's remembered eigenvalue
  /// estimates, skipping the CG presteps.  Opt-in: hinted solves are
  /// faster but not bitwise-equal to prestepped ones, so the default
  /// keeps the batch ≡ solo invariant byte-exact.
  bool reuse_eigen_estimates = false;
  /// On numerical breakdown, retry the request ONCE: hint-seeded solves
  /// fall back to the prestepped form of the same route, otherwise the
  /// next-ranked routing entry runs.
  bool reroute_on_failure = true;
  /// Ranked configuration table (e.g. from the nightly sweep JSON).
  /// Empty ⇒ every request runs its deck's own solver config.
  RoutingTable routes;
  /// Feed each converged request's measured latency back into the table
  /// (RoutingTable::observe): routes whose observed seconds disagree with
  /// the prediction beyond learn.demote_ratio are demoted online, and
  /// breakdown re-routes demote the broken route immediately.
  bool learn_routes = false;
  /// Online-refinement policy (min observations, demotion ratio, EWMA
  /// weight).  Validated at construction via RoutingTable::set_learning.
  RouteLearnOptions learn;
  /// Versioned RouteDatabase path: merged into the table at construction
  /// when the file exists (merge-on-load — multiple servers compound),
  /// written back by save_route_db().
  std::string route_db_path;
  /// Test hook: when set, replaces the measured seconds handed to
  /// observe() with its return value (arguments: route key, measured
  /// seconds).  Lets tests drive deterministic latencies through the
  /// real learning path.  Never affects latency_seconds reporting.
  std::function<double(const std::string&, double)> learn_latency_hook;
};

/// Service-side counters.  Latency quantiles are per-request wall times
/// (a batched request's latency is its batch's wall time — requests wait
/// for their batch; a solo solve's is its own).
struct ServerStats {
  long long requests = 0;
  long long batches = 0;            ///< drain flushes handed to the engine
  long long batched_requests = 0;   ///< requests that shared a batch (B > 1)
  long long cache_hits = 0;         ///< session reuse (SessionCache)
  long long cache_misses = 0;
  long long reroutes = 0;           ///< breakdown-triggered retries
  long long failures = 0;           ///< requests whose final attempt failed
  long long route_observations = 0; ///< latencies fed back into the table
  long long demotions = 0;          ///< routes newly demoted this server
  long long promotions = 0;         ///< demotions cleared by fresh evidence
  double busy_seconds = 0.0;        ///< wall time spent solving in drain()
  std::vector<double> latencies;    ///< per-request seconds, arrival order

  [[nodiscard]] double p50() const { return percentile(0.50); }
  [[nodiscard]] double p99() const { return percentile(0.99); }
  /// Completed requests per busy second.
  [[nodiscard]] double throughput() const {
    return busy_seconds > 0.0 ? static_cast<double>(requests) / busy_seconds
                              : 0.0;
  }
  [[nodiscard]] double percentile(double q) const;
};

/// Long-lived solve service: accepts a stream of SolveRequests, coalesces
/// same-shape requests into sub-team batches over a pool of cached
/// sessions, routes each request to the sweep-ranked configuration for
/// its shape, and retries numerical breakdowns once on the next-ranked
/// route.  All solves go through SolveSession — the server is a scheduler
/// in front of the one entry path, not a fourth solver path.
class SolveServer {
 public:
  explicit SolveServer(ServerOptions opts = {});

  /// Queue a request.  Nothing runs until drain().
  void submit(SolveRequest req);

  /// Run every queued request: group by problem shape (preserving arrival
  /// order within a group), borrow sessions from the cache, solve each
  /// group through the batch engine in chunks of at most max_batch, then
  /// apply the one-shot breakdown re-route to any failed item.  A request
  /// whose configuration cannot run fails alone (attempts = 0, reason in
  /// reroute_reason) instead of throwing.  Results return in arrival
  /// order.
  [[nodiscard]] std::vector<SolveResult> drain();

  /// submit + drain for a single request.
  [[nodiscard]] SolveResult solve_one(SolveRequest req);

  /// Run a whole time-stepped simulation through the server: one routed
  /// request per step on one persistent session (steps are sequential —
  /// each consumes the previous step's energy).  Demonstrates the
  /// re-route accounting: RunResult::total_outer_iters counts final
  /// attempts only; failed-attempt iterations land in
  /// total_failed_attempt_iters.
  [[nodiscard]] RunResult run(const InputDeck& deck, int nranks);

  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] const SessionCache& sessions() const { return cache_; }
  [[nodiscard]] const ServerOptions& options() const { return opts_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  /// The live routing table, including whatever the server has learned so
  /// far (its RouteDatabase grows as drain()/run() observe latencies).
  [[nodiscard]] const RoutingTable& routes() const { return opts_.routes; }

  /// Persist the accumulated RouteDatabase to options().route_db_path.
  /// Throws TeaError when no path was configured.
  void save_route_db() const;

 private:
  /// The configuration a request will run: its explicit override, else
  /// the best viable routing entry (label reported), else the deck's own
  /// solver config.  Routed entries overlay the structural axes (solver ×
  /// precon × depth × operator × precision) onto the deck config,
  /// keeping the deck's tolerances.  `max_halo` constrains
  /// re-route candidates to fit an already-allocated session.
  struct Routed {
    SolverConfig config;
    std::string label;
    /// Ranked alternatives for the breakdown re-route (excludes `config`).
    std::vector<RouteEntry> fallbacks;
    /// Online-refinement identity of the chosen entry ("" = explicit
    /// override or deck fallback — nothing to learn against).
    std::string route_key;
    double predicted_seconds = 0.0;  ///< raw sweep/model prediction
    long long observations = 0;
    bool learned = false;
    bool demoted = false;
  };
  [[nodiscard]] Routed route_request(const SolveRequest& req,
                                     int max_halo = 0) const;

  ServerOptions opts_;
  SessionCache cache_;
  ServerStats stats_;
  std::deque<SolveRequest> queue_;
};

}  // namespace tealeaf
