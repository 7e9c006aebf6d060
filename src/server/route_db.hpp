#pragma once

#include <map>
#include <string>

#include "io/json.hpp"

namespace tealeaf {

/// Accumulated online evidence for one (problem shape, route) cell: what
/// the server has actually measured for this configuration on THIS
/// machine, as opposed to what the sweep or the scaling model predicted.
struct RouteObservation {
  /// Exponentially weighted moving average of the measured per-request
  /// seconds (RouteLearnOptions::ewma_alpha weighting).
  double ewma_seconds = 0.0;
  /// The table's sweep/model prediction in force at the last observation
  /// — the denominator of the demotion ratio, kept so a persisted
  /// database can explain WHY an entry was demoted.
  double predicted_seconds = 0.0;
  long long observations = 0;  ///< measured latencies folded into the EWMA
  long long breakdowns = 0;    ///< numerical breakdowns on this route
  /// The route's observed behaviour disagreed with its prediction beyond
  /// the demotion ratio (or it broke down): ranked below every
  /// non-demoted viable entry until fresh evidence clears it.
  bool demoted = false;
};

/// Persistent store of the online routing statistics, keyed by problem
/// shape ("2d/n48/r2") then route ("cg/none/d1/b32") — the route key
/// deliberately excludes the mesh size (shape carries it) and includes
/// the precision, so fp32/mixed evidence can never leak into a double
/// route's cell.  Serialises as versioned JSON; `merge` folds another
/// database in (multiple servers or sweep seeds compound), with the
/// entry holding MORE observations deciding the demotion flag so a stale
/// database can never resurrect a demoted route.
///
/// std::map keys iterate sorted and numbers serialise via the JSON
/// layer's round-trip-exact %.17g, so save → load → save is bitwise
/// stable — asserted by tests/test_route_refinement.cpp.
class RouteDatabase {
 public:
  /// Schema version of the JSON form; load() rejects files whose version
  /// it does not understand instead of guessing at their fields.
  /// Version 2 dropped the retired fused/pipelined engine tiers: a
  /// version 1 file (or a route key carrying "/fused" or "/pipe") was
  /// timed on engines that no longer exist and is rejected with a
  /// re-run-the-sweep error, never silently re-ranked.
  static constexpr int kVersion = 2;

  /// Fold one measured latency into (shape, route): EWMA update with
  /// weight `alpha` on the new sample (first sample initialises), count
  /// increment, prediction refresh.  Returns the updated cell.
  RouteObservation& record(const std::string& shape, const std::string& route,
                           double measured_seconds, double predicted_seconds,
                           double alpha);

  /// A numerical breakdown on (shape, route): counted as an observation,
  /// and strong enough negative evidence to demote immediately — the
  /// server already paid a failed solve to learn it.
  RouteObservation& record_breakdown(const std::string& shape,
                                     const std::string& route);

  void demote(const std::string& shape, const std::string& route);

  /// nullptr when the cell has never been observed.
  [[nodiscard]] const RouteObservation* find(const std::string& shape,
                                             const std::string& route) const;

  /// Fold `other` in.  Disjoint cells copy over; colliding cells combine
  /// observation-count-weighted EWMAs and sum the counts, and the side
  /// with more observations decides `demoted` and `predicted_seconds`
  /// (ties keep a demotion in force — evidence of equal weight never
  /// clears one).
  void merge(const RouteDatabase& other);

  [[nodiscard]] bool empty() const { return cells_.empty(); }
  /// Total (shape, route) cells held.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t shapes() const { return cells_.size(); }
  /// Cells with at least `min_observations` measured latencies — the
  /// "learned" count the server smoke asserts on.
  [[nodiscard]] long long learned(int min_observations) const;
  /// Cells currently demoted.
  [[nodiscard]] long long demotions() const;

  [[nodiscard]] io::JsonValue to_json() const;
  [[nodiscard]] static RouteDatabase from_json(const io::JsonValue& doc);

  void save(const std::string& path) const;
  /// Throws TeaError when the file cannot be read or carries an unknown
  /// schema version.
  [[nodiscard]] static RouteDatabase load(const std::string& path);
  /// Empty database when the file does not exist (first run of a server
  /// pointed at a fresh path); still throws on malformed content.
  [[nodiscard]] static RouteDatabase load_if_exists(const std::string& path);

  /// Ordered iteration for reporting (shape → route → observation).
  [[nodiscard]] const std::map<std::string,
                               std::map<std::string, RouteObservation>>&
  cells() const {
    return cells_;
  }

 private:
  std::map<std::string, std::map<std::string, RouteObservation>> cells_;
};

}  // namespace tealeaf
