#include "server/route_db.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace tealeaf {

namespace {

/// True when a route key carries a retired engine segment: an engine
/// tier ("fused", "pipe") or an explicit row-block height ("b<rows>").
bool has_retired_engine_segment(const std::string& route_key) {
  std::istringstream in(route_key);
  std::string seg;
  while (std::getline(in, seg, '/')) {
    if (seg == "fused" || seg == "pipe") return true;
    if (seg.size() > 1 && seg[0] == 'b' &&
        seg.find_first_not_of("0123456789", 1) == std::string::npos) {
      return true;
    }
  }
  return false;
}

}  // namespace

RouteObservation& RouteDatabase::record(const std::string& shape,
                                        const std::string& route,
                                        double measured_seconds,
                                        double predicted_seconds,
                                        double alpha) {
  TEA_REQUIRE(measured_seconds >= 0.0,
              "route db: measured seconds must be non-negative");
  TEA_REQUIRE(alpha > 0.0 && alpha <= 1.0,
              "route db: EWMA alpha must be in (0, 1]");
  RouteObservation& obs = cells_[shape][route];
  obs.ewma_seconds = obs.observations == 0
                         ? measured_seconds
                         : alpha * measured_seconds +
                               (1.0 - alpha) * obs.ewma_seconds;
  obs.predicted_seconds = predicted_seconds;
  ++obs.observations;
  return obs;
}

RouteObservation& RouteDatabase::record_breakdown(const std::string& shape,
                                                  const std::string& route) {
  RouteObservation& obs = cells_[shape][route];
  ++obs.observations;
  ++obs.breakdowns;
  obs.demoted = true;
  return obs;
}

void RouteDatabase::demote(const std::string& shape,
                           const std::string& route) {
  cells_[shape][route].demoted = true;
}

const RouteObservation* RouteDatabase::find(const std::string& shape,
                                            const std::string& route) const {
  const auto s = cells_.find(shape);
  if (s == cells_.end()) return nullptr;
  const auto r = s->second.find(route);
  return r == s->second.end() ? nullptr : &r->second;
}

void RouteDatabase::merge(const RouteDatabase& other) {
  for (const auto& [shape, routes] : other.cells_) {
    for (const auto& [route, theirs] : routes) {
      auto& routes_here = cells_[shape];
      const auto it = routes_here.find(route);
      if (it == routes_here.end()) {
        routes_here.emplace(route, theirs);
        continue;
      }
      RouteObservation& ours = it->second;
      const long long total = ours.observations + theirs.observations;
      if (total > 0) {
        // Count-weighted combination so two servers' evidence compounds
        // instead of the later load overwriting the earlier.
        ours.ewma_seconds =
            (ours.ewma_seconds * static_cast<double>(ours.observations) +
             theirs.ewma_seconds * static_cast<double>(theirs.observations)) /
            static_cast<double>(total);
      }
      // The side with MORE observations decides the demotion flag and the
      // prediction snapshot; a tie keeps a demotion in force.  This is the
      // no-resurrection rule: a stale database entry with fewer
      // observations can never clear a demotion backed by more evidence.
      if (theirs.observations > ours.observations) {
        ours.demoted = theirs.demoted;
        ours.predicted_seconds = theirs.predicted_seconds;
      } else if (theirs.observations == ours.observations) {
        ours.demoted = ours.demoted || theirs.demoted;
      }
      ours.observations = total;
      ours.breakdowns += theirs.breakdowns;
    }
  }
}

std::size_t RouteDatabase::size() const {
  std::size_t n = 0;
  for (const auto& [shape, routes] : cells_) n += routes.size();
  return n;
}

long long RouteDatabase::learned(int min_observations) const {
  long long n = 0;
  for (const auto& [shape, routes] : cells_) {
    for (const auto& [route, obs] : routes) {
      if (obs.observations >= min_observations) ++n;
    }
  }
  return n;
}

long long RouteDatabase::demotions() const {
  long long n = 0;
  for (const auto& [shape, routes] : cells_) {
    for (const auto& [route, obs] : routes) {
      if (obs.demoted) ++n;
    }
  }
  return n;
}

io::JsonValue RouteDatabase::to_json() const {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("version", kVersion);
  io::JsonValue shapes = io::JsonValue::object();
  for (const auto& [shape, routes] : cells_) {
    io::JsonValue routes_json = io::JsonValue::object();
    for (const auto& [route, obs] : routes) {
      io::JsonValue cell = io::JsonValue::object();
      cell.set("ewma_seconds", obs.ewma_seconds);
      cell.set("predicted_seconds", obs.predicted_seconds);
      cell.set("observations", obs.observations);
      cell.set("breakdowns", obs.breakdowns);
      cell.set("demoted", obs.demoted);
      routes_json.set(route, std::move(cell));
    }
    shapes.set(shape, std::move(routes_json));
  }
  doc.set("shapes", std::move(shapes));
  return doc;
}

RouteDatabase RouteDatabase::from_json(const io::JsonValue& doc) {
  const int version = static_cast<int>(doc.at("version").as_number());
  if (version == 1) {
    throw TeaError(
        "route db: version 1 databases were timed on the retired "
        "fused/pipelined engine tiers, so their evidence no longer "
        "describes any route — re-run the sweep (design_space_sweep "
        "--route-db) to record a version " +
        std::to_string(kVersion) + " database");
  }
  TEA_REQUIRE(version == kVersion,
              "route db: unknown schema version " + std::to_string(version) +
                  " (this build reads version " + std::to_string(kVersion) +
                  ")");
  RouteDatabase db;
  for (const auto& [shape, routes] : doc.at("shapes").members()) {
    for (const auto& [route, cell] : routes.members()) {
      TEA_REQUIRE(!has_retired_engine_segment(route),
                  "route db: route '" + route + "' names a retired engine "
                  "setting (/fused, /pipe, or a /b<rows> row-block height "
                  "— the engine now derives its blocks from the team); its "
                  "timings no longer describe any route — re-run the sweep "
                  "to record a fresh database");
      RouteObservation obs;
      obs.ewma_seconds = cell.at("ewma_seconds").as_number();
      obs.predicted_seconds = cell.at("predicted_seconds").as_number();
      obs.observations =
          static_cast<long long>(cell.at("observations").as_number());
      obs.breakdowns =
          static_cast<long long>(cell.at("breakdowns").as_number());
      obs.demoted = cell.at("demoted").as_bool();
      TEA_REQUIRE(obs.observations >= 0 && obs.breakdowns >= 0,
                  "route db: negative counts in '" + shape + "' / '" +
                      route + "'");
      db.cells_[shape][route] = obs;
    }
  }
  return db;
}

void RouteDatabase::save(const std::string& path) const {
  std::ofstream out(path);
  TEA_REQUIRE(out.is_open(), "route db: cannot write " + path);
  out << to_json().dump(2) << "\n";
  TEA_REQUIRE(out.good(), "route db: write to " + path + " failed");
}

RouteDatabase RouteDatabase::load(const std::string& path) {
  std::ifstream in(path);
  TEA_REQUIRE(in.is_open(), "route db: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return from_json(io::JsonValue::parse(buf.str()));
}

RouteDatabase RouteDatabase::load_if_exists(const std::string& path) {
  if (!std::filesystem::exists(path)) return {};
  return load(path);
}

}  // namespace tealeaf
