#include "driver/deck.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "util/args.hpp"
#include "util/error.hpp"

namespace tealeaf {

bool StateDef::contains(double x, double y, double dx, double dy) const {
  return contains(x, y, 0.0, dx, dy, 1.0, /*dims=*/2);
}

bool StateDef::contains(double x, double y, double z, double dx, double dy,
                        double dz, int dims) const {
  switch (geometry) {
    case Geometry::kBackground:
      return true;
    case Geometry::kRectangle: {
      const bool in_plane = x >= xmin && x < xmax && y >= ymin && y < ymax;
      if (dims != 3 || zmax <= zmin) return in_plane;  // extruded prism
      return in_plane && z >= zmin && z < zmax;
    }
    case Geometry::kCircle: {
      const double ddx = x - cx;
      const double ddy = y - cy;
      if (dims == 3 && has_cz) {  // sphere
        const double ddz = z - cz;
        return ddx * ddx + ddy * ddy + ddz * ddz <= radius * radius;
      }
      return ddx * ddx + ddy * ddy <= radius * radius;  // cylinder in 3-D
    }
    case Geometry::kPoint:
      // The cell whose centre is nearest the point (within half a cell).
      return std::fabs(x - px) <= 0.5 * dx && std::fabs(y - py) <= 0.5 * dy &&
             (dims != 3 || !has_pz || std::fabs(z - pz) <= 0.5 * dz);
  }
  return false;
}

namespace {

/// Split "key=value" tokens of a state line into a map.
std::map<std::string, std::string> tokenize_kv(std::istringstream& line) {
  std::map<std::string, std::string> kv;
  std::string tok;
  while (line >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      kv[tok] = "";
    } else {
      kv[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
  return kv;
}

double to_double(const std::string& s, const std::string& key) {
  try {
    return std::stod(s);
  } catch (const std::exception&) {
    throw TeaError("deck: bad numeric value for " + key + ": '" + s + "'");
  }
}

/// Boolean tl_* flags: bare (`tl_cg_fuse_reductions`) or explicit
/// (`tl_cg_fuse_reductions=0`).  A non-boolean value is an error — a mistyped
/// value must not silently enable the knob.
bool to_flag(const std::string& s, const std::string& key) {
  if (s.empty() || s == "1" || s == "true" || s == "on") return true;
  if (s == "0" || s == "false" || s == "off") return false;
  throw TeaError("deck: bad boolean value for " + key + ": '" + s + "'");
}

/// Every key the *tea block understands — the reference list for the
/// unknown-key diagnostics below.
constexpr const char* kKnownKeys[] = {
    "state",          "x_cells",
    "y_cells",        "z_cells",
    "nz",             "xmin",
    "xmax",           "ymin",
    "ymax",           "zmin",
    "zmax",           "initial_timestep",
    "end_time",       "end_step",
    "tl_geometry",    "tl_max_iters",
    "tl_eps",         "tl_use_jacobi",
    "tl_use_cg",      "tl_use_chebyshev",
    "tl_use_ppcg",    "tl_preconditioner_type",
    "tl_ppcg_inner_steps", "tl_eigen_cg_iters",
    "tl_cheby_presteps", "tl_halo_depth",
    "tl_cg_fuse_reductions", "tl_coefficient",
    "tl_operator",    "tl_precision",
    "tl_route_db",    "tl_route_learn",
    "tl_route_demote_ratio",
    "matrix_file",
    "sweep_solvers",  "sweep_precons",
    "sweep_halo_depths", "sweep_mesh_sizes",
    "sweep_threads",  "sweep_geometry",
    "sweep_operator", "sweep_precision",
    "sweep_ranks"};

/// Keys of the retired engine settings: the fused and pipelined engine
/// tiers, and the row-block height the engine now derives itself.
constexpr const char* kRetiredKeys[] = {
    "tl_fuse_kernels", "tl_pipeline",    "tl_tile_rows",
    "sweep_fused",     "sweep_pipeline", "sweep_tile_rows"};

/// Reject a retired engine key: the one engine has no settings left.
void reject_retired_key(const std::string& key) {
  for (const char* retired : kRetiredKeys) {
    if (key == retired) {
      throw TeaError("deck: key '" + key +
                     "' was retired — every solve runs the one team "
                     "engine, which derives its row-blocks from the thread "
                     "team and rank count; remove the key");
    }
  }
}

/// Levenshtein distance, small-string edition (deck keys are short).
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t next =
          std::min({row[j] + 1, row[j - 1] + 1,
                    diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

/// Unknown-key error with a "did you mean" suggestion when a known key is
/// within two edits — a mistyped knob must fail loudly, not
/// silently leave the default in force.
[[noreturn]] void throw_unknown_key(const std::string& key) {
  std::string best;
  std::size_t best_dist = 3;  // suggest only within two edits
  for (const char* known : kKnownKeys) {
    const std::size_t d = edit_distance(key, known);
    if (d < best_dist) {
      best_dist = d;
      best = known;
    }
  }
  std::string msg = "deck: unknown key '" + key + "'";
  if (!best.empty()) msg += " (did you mean '" + best + "'?)";
  throw TeaError(msg);
}

StateDef parse_state(std::istringstream& line) {
  int index = 0;
  line >> index;
  TEA_REQUIRE(index >= 1, "deck: state index must be >= 1");
  bool has_zmin = false;
  bool has_zmax = false;
  StateDef st;
  st.geometry = (index == 1) ? StateDef::Geometry::kBackground
                             : StateDef::Geometry::kRectangle;
  const auto kv = tokenize_kv(line);
  for (const auto& [key, value] : kv) {
    if (key == "density") {
      st.density = to_double(value, key);
    } else if (key == "energy") {
      st.energy = to_double(value, key);
    } else if (key == "geometry") {
      if (value == "rectangle") {
        st.geometry = StateDef::Geometry::kRectangle;
      } else if (value == "circle" || value == "circular") {
        st.geometry = StateDef::Geometry::kCircle;
      } else if (value == "point") {
        st.geometry = StateDef::Geometry::kPoint;
      } else {
        throw TeaError("deck: unknown geometry '" + value + "'");
      }
    } else if (key == "xmin") {
      st.xmin = to_double(value, key);
    } else if (key == "xmax") {
      st.xmax = to_double(value, key);
    } else if (key == "ymin") {
      st.ymin = to_double(value, key);
    } else if (key == "ymax") {
      st.ymax = to_double(value, key);
    } else if (key == "zmin") {
      st.zmin = to_double(value, key);
      has_zmin = true;
    } else if (key == "zmax") {
      st.zmax = to_double(value, key);
      has_zmax = true;
    } else if (key == "xcentre" || key == "xcenter") {
      st.cx = to_double(value, key);
    } else if (key == "ycentre" || key == "ycenter") {
      st.cy = to_double(value, key);
    } else if (key == "zcentre" || key == "zcenter") {
      st.cz = to_double(value, key);
      st.has_cz = true;
    } else if (key == "radius") {
      st.radius = to_double(value, key);
    } else if (key == "x") {
      st.px = to_double(value, key);
    } else if (key == "y") {
      st.py = to_double(value, key);
    } else if (key == "z") {
      st.pz = to_double(value, key);
      st.has_pz = true;
    } else {
      throw TeaError("deck: unknown state key '" + key + "'");
    }
  }
  // A half-specified z extent would silently fall back to the extruded
  // (full-z) reading, discarding the bound the user DID give.
  TEA_REQUIRE(has_zmin == has_zmax,
              "deck: state needs both zmin and zmax (or neither, for the "
              "extruded reading)");
  TEA_REQUIRE(!has_zmin || st.zmax > st.zmin,
              "deck: state z extent must be non-empty");
  return st;
}

}  // namespace

InputDeck InputDeck::parse(std::istream& in) {
  InputDeck deck;
  deck.states.clear();
  std::string raw;
  bool in_block = false;
  while (std::getline(in, raw)) {
    // Strip comments (! and # start a comment, as in upstream decks).
    const auto cpos = raw.find_first_of("!#");
    if (cpos != std::string::npos) raw = raw.substr(0, cpos);
    std::istringstream line(raw);
    std::string key;
    if (!(line >> key)) continue;
    if (key == "*tea") {
      in_block = true;
      continue;
    }
    if (key == "*endtea") {
      // Keep scanning: a knob after *endtea must be rejected below, not
      // silently dropped.
      in_block = false;
      continue;
    }
    if (!in_block) {
      // Solver/sweep knobs outside the *tea…*endtea block would be
      // silently lost; reject them so a misplaced tl_*/sweep_* key
      // cannot vanish.
      const std::string bare = key.substr(0, key.find('='));
      if (bare.rfind("tl_", 0) == 0 || bare.rfind("sweep_", 0) == 0) {
        throw TeaError("deck: key '" + bare +
                       "' appears outside the *tea…*endtea block");
      }
      continue;
    }

    // `key=value` single-token form.
    std::string value;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else {
      line >> value;  // `key value` form (may be empty for flags)
    }

    reject_retired_key(key);
    if (key == "state") {
      std::istringstream full(raw);
      std::string skip;
      full >> skip;  // consume "state"
      deck.states.push_back(parse_state(full));
    } else if (key == "x_cells") {
      deck.x_cells = static_cast<int>(to_double(value, key));
    } else if (key == "y_cells") {
      deck.y_cells = static_cast<int>(to_double(value, key));
    } else if (key == "z_cells" || key == "nz") {
      deck.z_cells = static_cast<int>(to_double(value, key));
    } else if (key == "tl_geometry") {
      if (value == "2d") {
        deck.dims = 2;
      } else if (value == "3d") {
        deck.dims = 3;
      } else {
        throw TeaError("deck: tl_geometry must be '2d' or '3d', got '" +
                       value + "'");
      }
    } else if (key == "xmin") {
      deck.xmin = to_double(value, key);
    } else if (key == "xmax") {
      deck.xmax = to_double(value, key);
    } else if (key == "ymin") {
      deck.ymin = to_double(value, key);
    } else if (key == "ymax") {
      deck.ymax = to_double(value, key);
    } else if (key == "zmin") {
      deck.zmin = to_double(value, key);
    } else if (key == "zmax") {
      deck.zmax = to_double(value, key);
    } else if (key == "initial_timestep") {
      deck.initial_timestep = to_double(value, key);
    } else if (key == "end_time") {
      deck.end_time = to_double(value, key);
    } else if (key == "end_step") {
      deck.end_step = static_cast<int>(to_double(value, key));
    } else if (key == "tl_max_iters") {
      deck.solver.max_iters = static_cast<int>(to_double(value, key));
    } else if (key == "tl_eps") {
      deck.solver.eps = to_double(value, key);
    } else if (key == "tl_use_jacobi") {
      deck.solver.type = SolverType::kJacobi;
    } else if (key == "tl_use_cg") {
      deck.solver.type = SolverType::kCG;
    } else if (key == "tl_use_chebyshev") {
      deck.solver.type = SolverType::kChebyshev;
    } else if (key == "tl_use_ppcg") {
      deck.solver.type = SolverType::kPPCG;
    } else if (key == "tl_preconditioner_type") {
      deck.solver.precon = precon_type_from_string(value);
    } else if (key == "tl_ppcg_inner_steps") {
      deck.solver.inner_steps = static_cast<int>(to_double(value, key));
    } else if (key == "tl_eigen_cg_iters" || key == "tl_cheby_presteps") {
      deck.solver.eigen_cg_iters = static_cast<int>(to_double(value, key));
    } else if (key == "tl_halo_depth") {
      deck.solver.halo_depth = static_cast<int>(to_double(value, key));
    } else if (key == "tl_cg_fuse_reductions") {
      deck.solver.fuse_cg_reductions = to_flag(value, key);
    } else if (key == "tl_operator") {
      deck.solver.op = operator_kind_from_string(value);
    } else if (key == "tl_precision") {
      deck.solver.precision = precision_from_string(value);
    } else if (key == "tl_route_db") {
      TEA_REQUIRE(!value.empty(), "deck: tl_route_db needs a path");
      deck.route_db = value;
    } else if (key == "tl_route_learn") {
      deck.route_learn = to_flag(value, key);
    } else if (key == "tl_route_demote_ratio") {
      deck.route_demote_ratio = to_double(value, key);
    } else if (key == "matrix_file") {
      TEA_REQUIRE(!value.empty(), "deck: matrix_file needs a path");
      deck.matrix_file = value;
    } else if (key == "sweep_solvers") {
      deck.sweep.solvers = split_list(value, key);
    } else if (key == "sweep_precons") {
      deck.sweep.precons.clear();
      for (const std::string& s : split_list(value, key)) {
        deck.sweep.precons.push_back(precon_type_from_string(s));
      }
    } else if (key == "sweep_halo_depths") {
      deck.sweep.halo_depths = split_int_list(value, key);
    } else if (key == "sweep_mesh_sizes") {
      deck.sweep.mesh_sizes = split_int_list(value, key);
    } else if (key == "sweep_threads") {
      deck.sweep.thread_counts = split_int_list(value, key);
    } else if (key == "sweep_geometry") {
      deck.sweep.geometries.clear();
      for (const std::string& g : split_list(value, key)) {
        if (g == "2d") {
          deck.sweep.geometries.push_back(2);
        } else if (g == "3d") {
          deck.sweep.geometries.push_back(3);
        } else {
          throw TeaError(
              "deck: sweep_geometry entries must be '2d' or '3d', got '" +
              g + "'");
        }
      }
    } else if (key == "sweep_operator") {
      deck.sweep.operators = split_list(value, key);
    } else if (key == "sweep_precision") {
      deck.sweep.precisions = split_list(value, key);
    } else if (key == "sweep_ranks") {
      deck.sweep.ranks = static_cast<int>(to_double(value, key));
    } else if (key == "tl_coefficient") {
      if (value == "conductivity") {
        deck.coefficient = kernels::Coefficient::kConductivity;
      } else if (value == "recip_conductivity") {
        deck.coefficient = kernels::Coefficient::kRecipConductivity;
      } else {
        throw TeaError("deck: unknown coefficient '" + value + "'");
      }
    } else {
      throw_unknown_key(key);
    }
  }
  deck.validate();
  return deck;
}

InputDeck InputDeck::parse_string(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

std::string InputDeck::to_string() const {
  std::ostringstream os;
  os << "*tea\n";
  if (dims == 3) os << "tl_geometry=3d\n";
  os << "x_cells=" << x_cells << "\n";
  os << "y_cells=" << y_cells << "\n";
  if (dims == 3) os << "z_cells=" << z_cells << "\n";
  os << "xmin=" << xmin << "\nxmax=" << xmax << "\nymin=" << ymin
     << "\nymax=" << ymax << "\n";
  if (dims == 3) os << "zmin=" << zmin << "\nzmax=" << zmax << "\n";
  os << "initial_timestep=" << initial_timestep << "\n";
  if (end_time > 0.0) os << "end_time=" << end_time << "\n";
  if (end_step > 0) os << "end_step=" << end_step << "\n";
  os << "tl_max_iters=" << solver.max_iters << "\n";
  os << "tl_eps=" << solver.eps << "\n";
  switch (solver.type) {
    case SolverType::kJacobi: os << "tl_use_jacobi\n"; break;
    case SolverType::kCG: os << "tl_use_cg\n"; break;
    case SolverType::kChebyshev: os << "tl_use_chebyshev\n"; break;
    case SolverType::kPPCG: os << "tl_use_ppcg\n"; break;
    // No deck key selects mg-pcg (sweeps and routes do): keep the choice
    // visible as a comment (the one solver that does not round-trip).
    case SolverType::kMGPCG: os << "! solver: mg-pcg\n"; break;
  }
  os << "tl_preconditioner_type=" << tealeaf::to_string(solver.precon)
     << "\n";
  os << "tl_ppcg_inner_steps=" << solver.inner_steps << "\n";
  os << "tl_eigen_cg_iters=" << solver.eigen_cg_iters << "\n";
  os << "tl_halo_depth=" << solver.halo_depth << "\n";
  if (solver.fuse_cg_reductions) os << "tl_cg_fuse_reductions\n";
  if (solver.op != OperatorKind::kStencil) {
    os << "tl_operator=" << tealeaf::to_string(solver.op) << "\n";
  }
  if (solver.precision != Precision::kDouble) {
    os << "tl_precision=" << tealeaf::to_string(solver.precision) << "\n";
  }
  if (!route_db.empty()) os << "tl_route_db=" << route_db << "\n";
  if (route_learn) os << "tl_route_learn\n";
  if (route_demote_ratio > 0.0) {
    os << "tl_route_demote_ratio=" << route_demote_ratio << "\n";
  }
  if (!matrix_file.empty()) os << "matrix_file=" << matrix_file << "\n";
  if (sweep.requested()) {
    const auto join = [&os](const char* key, const auto& items,
                            const auto& format) {
      os << key << "=";
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) os << ",";
        os << format(items[i]);
      }
      os << "\n";
    };
    join("sweep_solvers", sweep.solvers,
         [](const std::string& s) { return s; });
    join("sweep_precons", sweep.precons,
         [](PreconType p) { return tealeaf::to_string(p); });
    join("sweep_halo_depths", sweep.halo_depths, [](int d) { return d; });
    if (!sweep.mesh_sizes.empty()) {
      join("sweep_mesh_sizes", sweep.mesh_sizes, [](int n) { return n; });
    }
    join("sweep_threads", sweep.thread_counts, [](int t) { return t; });
    if (!sweep.geometries.empty()) {
      join("sweep_geometry", sweep.geometries,
           [](int d) { return d == 3 ? "3d" : "2d"; });
    }
    if (sweep.operators != std::vector<std::string>{"stencil"}) {
      join("sweep_operator", sweep.operators,
           [](const std::string& o) { return o; });
    }
    if (sweep.precisions != std::vector<std::string>{"double"}) {
      join("sweep_precision", sweep.precisions,
           [](const std::string& p) { return p; });
    }
    os << "sweep_ranks=" << sweep.ranks << "\n";
  }
  os << "tl_coefficient="
     << (coefficient == kernels::Coefficient::kConductivity
             ? "conductivity"
             : "recip_conductivity")
     << "\n";
  for (std::size_t i = 0; i < states.size(); ++i) {
    const StateDef& st = states[i];
    os << "state " << (i + 1) << " density=" << st.density
       << " energy=" << st.energy;
    switch (st.geometry) {
      case StateDef::Geometry::kBackground:
        break;
      case StateDef::Geometry::kRectangle:
        os << " geometry=rectangle xmin=" << st.xmin << " xmax=" << st.xmax
           << " ymin=" << st.ymin << " ymax=" << st.ymax;
        if (st.zmax > st.zmin) {
          os << " zmin=" << st.zmin << " zmax=" << st.zmax;
        }
        break;
      case StateDef::Geometry::kCircle:
        os << " geometry=circle xcentre=" << st.cx << " ycentre=" << st.cy;
        if (st.has_cz) os << " zcentre=" << st.cz;
        os << " radius=" << st.radius;
        break;
      case StateDef::Geometry::kPoint:
        os << " geometry=point x=" << st.px << " y=" << st.py;
        if (st.has_pz) os << " z=" << st.pz;
        break;
    }
    os << "\n";
  }
  os << "*endtea\n";
  return os.str();
}

int InputDeck::num_steps() const {
  int steps = end_step;
  if (end_time > 0.0) {
    const int by_time = static_cast<int>(
        std::ceil(end_time / initial_timestep - 1e-9));
    steps = (steps > 0) ? std::min(steps, by_time) : by_time;
  }
  return steps;
}

void InputDeck::validate() const {
  TEA_REQUIRE(dims == 2 || dims == 3, "deck: tl_geometry must be 2d or 3d");
  TEA_REQUIRE(x_cells > 0 && y_cells > 0, "deck: cell counts must be > 0");
  TEA_REQUIRE(xmax > xmin && ymax > ymin, "deck: domain must be non-empty");
  if (dims == 3) {
    TEA_REQUIRE(z_cells > 0, "deck: z_cells must be > 0");
    TEA_REQUIRE(zmax > zmin, "deck: z domain must be non-empty");
  } else {
    TEA_REQUIRE(z_cells == 1,
                "deck: z_cells requires tl_geometry=3d (a 2-D run has "
                "exactly one z plane)");
  }
  TEA_REQUIRE(initial_timestep > 0.0, "deck: timestep must be positive");
  if (!matrix_file.empty()) {
    TEA_REQUIRE(dims == 2,
                "deck: matrix_file decks are 2-D (the Matrix Market rows "
                "map onto the x_cells x y_cells grid) — drop "
                "tl_geometry=3d or the matrix_file");
    if (solver.op == OperatorKind::kStencil) {
      throw TeaError(
          "deck: matrix_file needs an assembled operator to hold the "
          "loaded matrix, but tl_operator is 'stencil' (the matrix-free "
          "path has no storage for it).  Did you mean tl_operator = csr?");
    }
    if (solver.precision != Precision::kDouble) {
      throw TeaError(
          "deck: tl_precision single/mixed cannot be combined with "
          "matrix_file — a loaded operator has no stencil coefficients to "
          "re-assemble in fp32.  Use tl_precision = double.");
    }
  }
  if (route_demote_ratio != 0.0) {
    TEA_REQUIRE(route_demote_ratio > 1.0,
                "deck: tl_route_demote_ratio must exceed 1 (a route cannot "
                "be demoted for matching its prediction); 0 keeps the "
                "server default");
  }
  TEA_REQUIRE(end_time > 0.0 || end_step > 0,
              "deck: need end_time or end_step");
  TEA_REQUIRE(!states.empty(), "deck: need at least the background state");
  TEA_REQUIRE(states.front().geometry == StateDef::Geometry::kBackground,
              "deck: state 1 must be the background");
  for (const StateDef& st : states) {
    TEA_REQUIRE(st.density > 0.0, "deck: densities must be positive");
    TEA_REQUIRE(st.energy >= 0.0, "deck: energies must be non-negative");
  }
  solver.validate();
  if (sweep.requested()) sweep.validate();
}

}  // namespace tealeaf
