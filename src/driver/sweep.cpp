#include "driver/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "api/solve_api.hpp"
#include "io/csv.hpp"
#include "model/scaling.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

#if defined(TEALEAF_HAVE_OPENMP)
#include <omp.h>
#endif

namespace tealeaf {

std::string SweepCase::label() const {
  std::ostringstream os;
  os << solver << "/" << to_string(precon) << "/d" << halo_depth << "/n"
     << mesh_n << "/t" << threads;
  if (dims == 3) os << "/3d";
  if (op != "stencil") os << "/" << op;
  if (precision == "single") os << "/f32";
  if (precision == "mixed") os << "/mixed";
  return os.str();
}

std::vector<SweepCase> enumerate_cases(const SweepSpec& spec, int base_mesh,
                                       int base_dims) {
  spec.validate();
  TEA_REQUIRE(base_mesh >= 4, "sweep: base mesh must be >= 4");
  TEA_REQUIRE(base_dims == 2 || base_dims == 3,
              "sweep: base geometry must be 2d or 3d");
  std::vector<int> meshes = spec.mesh_sizes;
  if (meshes.empty()) meshes.push_back(base_mesh);
  std::vector<int> geometries = spec.geometries;
  if (geometries.empty()) geometries.push_back(base_dims);
  std::vector<std::string> operators = spec.operators;
  if (operators.empty()) operators.push_back("stencil");
  // Canonicalise the precision entries ("fp32" → "single") so labels and
  // result tables always carry the canonical names.
  std::vector<std::string> precisions;
  for (const std::string& p : spec.precisions) {
    precisions.push_back(to_string(precision_from_string(p)));
  }
  if (precisions.empty()) precisions.push_back("double");

  std::vector<SweepCase> cases;
  cases.reserve(spec.num_cases());
  for (const std::string& solver : spec.solvers) {
    for (const PreconType precon : spec.precons) {
      for (const int depth : spec.halo_depths) {
        for (const int mesh : meshes) {
          for (const int threads : spec.thread_counts) {
            for (const int dims : geometries) {
              for (const std::string& op : operators) {
                for (const std::string& prec : precisions) {
                  cases.push_back(
                      {solver, precon, depth, mesh, threads, dims, op, prec});
                }
              }
            }
          }
        }
      }
    }
  }
  return cases;
}

namespace {

/// α-β pricing of the communication a run recorded: every message pays
/// the machine's point-to-point latency plus payload/bandwidth; every
/// allreduce pays the log-tree hop latency (the model of scaling.cpp,
/// reduced to the counts CommStats holds).
double price_comm(const CommStats& stats, const MachineSpec& machine,
                  int ranks) {
  const double hops =
      std::ceil(std::log2(std::max(2.0, static_cast<double>(ranks))));
  return static_cast<double>(stats.messages) * machine.net_alpha_us * 1.0e-6 +
         static_cast<double>(stats.message_bytes) /
             (machine.net_bw_gbs * 1.0e9) +
         static_cast<double>(stats.reductions) * 2.0 * hops *
             machine.reduce_alpha_us * 1.0e-6;
}

/// RAII thread-count override (no-op without OpenMP or when threads == 0).
class ThreadScope {
 public:
  explicit ThreadScope(int threads) {
#if defined(TEALEAF_HAVE_OPENMP)
    if (threads > 0) {
      saved_ = omp_get_max_threads();
      omp_set_num_threads(threads);
    }
#else
    (void)threads;
#endif
  }
  ~ThreadScope() {
#if defined(TEALEAF_HAVE_OPENMP)
    if (saved_ > 0) omp_set_num_threads(saved_);
#endif
  }

 private:
  int saved_ = 0;
};

/// Run one cell through the SolveSession facade (the same entry path
/// TeaLeafApp and the solve server use).
void run_native_cell(const InputDeck& deck, int ranks, int steps,
                     SweepOutcome& out) {
  SolveSession session(deck, ranks);
  session.cluster().reset_stats();
  out.converged = true;
  for (int s = 0; s < steps; ++s) {
    const SolveStats st = session.solve();
    out.converged = out.converged && st.converged;
    out.iterations += st.outer_iters;
    out.inner_steps += st.inner_steps;
    out.spmv += st.spmv_applies;
    out.final_norm = st.final_norm;
    out.solve_seconds += st.solve_seconds;
    if (st.breakdown) {
      // Numerical breakdown: record the row as failed and stop this cell;
      // the sweep moves on to the next configuration.
      out.fail_reason = st.breakdown_reason;
      out.converged = false;
      break;
    }
  }
  const CommStats& cs = session.cluster().stats();
  out.reductions = cs.reductions;
  out.exchanges = cs.exchange_calls;
  out.messages = cs.messages;
  out.message_bytes = cs.message_bytes;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

SweepReport run_sweep(const InputDeck& base, const SweepSpec& spec,
                      const SweepOptions& opts) {
  base.validate();
  const std::vector<SweepCase> cases =
      enumerate_cases(spec, base.x_cells, base.dims);
  const int steps = opts.steps > 0 ? opts.steps : base.num_steps();
  TEA_REQUIRE(steps >= 1, "sweep: need at least one timestep per cell");

  SweepReport report;
  report.ranks = spec.ranks;
  report.steps = steps;
  report.cells.reserve(cases.size());

  for (const SweepCase& cs : cases) {
    SweepOutcome out;
    out.config = cs;

    InputDeck deck = base;
    deck.sweep = SweepSpec{};  // cells are single solves
    deck.x_cells = cs.mesh_n;
    deck.y_cells = cs.mesh_n;
    deck.dims = cs.dims;
    if (cs.dims == 3) {
      // 3-D cells run a mesh_n³ brick; a base deck without its own z
      // extents mirrors the x axis, and 2-D states extrude through z
      // (see StateDef), so every deck has an honest 3-D reading.
      deck.z_cells = cs.mesh_n;
      if (!(base.dims == 3 && base.zmax > base.zmin)) {
        deck.zmin = base.xmin;
        deck.zmax = base.xmax;
      }
    } else {
      deck.z_cells = 1;
    }
    deck.end_time = 0.0;
    deck.end_step = steps;
    deck.solver.precon = cs.precon;
    deck.solver.halo_depth = cs.halo_depth;
    deck.solver.op = operator_kind_from_string(cs.op);
    deck.solver.precision = precision_from_string(cs.precision);

    deck.solver.type = solver_type_from_string(cs.solver);
    if (!deck.matrix_file.empty() && cs.precision != "double") {
      out.skipped = true;
      out.skip_reason =
          "a loaded matrix_file operator has no stencil coefficients to "
          "re-assemble in fp32";
    } else {
      try {
        deck.solver.validate();
      } catch (const TeaError& e) {
        out.skipped = true;
        out.skip_reason = e.what();
      }
    }

    if (!out.skipped) {
      ThreadScope threads(cs.threads);
      // mg-pcg solves the undecomposed grid (paper Fig. 7's
      // PETSc+BoomerAMG stand-in), so its cells run on one simulated rank
      // and record no halo traffic.
      const int ranks = needs_single_rank(deck.solver) ? 1 : spec.ranks;
      try {
        run_native_cell(deck, ranks, steps, out);
      } catch (const TeaError& e) {
        // A solver contract violation mid-run fails this row only; the
        // rest of the cross-product still runs.
        out.fail_reason = e.what();
        out.converged = false;
      }
      CommStats recorded;
      recorded.exchange_calls = out.exchanges;
      recorded.messages = out.messages;
      recorded.message_bytes = out.message_bytes;
      recorded.reductions = out.reductions;
      out.comm_seconds = price_comm(recorded, opts.machine, spec.ranks);
    }

    if (opts.echo) {
      std::printf("%-28s %s\n", cs.label().c_str(),
                  out.skipped ? ("skipped: " + out.skip_reason).c_str()
                  : !out.fail_reason.empty()
                      ? ("FAILED: " + out.fail_reason).c_str()
                  : out.converged
                      ? ("ok, " + std::to_string(out.iterations) + " iters")
                            .c_str()
                      : "DID NOT CONVERGE");
    }
    report.cells.push_back(std::move(out));
  }
  return report;
}

SweepReport run_sweep(const InputDeck& base, const SweepOptions& opts) {
  TEA_REQUIRE(base.sweep.requested(),
              "run_sweep: the deck has no sweep_* section");
  return run_sweep(base, base.sweep, opts);
}

std::vector<int> SweepReport::ranking() const {
  std::vector<int> idx;
  for (int i = 0; i < static_cast<int>(cells.size()); ++i) {
    if (!cells[i].skipped && cells[i].converged) idx.push_back(i);
  }
  std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
    return cells[a].solve_seconds < cells[b].solve_seconds;
  });
  return idx;
}

int SweepReport::best() const {
  const std::vector<int> r = ranking();
  return r.empty() ? -1 : r.front();
}

std::vector<double> SweepReport::speedups() const {
  std::vector<double> seconds;
  seconds.reserve(cells.size());
  for (const SweepOutcome& c : cells) {
    // Clamp to a tiny positive time so a converged cell that beat the
    // timer resolution still ranks (relative_speedups treats <= 0 as a
    // failed run) — keeps speedups() consistent with ranking().
    seconds.push_back(!c.skipped && c.converged
                          ? std::max(c.solve_seconds, 1e-12)
                          : 0.0);
  }
  return relative_speedups(seconds);
}

namespace {

constexpr const char* kCsvColumns[] = {
    "solver",      "precon",        "halo_depth",   "mesh",
    "threads",     "geometry",      "operator",     "precision",
    "sweep_ranks", "sweep_steps",
    "status",      "converged",     "iterations",   "inner_steps",
    "spmv",        "reductions",    "exchanges",    "messages",
    "message_bytes", "final_norm",  "solve_seconds", "comm_seconds",
    "speedup",     "rank"};

/// Strict numeric cell parsers: the whole cell must convert, and failures
/// surface as TeaError like every other malformed-input path.
long long csv_ll(const std::string& s, const char* column) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    TEA_REQUIRE(used == s.size(), std::string("sweep csv: bad ") + column);
    return v;
  } catch (const TeaError&) {
    throw;
  } catch (const std::exception&) {
    throw TeaError(std::string("sweep csv: bad ") + column + ": '" + s + "'");
  }
}

int csv_int(const std::string& s, const char* column) {
  return static_cast<int>(csv_ll(s, column));
}

double csv_double(const std::string& s, const char* column) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    TEA_REQUIRE(used == s.size(), std::string("sweep csv: bad ") + column);
    return v;
  } catch (const TeaError&) {
    throw;
  } catch (const std::exception&) {
    throw TeaError(std::string("sweep csv: bad ") + column + ": '" + s + "'");
  }
}

/// Sweep reports from before the one-engine collapse carry `fused` /
/// `pipeline` fields: their cells were timed on engine tiers that no
/// longer exist, so ranking them would silently mis-route.
[[noreturn]] void reject_retired_engine_field(const char* form,
                                              const std::string& field) {
  throw TeaError(std::string("sweep ") + form + ": field '" + field +
                 "' belongs to a retired execution-engine tier — this "
                 "report was timed on engines that no longer exist; re-run "
                 "the sweep");
}

/// Reports from before the engine derived its row-blocks carry a
/// `tile_rows` field.  A cell recorded at auto (-1) still describes a
/// route the engine runs; an explicit height (>= 0) timed a row-block
/// split the engine no longer takes, so ranking it would mis-route.
void check_retired_tile_rows(const char* form, int tile_rows) {
  if (tile_rows < 0) return;
  throw TeaError(std::string("sweep ") + form + ": a cell was timed at " +
                 "tile_rows = " + std::to_string(tile_rows) +
                 ", a row-block height the engine no longer takes (it "
                 "derives its blocks from the thread team) — re-run the "
                 "sweep");
}

}  // namespace

std::vector<std::string> SweepReport::to_csv_lines() const {
  io::CsvWriter csv("");
  csv.header({std::begin(kCsvColumns), std::end(kCsvColumns)});
  const std::vector<double> speedup = speedups();
  const std::vector<int> order = ranking();
  std::vector<int> rank_of(cells.size(), 0);  // 1-based; 0 = unranked
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    rank_of[order[pos]] = static_cast<int>(pos) + 1;
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepOutcome& c = cells[i];
    const char* status =
        c.skipped ? "skipped" : (!c.fail_reason.empty() ? "failed" : "ok");
    csv.row(c.config.solver, to_string(c.config.precon), c.config.halo_depth,
            c.config.mesh_n, c.config.threads,
            c.config.dims == 3 ? "3d" : "2d",
            c.config.op, c.config.precision, ranks, steps, status,
            c.converged ? 1 : 0,
            c.iterations, c.inner_steps, c.spmv, c.reductions, c.exchanges,
            c.messages, c.message_bytes, fmt_double(c.final_norm),
            fmt_double(c.solve_seconds), fmt_double(c.comm_seconds),
            fmt_double(speedup[i]), rank_of[i]);
  }
  return csv.lines();
}

void SweepReport::write_csv(const std::string& path) const {
  io::CsvWriter csv(path);
  for (const std::string& line : to_csv_lines()) {
    csv.row(line);  // lines are pre-joined; emit verbatim
  }
}

SweepReport SweepReport::from_csv_lines(
    const std::vector<std::string>& lines) {
  TEA_REQUIRE(!lines.empty(), "sweep csv: missing header");
  const auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::string cell;
    std::istringstream in(line);
    while (std::getline(in, cell, ',')) cells.push_back(cell);
    return cells;
  };
  const std::vector<std::string> header = split(lines.front());
  // A `tile_rows` column (reports from before the engine derived its
  // row-blocks) is checked per row, then dropped.
  const auto tile_col = std::find(header.begin(), header.end(), "tile_rows");
  const bool has_tile_col = tile_col != header.end();
  for (const std::string& column : header) {
    if (column == "fused" || column == "pipeline") {
      reject_retired_engine_field("csv", column);
    }
  }
  TEA_REQUIRE(
      header.size() == std::size(kCsvColumns) + (has_tile_col ? 1 : 0),
      "sweep csv: unexpected header");

  SweepReport report;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> f = split(lines[i]);
    TEA_REQUIRE(f.size() == header.size(), "sweep csv: short row");
    if (has_tile_col) {
      const auto at = f.begin() + (tile_col - header.begin());
      check_retired_tile_rows("csv", csv_int(*at, "tile_rows"));
      f.erase(at);
    }
    SweepOutcome out;
    out.config.solver = f[0];
    out.config.precon = precon_type_from_string(f[1]);
    out.config.halo_depth = csv_int(f[2], "halo_depth");
    out.config.mesh_n = csv_int(f[3], "mesh");
    out.config.threads = csv_int(f[4], "threads");
    TEA_REQUIRE(f[5] == "2d" || f[5] == "3d", "sweep csv: bad geometry");
    out.config.dims = f[5] == "3d" ? 3 : 2;
    (void)operator_kind_from_string(f[6]);  // validates the kind
    out.config.op = f[6];
    out.config.precision = to_string(precision_from_string(f[7]));
    report.ranks = csv_int(f[8], "sweep_ranks");
    report.steps = csv_int(f[9], "sweep_steps");
    out.skipped = f[10] == "skipped";
    // The CSV form reduces fail_reason to the status keyword (free-text
    // reasons may contain commas); JSON carries the full text.
    if (f[10] == "failed") out.fail_reason = "failed";
    out.converged = csv_int(f[11], "converged") != 0;
    out.iterations = csv_int(f[12], "iterations");
    out.inner_steps = csv_ll(f[13], "inner_steps");
    out.spmv = csv_ll(f[14], "spmv");
    out.reductions = csv_ll(f[15], "reductions");
    out.exchanges = csv_ll(f[16], "exchanges");
    out.messages = csv_ll(f[17], "messages");
    out.message_bytes = csv_ll(f[18], "message_bytes");
    out.final_norm = csv_double(f[19], "final_norm");
    out.solve_seconds = csv_double(f[20], "solve_seconds");
    out.comm_seconds = csv_double(f[21], "comm_seconds");
    // The last two columns (speedup, rank) are derived; recomputed on
    // demand from the parsed cells.
    report.cells.push_back(std::move(out));
  }
  return report;
}

io::JsonValue SweepReport::to_json() const {
  io::JsonValue doc = io::JsonValue::object();
  doc.set("ranks", ranks);
  doc.set("steps", steps);
  io::JsonValue arr = io::JsonValue::array();
  const std::vector<double> speedup = speedups();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepOutcome& c = cells[i];
    io::JsonValue cell = io::JsonValue::object();
    cell.set("solver", c.config.solver);
    cell.set("precon", to_string(c.config.precon));
    cell.set("halo_depth", c.config.halo_depth);
    cell.set("mesh", c.config.mesh_n);
    cell.set("threads", c.config.threads);
    cell.set("geometry", c.config.dims == 3 ? "3d" : "2d");
    cell.set("operator", c.config.op);
    cell.set("precision", c.config.precision);
    cell.set("skipped", c.skipped);
    if (c.skipped) cell.set("skip_reason", c.skip_reason);
    if (!c.fail_reason.empty()) cell.set("fail_reason", c.fail_reason);
    cell.set("converged", c.converged);
    cell.set("iterations", c.iterations);
    cell.set("inner_steps", c.inner_steps);
    cell.set("spmv", c.spmv);
    cell.set("reductions", c.reductions);
    cell.set("exchanges", c.exchanges);
    cell.set("messages", c.messages);
    cell.set("message_bytes", c.message_bytes);
    cell.set("final_norm", c.final_norm);
    cell.set("solve_seconds", c.solve_seconds);
    cell.set("comm_seconds", c.comm_seconds);
    cell.set("speedup", speedup[i]);
    arr.push_back(std::move(cell));
  }
  doc.set("cells", std::move(arr));
  io::JsonValue order = io::JsonValue::array();
  for (const int i : ranking()) order.push_back(i);
  doc.set("ranking", std::move(order));
  const int b = best();
  doc.set("best", b >= 0 ? io::JsonValue(b) : io::JsonValue());
  if (b >= 0) doc.set("best_label", cells[b].config.label());
  return doc;
}

void SweepReport::write_json(const std::string& path) const {
  std::ofstream out(path);
  TEA_REQUIRE(out.is_open(), "cannot open JSON output: " + path);
  out << to_json().dump(2) << "\n";
}

SweepReport SweepReport::from_json(const io::JsonValue& doc) {
  SweepReport report;
  report.ranks = static_cast<int>(doc.at("ranks").as_number());
  report.steps = static_cast<int>(doc.at("steps").as_number());
  const io::JsonValue& arr = doc.at("cells");
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const io::JsonValue& cell = arr.at(i);
    SweepOutcome out;
    out.config.solver = cell.at("solver").as_string();
    out.config.precon = precon_type_from_string(cell.at("precon").as_string());
    out.config.halo_depth = static_cast<int>(cell.at("halo_depth").as_number());
    out.config.mesh_n = static_cast<int>(cell.at("mesh").as_number());
    out.config.threads = static_cast<int>(cell.at("threads").as_number());
    for (const char* retired : {"fused", "pipeline"}) {
      if (cell.contains(retired)) reject_retired_engine_field("json", retired);
    }
    if (cell.contains("tile_rows")) {
      check_retired_tile_rows(
          "json", static_cast<int>(cell.at("tile_rows").as_number()));
    }
    if (cell.contains("geometry")) {
      out.config.dims = cell.at("geometry").as_string() == "3d" ? 3 : 2;
    }
    if (cell.contains("operator")) {
      out.config.op = cell.at("operator").as_string();
      (void)operator_kind_from_string(out.config.op);  // validates
    }
    if (cell.contains("precision")) {
      out.config.precision =
          to_string(precision_from_string(cell.at("precision").as_string()));
    }
    out.skipped = cell.at("skipped").as_bool();
    if (cell.contains("skip_reason")) {
      out.skip_reason = cell.at("skip_reason").as_string();
    }
    if (cell.contains("fail_reason")) {
      out.fail_reason = cell.at("fail_reason").as_string();
    }
    out.converged = cell.at("converged").as_bool();
    out.iterations = static_cast<int>(cell.at("iterations").as_number());
    out.inner_steps =
        static_cast<long long>(cell.at("inner_steps").as_number());
    out.spmv = static_cast<long long>(cell.at("spmv").as_number());
    out.reductions = static_cast<long long>(cell.at("reductions").as_number());
    out.exchanges = static_cast<long long>(cell.at("exchanges").as_number());
    out.messages = static_cast<long long>(cell.at("messages").as_number());
    out.message_bytes =
        static_cast<long long>(cell.at("message_bytes").as_number());
    out.final_norm = cell.at("final_norm").as_number();
    out.solve_seconds = cell.at("solve_seconds").as_number();
    out.comm_seconds = cell.at("comm_seconds").as_number();
    report.cells.push_back(std::move(out));
  }
  return report;
}

SweepReport SweepReport::from_json_string(const std::string& text) {
  return from_json(io::JsonValue::parse(text));
}

}  // namespace tealeaf
