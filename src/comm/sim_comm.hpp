#pragma once

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "comm/comm_stats.hpp"
#include "mesh/chunk.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/mesh.hpp"
#include "ops/bounds.hpp"
#include "ops/sparse_matrix.hpp"
#include "util/parallel.hpp"

namespace tealeaf {

/// Simulated distributed-memory cluster: the substitution for MPI
/// documented in DESIGN.md §2.1.  One implementation serves both problem
/// dimensions — the mesh's `dims` selects the 2-D or 3-D decomposition,
/// chunk layout and halo-exchange scheme, so every execution-engine
/// feature (team regions, team reductions, row-blocking) applies to both.
///
/// The global mesh is block-decomposed over `nranks` simulated ranks, one
/// Chunk each.  Solvers drive the chunks SPMD-style through
/// `for_each_chunk` / `sum_over_chunks`, and all inter-rank data motion
/// goes through `exchange` (halo swap, real byte copies) and `reduce_sum`
/// (global reduction over ordered per-rank partials).  Every message and
/// byte is recorded in CommStats so the performance model can replay the
/// run on a modelled machine.
///
/// Halo exchange is staged per axis (x first, then y carrying the x-halo
/// columns, then z carrying the xy-halo rows), which propagates corner
/// and edge data exactly as upstream TeaLeaf's staged MPI exchange does —
/// required for matrix-powers halo depths > 1.
///
/// The basic collectives have two forms: the standalone form opens its
/// own parallel region (one fork/join per call — set-up and the fp64
/// refinement guard use it), and a Team-aware form that workshares inside
/// an already-open `parallel_region` — the execution engine's path, which
/// hoists one region around a whole solve.  Both forms return identical
/// values (per-rank partials reduced in rank order) and record identical
/// CommStats.
class SimCluster {
 public:
  /// Decompose `mesh` over `nranks` ranks, allocating every chunk with
  /// `halo_depth` ghost layers (>= the deepest exchange to be requested).
  /// Chunks are constructed in parallel with the same rank→thread block
  /// mapping the kernels use, so each chunk's fields are first-touched —
  /// and hence NUMA-placed — on the thread that will process them.
  SimCluster(const GlobalMesh& mesh, int nranks, int halo_depth);

  [[nodiscard]] int nranks() const { return static_cast<int>(chunks_.size()); }
  [[nodiscard]] int halo_depth() const { return halo_depth_; }
  [[nodiscard]] const GlobalMesh& mesh() const { return mesh_; }
  [[nodiscard]] const Decomposition& decomposition() const {
    return decomp_;
  }
  [[nodiscard]] Chunk& chunk(int rank) { return *chunks_[rank]; }
  [[nodiscard]] const Chunk& chunk(int rank) const {
    return *chunks_[rank];
  }

  /// Swap `depth` halo layers of each listed field with all face
  /// neighbours.  All fields travel in one message per direction.
  void exchange(std::initializer_list<FieldId> fields, int depth);
  void exchange(const std::vector<FieldId>& fields, int depth);

  /// Team-aware halo exchange for use inside a hoisted parallel region:
  /// same data motion and accounting as the standalone form, worksharing
  /// over ranks through `team` with barriers between the axis phases
  /// (and entry/exit barriers so neighbouring kernel phases can skip
  /// their own).  Pass team == nullptr to fall back to the standalone
  /// form — lets one code path serve both execution modes.
  void exchange(const Team* team, std::initializer_list<FieldId> fields,
                int depth);
  void exchange(const Team* team, const std::vector<FieldId>& fields,
                int depth);

  /// Global sum of one partial value per rank, accumulated in rank order
  /// (deterministic).  Counts one allreduce.
  double reduce_sum(const std::vector<double>& partials);

  /// Run `body(rank, chunk)` for every rank, parallelised over ranks.
  template <class Body>
  void for_each_chunk(Body&& body) {
    parallel_for(0, nranks(), [&](std::int64_t r) {
      body(static_cast<int>(r), *chunks_[r]);
    });
  }

  /// Team-aware form: workshares the ranks through `team`.  No implied
  /// barrier.
  template <class Body>
  void for_each_chunk(const Team& team, Body&& body) {
    team.for_range(0, nranks(), [&](std::int64_t r) {
      body(static_cast<int>(r), *chunks_[r]);
    });
  }

  // ---- row-blocked execution (the team engine's worksharing unit) -------
  // The execution engine's sweeps run over row-blocks: a "row" is one
  // unit-stride line of cells, and a block is a k-range of one plane (3-D
  // sweeps block each plane separately, so no block spans a plane
  // boundary).  The blocks derive from the team a sweep runs on — a pure
  // function of the chunk extents, the rank count and the team size, so
  // a batch sub-team gets its own split:
  //  * threads <= ranks: one block per rank (per plane in 3-D), every
  //    block on the thread that owns the rank — the NUMA first-touch
  //    mapping of chunk construction;
  //  * threads > ranks: T / gcd(T, R) near-equal blocks per plane of each
  //    rank, so the (rank, block) pairs split evenly over the team via
  //    Team::for_range_2d and chunks fewer than the threads still keep
  //    every core busy.
  // Results are bitwise independent of the split and the schedule:
  // non-reducing sweeps are per-cell independent, and reducing sweeps
  // deposit per-row partials that the engine always combines in row
  // order, then rank order.

  /// Row-blocks per plane of every rank for a team of `threads` threads
  /// over `ranks` ranks (before clamping to the rows a plane has).
  [[nodiscard]] static int blocks_per_plane(int threads, int ranks) {
    return threads <= ranks ? 1 : threads / std::gcd(threads, ranks);
  }

  /// Run `body(rank, chunk, tile)` for every row-block of every rank,
  /// where `tile` is `bounds_of(rank, chunk)` restricted to one plane and
  /// one block, workshared on `team`.  `bounds_of` must be a pure
  /// function of (rank, chunk).  No implied barrier.
  template <class BoundsFn, class Body>
  void for_each_tile(const Team& team, BoundsFn&& bounds_of, Body&& body) {
    const int blocks = blocks_per_plane(team.num_threads(), nranks());
    const auto per_plane = [blocks](const Bounds& b) {
      return std::min(blocks, b.khi - b.klo);
    };
    const auto num_tiles = [&](const Bounds& b) {
      return (b.lhi - b.llo) * per_plane(b);
    };
    const auto run_tile = [&](int r, Chunk& c, const Bounds& b, int t) {
      const int rows = b.khi - b.klo;
      const int n = per_plane(b);
      const int blk = t % n;
      Bounds tb = b;
      tb.llo = b.llo + t / n;
      tb.lhi = tb.llo + 1;
      tb.klo = b.klo + blk * rows / n;
      tb.khi = b.klo + (blk + 1) * rows / n;
      body(r, c, tb);
    };
    if (blocks == 1) {
      team.for_range(0, nranks(), [&](std::int64_t r) {
        Chunk& c = *chunks_[static_cast<std::size_t>(r)];
        const Bounds b = bounds_of(static_cast<int>(r), c);
        const int nt = num_tiles(b);
        for (int t = 0; t < nt; ++t) run_tile(static_cast<int>(r), c, b, t);
      });
      return;
    }
    team.for_range_2d(
        nranks(),
        [&](std::int64_t r) -> std::int64_t {
          Chunk& c = *chunks_[static_cast<std::size_t>(r)];
          return num_tiles(bounds_of(static_cast<int>(r), c));
        },
        [&](std::int64_t r, std::int64_t t) {
          Chunk& c = *chunks_[static_cast<std::size_t>(r)];
          const Bounds b = bounds_of(static_cast<int>(r), c);
          run_tile(static_cast<int>(r), c, b, static_cast<int>(t));
        });
  }

  /// Combine the per-row partials already deposited in every chunk's
  /// `row_scratch()[ρ]` (one slot per interior row, ρ = l·ny + k): each
  /// rank's rows sum in row order, then the ranks in rank order — the
  /// same value whatever tiling or thread assignment produced the
  /// partials.  Counts ONE allreduce.  Implies barriers, including one on
  /// entry so the deposits of a preceding (differently-scheduled) tile
  /// pass are visible.
  double combine_row_partials(const Team& team) {
    team.barrier();
    team.for_range(0, nranks(), [&](std::int64_t r) {
      const Chunk& c = *chunks_[static_cast<std::size_t>(r)];
      double p = 0.0;
      for (int rho = 0; rho < c.num_rows(); ++rho) p += c.row_scratch()[rho];
      team_partials_[static_cast<std::size_t>(r)] = p;
    });
    team.barrier();
    double total = 0.0;
    for (int r = 0; r < nranks(); ++r) {
      total += team_partials_[static_cast<std::size_t>(r)];
    }
    team.single([&] { ++stats_.reductions; });
    team.barrier();
    return total;
  }

  /// Tiled team reduction: `body(rank, chunk, tb)` sweeps the interior
  /// rows of tile `tb` and deposits one partial per row into the chunk's
  /// `row_scratch()[ρ]`, then the partials combine via
  /// combine_row_partials.  Counts ONE allreduce.  Implies barriers,
  /// including one on entry so the sweep may read fields a preceding
  /// (differently-scheduled) tile pass wrote.
  template <class Body>
  double sum_rows_over_chunks(const Team& team, Body&& body) {
    const auto interior = [](int, Chunk& c) { return interior_bounds(c); };
    team.barrier();
    for_each_tile(team, interior, body);
    return combine_row_partials(team);
  }

  /// Pair analogue of sum_rows_over_chunks: `body(rank, chunk, tb)`
  /// deposits (row_scratch[2ρ], row_scratch[2ρ+1]) per row, and both sums
  /// travel in ONE allreduce (the MPI_Allreduce-of-a-vector the paper's
  /// §VII future work proposes for combining CG's dot products).
  template <class Body>
  std::pair<double, double> sum2_rows_over_chunks(const Team& team,
                                                  Body&& body) {
    const auto interior = [](int, Chunk& c) { return interior_bounds(c); };
    team.barrier();
    for_each_tile(team, interior, body);
    team.barrier();
    team.for_range(0, nranks(), [&](std::int64_t r) {
      const Chunk& c = *chunks_[static_cast<std::size_t>(r)];
      double a = 0.0;
      double b = 0.0;
      for (int rho = 0; rho < c.num_rows(); ++rho) {
        a += c.row_scratch()[2 * rho];
        b += c.row_scratch()[2 * rho + 1];
      }
      team_partials2_[static_cast<std::size_t>(r)] = {a, b};
    });
    team.barrier();
    double a = 0.0;
    double b = 0.0;
    for (int r = 0; r < nranks(); ++r) {
      a += team_partials2_[static_cast<std::size_t>(r)].first;
      b += team_partials2_[static_cast<std::size_t>(r)].second;
    }
    team.single([&] { ++stats_.reductions; });
    team.barrier();
    return {a, b};
  }

  /// Evaluate `body(rank, chunk) -> double` on every rank and globally
  /// reduce the partials (counts one allreduce).
  template <class Body>
  double sum_over_chunks(Body&& body) {
    std::vector<double> partials(static_cast<std::size_t>(nranks()), 0.0);
    parallel_for(0, nranks(), [&](std::int64_t r) {
      partials[r] = body(static_cast<int>(r), *chunks_[r]);
    });
    return reduce_sum(partials);
  }

  /// Team-aware form: per-rank partials land in a shared buffer, then
  /// every thread reduces them in rank order — all threads return the
  /// same sum, bitwise equal to the standalone form.  Counts ONE
  /// allreduce.  Implies barriers (before the reduce and before return).
  template <class Body>
  double sum_over_chunks(const Team& team, Body&& body) {
    team.for_range(0, nranks(), [&](std::int64_t r) {
      team_partials_[static_cast<std::size_t>(r)] =
          body(static_cast<int>(r), *chunks_[r]);
    });
    team.barrier();
    double total = 0.0;
    for (int r = 0; r < nranks(); ++r) {
      total += team_partials_[static_cast<std::size_t>(r)];
    }
    team.single([&] { ++stats_.reductions; });
    team.barrier();  // buffer is free for the next collective
    return total;
  }

  [[nodiscard]] CommStats& stats() { return stats_; }
  [[nodiscard]] const CommStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

 private:
  /// Shared implementation of all exchange overloads.  Takes the field
  /// list as pointer + count so the initializer_list forms forward their
  /// backing array directly — no per-call (and in the Team path,
  /// per-thread) vector allocation on the hot fused path.
  void exchange_impl(const Team* team, const FieldId* fields, int nfields,
                     int depth);
  /// Per-rank copy bodies of the axis phases (shared by the standalone
  /// and Team-aware forms).  The per-face splits are the unit of 2-D
  /// worksharing: when the team has more threads than ranks the phases
  /// workshare (rank, face) pairs instead of ranks, so the halo copies of
  /// a wide-and-shallow decomposition also use the whole team.
  void exchange_x_rank(int rank, const FieldId* fields, int nfields,
                       int depth);
  void exchange_x_rank_face(int rank, Face face, const FieldId* fields,
                            int nfields, int depth);
  void exchange_y_rank(int rank, const FieldId* fields, int nfields,
                       int depth);
  void exchange_y_rank_face(int rank, Face face, const FieldId* fields,
                            int nfields, int depth);
  void exchange_z_rank(int rank, const FieldId* fields, int nfields,
                       int depth);
  void exchange_z_rank_face(int rank, Face face, const FieldId* fields,
                            int nfields, int depth);
  /// Message/byte accounting of one exchange (all phases, all ranks).
  void account_exchange(int nfields, int depth);

  GlobalMesh mesh_;
  Decomposition decomp_;
  int halo_depth_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  CommStats stats_;
  /// Shared scratch for the Team-aware rank-ordered reductions.
  std::vector<double> team_partials_;
  std::vector<std::pair<double, double>> team_partials2_;
};

/// Compatibility spelling from before the dimension-generic core.
using SimCluster2D = SimCluster;

}  // namespace tealeaf
