#pragma once

#include <string>
#include <vector>

#include "mesh/decomposition.hpp"
#include "model/machine.hpp"
#include "model/trace.hpp"

namespace tealeaf {

/// One point of a strong-scaling curve.
struct ScalingPoint {
  int nodes = 0;
  double seconds = 0.0;
};

/// A labelled curve, e.g. "PPCG - 16" on Titan (Figs. 5-7).
struct ScalingSeries {
  std::string label;
  std::vector<ScalingPoint> points;
};

/// Strong-scaling efficiency per point relative to the first point of the
/// series: eff(P) = T(P₀)·P₀ / (T(P)·P)  (Fig. 8; > 1 means super-linear).
[[nodiscard]] std::vector<double> scaling_efficiency(
    const ScalingSeries& series);

/// Cross-run speedups for a set of measured times (the design-space
/// sweep's ranking axis): speedup[i] = min(seconds) / seconds[i], so the
/// fastest run scores 1 and everything else < 1.  Non-positive entries
/// (failed runs) score 0.
[[nodiscard]] std::vector<double> relative_speedups(
    const std::vector<double>& seconds);

/// Wrap per-thread-count (or per-node) sweep measurements as a
/// ScalingSeries so scaling_efficiency applies to measured data too.
[[nodiscard]] ScalingSeries measured_series(
    std::string label, const std::vector<ScalingPoint>& points);

/// Bytes one assembled SpMV streams per row at `precision`: per stored
/// entry a value of the storage width (8 B fp64, 4 B fp32) plus a 4-byte
/// column offset, an 8-byte row pointer, and the source read and
/// destination write at the storage width.
[[nodiscard]] double assembled_smvp_bytes(double nnz_per_row,
                                          Precision precision);

/// Projects a measured solver run onto a modelled machine across node
/// counts (DESIGN.md §2.2).  Kernel cost is memory-bandwidth bound with a
/// per-sweep launch overhead and an LLC capacity boost (CPU); halo
/// exchanges pay pack/unpack memory traffic, optional PCIe staging and an
/// α-β wire cost; reductions pay a per-hop latency over a binary tree of
/// all ranks.  The per-iteration kernel/exchange recipes mirror the
/// solver implementations exactly (see trace.cpp for the validated
/// communication counts).
class ScalingModel {
 public:
  ScalingModel(MachineSpec spec, GlobalMesh2D mesh, int timesteps);

  /// Modelled wall-clock of the full run (timesteps × one solve of the
  /// given structure + per-step field setup) on `nodes` nodes.
  [[nodiscard]] double run_seconds(const SolverRunSummary& run,
                                   int nodes) const;

  [[nodiscard]] ScalingSeries sweep(const SolverRunSummary& run,
                                    const std::string& label,
                                    const std::vector<int>& node_counts) const;

  /// The BoomerAMG-substitute baseline (Fig. 7): MG-preconditioned CG
  /// with `pcg_iters` iterations per solve and a per-step setup cost of
  /// `setup_vcycles` V-cycle equivalents (AMG setup is expensive —
  /// paper §VIII).
  [[nodiscard]] double amg_run_seconds(int pcg_iters, int nodes,
                                       double setup_vcycles = 25.0) const;

  [[nodiscard]] ScalingSeries amg_sweep(int pcg_iters,
                                        const std::string& label,
                                        const std::vector<int>& node_counts,
                                        double setup_vcycles = 25.0) const;

  [[nodiscard]] const MachineSpec& spec() const { return spec_; }
  [[nodiscard]] const GlobalMesh2D& mesh() const { return mesh_; }

 private:
  class Cost;

  MachineSpec spec_;
  GlobalMesh2D mesh_;
  int timesteps_;
};

}  // namespace tealeaf
