// Process variation for statistical batch simulation.
//
// ProcessVariation describes independent Gaussian perturbations of the
// core::ProcessPoint axes. sample(seed, run_index) draws a run's process
// corner from a counter-based RNG stream, so a sample is a pure function of
// (seed, global run index) -- never of which worker draws it or in which
// order runs execute (thread-count-invariant batches, split/replay-stable
// via BatchConfig::first_run_index). Samples are sigma-clamped to exactly
// the span of grid_spec(), so grid interpolation never extrapolates.
//
// ProcessBinder retargets one circuit clone to a sampled point between runs
// without allocation:
//   * hybrid MIS channels are rebound to a worker-local GateModeTables copy
//     re-filled in place by core::ModeTableGrid::interpolate_into (one copy
//     and one blend per distinct cell table, shared by all its instances);
//   * inertial SIS channels get their nominal rise/fall delays scaled by
//     ProcessPoint::resistance_scale (the same factor
//     cell::CellLibrary::at_corner applies);
//   * wire channels (interconnect) deliberately stay nominal -- RC wires
//     carry no device parameters, only geometry.
// Binding the nominal point restores the original shared tables and delays
// bit-exactly, so a variation-capable batch with all sigmas at zero is
// indistinguishable from a pre-variation one.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/mode_table_grid.hpp"
#include "core/process_point.hpp"
#include "sim/circuit.hpp"
#include "sim/hybrid_gate_channel.hpp"
#include "sim/inertial.hpp"

namespace charlie::sim {

/// Gaussian process variation; all sigmas zero = nominal-only (disabled).
struct ProcessVariation {
  double vdd_sigma = 0.0;    // sigma of vdd_scale (relative, nominal 1)
  double vth_sigma = 0.0;    // sigma of vth_shift [V] (nominal 0)
  double drive_sigma = 0.0;  // sigma of drive_scale (relative, nominal 1)
  // Samples clamp their standard score to [-kMaxSigma, +kMaxSigma]; the
  // collocation grid spans exactly that range per active axis.
  static constexpr double kMaxSigma = 3.5;
  // Grid resolution per active axis (collocation points; >= 2 for an
  // actual span, 3 puts a point at nominal).
  int grid_levels = 3;
  // Nominal supply voltage used to close the SIS delay scale when the
  // circuit has no hybrid gate to read it from; 0 = read from the circuit.
  double vdd_nominal = 0.0;

  bool enabled() const {
    return vdd_sigma > 0.0 || vth_sigma > 0.0 || drive_sigma > 0.0;
  }

  /// Throws ConfigError on negative/non-finite sigmas, grid_levels below
  /// 2, or spans wide enough to cross zero supply or drive.
  void validate() const;

  /// The process sample of global run `run_index` under `seed`: a pure
  /// function of the key, independent of draw order. All three axes always
  /// consume the same number of stream draws, so enabling one sigma never
  /// shifts another axis's values.
  core::ProcessPoint sample(std::uint64_t seed, std::uint64_t run_index) const;

  /// Grid extents matching the clamped sample range exactly (inactive axes
  /// stay pinned at nominal).
  core::ModeTableGrid::Spec grid_spec() const;
};

/// Everything that makes one batch run distinct: the stimulus stream seed
/// and the process sample. Both derive from (base_seed, global run index).
struct RunSpec {
  std::uint64_t stimulus_seed = 0;
  core::ProcessPoint point;
};

/// Per-worker channel retargeting (see the file comment). Construction
/// registers every process-aware channel and allocates the worker-local
/// table copies; bind() is allocation-free.
class ProcessBinder {
 public:
  /// One shared grid per distinct nominal table; keyed by the table's
  /// address so clones that share tables (the CircuitBuilder path) share
  /// grids across all workers.
  using GridMap = std::map<const core::GateModeTables*,
                           std::shared_ptr<const core::ModeTableGrid>>;

  /// Build (or extend) `grids` with one ModeTableGrid per distinct hybrid
  /// table of `circuit` not already present. Call once per worker clone
  /// before constructing its binder; tables already covered are skipped,
  /// so shared tables pay one corner derivation total.
  static void build_grids(Circuit& circuit,
                          const core::ModeTableGrid::Spec& spec,
                          GridMap& grids);

  /// Registers the channels of `circuit`. `vdd_override` closes the SIS
  /// delay scale; 0 = read VDD from the first hybrid gate. Throws
  /// ConfigError when inertial channels exist but no VDD source does.
  ProcessBinder(Circuit& circuit, const GridMap& grids,
                double vdd_override = 0.0);

  /// Retarget every registered channel to `point`. Allocation-free; the
  /// nominal point restores the original tables/delays bit-exactly.
  void bind(const core::ProcessPoint& point);

  std::size_t n_hybrid_channels() const { return hybrid_channels_.size(); }
  std::size_t n_inertial_channels() const { return inertial_.size(); }
  double vdd_nominal() const { return vdd_nominal_; }

 private:
  struct TableRebind {
    std::shared_ptr<const core::GateModeTables> nominal;
    std::shared_ptr<const core::ModeTableGrid> grid;
    std::shared_ptr<core::GateModeTables> local;  // this binder's scratch
  };
  struct HybridSlot {
    HybridGateChannel* channel = nullptr;
    std::size_t rebind = 0;  // index into rebinds_
  };
  struct InertialSlot {
    InertialChannel* channel = nullptr;
    double delay_up = 0.0;    // nominal
    double delay_down = 0.0;  // nominal
  };

  std::vector<TableRebind> rebinds_;
  std::vector<HybridSlot> hybrid_channels_;
  std::vector<InertialSlot> inertial_;
  double vdd_nominal_ = 0.0;
};

}  // namespace charlie::sim
