// Levelized block-based static timing analysis over a validated netlist.
//
// TimingGraph reuses CircuitBuilder's validation and topological order
// (sim::NetlistTopology) -- the exact graph the event engine simulates --
// and propagates per-direction (rise/fall) worst-case times over it:
//
//   * deterministic mode: latest arrival per (net, direction) forward,
//     earliest required time backward from the endpoints against a
//     deadline, slack per net, and top-K critical-path enumeration
//     (best-first backward search scored by exact arrivals, so paths come
//     out in exact decreasing-delay order);
//   * corner mode: the same propagation with arcs re-extracted from a
//     cell::CellLibrary::at_corner derivation of the library (wires stay
//     nominal, matching sim::ProcessBinder);
//   * statistical mode: canonical first-order forms (sta::Canonical)
//     propagated with Clark's statistical max; arc sensitivities come from
//     central differences of the arc set at +-1 sigma per active
//     sim::ProcessVariation axis.
//
// Unateness: positive-unate elements (BUF, AND, OR, wires) feed input rise
// into output rise; negative-unate elements (INV, NAND, NOR) feed input
// rise into output fall; XOR is non-unate and feeds both. Arrival at every
// primary input is 0 in both directions (simultaneous-stimulus convention;
// BatchRunner's response delays are measured against the latest stimulus
// edge, which this bounds).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cell/cell_library.hpp"
#include "cell/netlist.hpp"
#include "core/process_point.hpp"
#include "sim/circuit_builder.hpp"
#include "sim/process_variation.hpp"
#include "sta/arc_delays.hpp"
#include "sta/canonical.hpp"

namespace charlie::sta {

/// One transition along a critical path.
struct PathStep {
  std::string net;
  bool rising = true;
  double t = 0.0;  // path time of this transition (input edge at 0) [s]
};

/// One register-to-register (here: input-to-endpoint) path, primary input
/// first.
struct CriticalPath {
  double delay = 0.0;  // total path delay [s]
  std::vector<PathStep> steps;
};

/// Per-net deterministic timing. Required times are +infinity for nets no
/// declared endpoint depends on (their slack is +infinity too).
struct NetTiming {
  std::string net;
  double arrival_rise = 0.0;
  double arrival_fall = 0.0;
  double required_rise = 0.0;
  double required_fall = 0.0;
  double slack = 0.0;  // min over both directions
};

struct TimingResult {
  double critical_delay = 0.0;  // latest endpoint arrival [s]
  std::string critical_endpoint;
  bool critical_rising = true;  // direction of the latest endpoint arrival
  double worst_slack = 0.0;     // min slack over constrained nets
  std::vector<NetTiming> nets;  // graph net order (inputs first, then topo)
};

/// Canonical (statistical) arc set: one Canonical per element arc, parallel
/// to ArcSet.
struct CanonicalArcSet {
  std::vector<std::vector<Canonical>> rise;  // [element][pin]
  std::vector<std::vector<Canonical>> fall;
};

class TimingGraph {
 public:
  /// Validates `desc` against `library` (same checks and ConfigError
  /// diagnostics as CircuitBuilder::build) and extracts the nominal arc
  /// set. Endpoints are the declared `output(...)` nets, falling back to
  /// the last instance's output (BatchRunner's observation convention).
  TimingGraph(const cell::NetlistDesc& desc,
              std::shared_ptr<const cell::CellLibrary> library);

  const std::vector<std::string>& nets() const {
    return topo_.net_ids.names();
  }
  const std::vector<std::string>& endpoints() const { return endpoints_; }
  const ArcSet& nominal_arcs() const { return nominal_arcs_; }

  /// Arc set at a process corner: gates re-derived analytically
  /// (at_corner), wires nominal.
  ArcSet arcs_at(const core::ProcessPoint& point) const;

  /// Deterministic arrival/required/slack pass. `deadline` <= 0 measures
  /// slack against the critical delay itself (worst slack exactly 0).
  TimingResult analyze(const ArcSet& arcs, double deadline) const;

  /// Top-k input-to-endpoint paths in exact decreasing delay order
  /// (best-first backward search; arrivals are an exact admissible bound,
  /// so no path is emitted out of order). Fewer than k paths are returned
  /// only when the circuit has fewer distinct paths (or the expansion
  /// guard trips on a pathologically dense graph).
  std::vector<CriticalPath> critical_paths(const ArcSet& arcs,
                                           std::size_t k) const;

  /// Canonical arc set under `variation`: mean from the nominal arcs,
  /// per-axis sensitivities by central differences at +-1 sigma (six
  /// at_corner derivations, only active axes pay), zero residual (the
  /// process model is fully correlated across a die).
  CanonicalArcSet canonical_arcs(const sim::ProcessVariation& variation) const;

  /// One-pass SSTA: canonical arrivals with statistical max, reduced over
  /// every endpoint in both directions. The result's quantiles/prob_below
  /// answer timing-yield queries without a Monte-Carlo batch.
  Canonical analyze_ssta(const CanonicalArcSet& arcs) const;

 private:
  int net_id(const std::string& name) const;

  /// Generic forward (net, direction) propagation over the topo order;
  /// V is double (deterministic max) or Canonical (statistical max).
  /// Instantiated in timing_graph.cpp only.
  template <typename V, typename ArcOf, typename Join>
  void propagate(ArcOf&& arc_of, Join&& join, std::vector<V>& rise,
                 std::vector<V>& fall) const;

  cell::NetlistDesc desc_;
  std::shared_ptr<const cell::CellLibrary> library_;
  sim::CircuitBuilder builder_;  // wire-table memoization across corners
  sim::NetlistTopology topo_;    // net ids, CSR fan-in, element topo order
  std::vector<sim::GateKind> kinds_;    // by element; wires are kBuf
  std::vector<std::string> endpoints_;
  std::vector<int> endpoint_ids_;
  ArcSet nominal_arcs_;
};

}  // namespace charlie::sta
