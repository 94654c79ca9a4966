// Threshold-crossing search on the two-exponential scalar expansion.
//
// Every mode segment of the hybrid machinery -- gate modes and collapsed
// RC-wire drive states alike -- writes the output voltage as
//
//   V_O(t_ref + tau) = d + a1 e^{l1 tau} + a2 e^{l2 tau},
//
// a two-exponential-plus-constant with at most one interior extremum and at
// most two threshold crossings. The search below reduces the per-event
// crossing problem to a handful of exp() evaluations plus a safeguarded
// Newton solve (Brent only on non-convergence). Extracted from
// HybridGateChannel so sim::WireChannel shares the exact same solver; the
// channels keep only their mode bookkeeping and generic-scan fallbacks.
#pragma once

#include <functional>
#include <optional>

#include "core/gate_mode_tables.hpp"
#include "ode/vec2.hpp"

namespace charlie::sim {

// The expansion itself is core's (gate_mode_tables.hpp); re-exported here
// for the sim-side callers of the crossing search.
using core::TwoExpVo;
using core::two_exp_expand;

struct TwoExpCrossing {
  double tau = 0.0;  // crossing offset from the segment reference time
  bool rising = false;
};

/// First crossing of `vo` through `vth` in [tau0, tau0 + horizon], or
/// nullopt. Requires vo.valid and l1, l2 <= 0 (decaying modes).
std::optional<TwoExpCrossing> two_exp_next_crossing(const TwoExpVo& vo,
                                                    double vth, double tau0,
                                                    double horizon);

struct ScanCrossing {
  double t = 0.0;  // absolute time of the crossing
  bool rising = false;
};

/// Generic fallback for modes with a defective/complex spectrum (no scalar
/// expansion): sample `vo_at` (absolute-time output voltage) at a fraction
/// of the mode's fastest rate -- never more than ~4k evaluations per
/// window -- bracket a sign change, and polish with Brent. Cold path: the
/// std::function indirection is irrelevant here.
std::optional<ScanCrossing> scan_vo_crossing(
    const core::ModeTable& mt, double vth, double t_from, double horizon,
    const std::function<double(double)>& vo_at);

}  // namespace charlie::sim
