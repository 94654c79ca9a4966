// Closed-form delay evaluation of the generalized N-input hybrid gate.
//
// Walks a core::ModeSegment (core/two_exp_crossing.hpp, the event
// channels' own crossing search) through a scripted sequence of input
// switches, for arbitrary arity and both topologies. Used by the paper's
// NOR2 delay model (core::NorDelayModel is a typed view over it), the gate
// parametrization fit (gate_parametrize.hpp), the STA arc envelopes and
// the wire step delays; not an event-loop hot path.
#pragma once

#include <span>
#include <vector>

#include "core/gate_mode_tables.hpp"

namespace charlie::core {

struct GateInputEvent {
  double t = 0.0;  // effective switch time (pure delay already applied)
  int port = 0;
  bool value = false;
};

/// First `rising`-direction V_th crossing of the mode's output component on
/// the trajectory entered at `x_ref`, searched over [0, tau_end]; negative
/// when there is none (ModeSegment::first_crossing). Used by the wire-arc
/// extraction of the static timing analyzer (WireModeTables::step_delay).
double mode_table_crossing(const ModeTable& mt, const ode::Vec2& x_ref,
                           double tau_end, double vth, bool rising);

/// First V_th crossing of V_O in the `rising` direction on the trajectory
/// that starts in the steady state of `s0` at t = 0 (a frozen internal node
/// starts at `v_int_hold`) and switches modes per `events` (time-sorted,
/// t >= 0, effective times -- callers add delta_min themselves when
/// modeling the pure delay). Returns the absolute crossing time; throws
/// ConvergenceError when the output never crosses within the search
/// horizon after the last event.
double gate_output_crossing(const GateModeTables& tables, GateState s0,
                            double v_int_hold,
                            std::span<const GateInputEvent> events,
                            bool rising);

/// Characteristic delays of the generalized gate, *excluding* delta_min
/// (raw RC trajectories; the pure delay adds to every entry).
///   fall[i] / rise[i] -- single-input-switching delays: input i alone
///     causes the output transition, the other inputs held non-controlling.
///   fall_all / rise_all -- every input switches simultaneously, starting
///     from the worst-case internal-node history.
struct GateSisDelays {
  std::vector<double> fall;
  std::vector<double> rise;
  double fall_all = 0.0;
  double rise_all = 0.0;
};

GateSisDelays gate_characteristic_delays(const GateModeTables& tables);

/// Conservative per-pin arc delays for static timing analysis, *excluding*
/// delta_min: entry i bounds the time from input i's (effective) switch to
/// the output V_th crossing over every switching context the event engine
/// can produce.
///
///   rise[i] = max(rise[i], rise_all) of gate_characteristic_delays
///   fall[i] = max(fall[i], fall_all)
///
/// The envelope argument (docs/sta.md): single-input switching with the
/// worst-case internal-node hold bounds staggered arrivals where input i
/// switches last into a settled stack, while the simultaneous-switch delay
/// bounds the near-simultaneous MIS regime -- the internal node at the last
/// arrival is always at least as favorable as one of the two extremes, so
/// the max of both covers the continuum between them.
struct GateArcEnvelope {
  std::vector<double> rise;  // output-rising arc through input i [s]
  std::vector<double> fall;  // output-falling arc through input i [s]
};

GateArcEnvelope gate_arc_envelope(const GateModeTables& tables);

}  // namespace charlie::core
