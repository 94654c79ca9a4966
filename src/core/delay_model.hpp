// The MIS gate-delay model of the paper (Section IV).
//
// Falling output transition (both inputs rise, separation Delta = tB - tA):
//   start in the (0,0) steady state; at t=0 the earlier input rises
//   (mode (1,0) for Delta > 0, (0,1) for Delta < 0); at t = |Delta| the
//   later input rises (mode (1,1)). The delay is measured from the earlier
//   input:  delta_fall(Delta) = tO + delta_min.
//
// Rising output transition (both inputs fall):
//   start in the (1,1) steady state with V_N frozen at vn0 (the gate's
//   switching history; the paper evaluates GND, VDD/2 and VDD); at t=0 the
//   earlier input falls (mode (1,0) for Delta < 0, (0,1) for Delta > 0); at
//   t = |Delta| the later one falls (mode (0,0)). The delay is measured from
//   the later input:  delta_rise(Delta) = tO - |Delta| + delta_min.
//
// Every delay is a scripted input sequence evaluated by the N-input gate
// core (core::gate_output_crossing on the NOR2 mode tables), so this class
// is the paper's typed view of GateParams::from_nor(params), not a second
// evaluator.
#pragma once

#include "core/mode_tables.hpp"
#include "core/modes.hpp"
#include "core/nor_params.hpp"

namespace charlie::core {

struct DelayResult {
  double delay = 0.0;    // reported gate delay, including delta_min
  double t_cross = 0.0;  // absolute output crossing time tO (t=0 = earlier input)
  Mode intermediate = Mode::kS00;  // mode occupied during (0, |Delta|)
};

class NorDelayModel {
 public:
  /// Validates `params` (throws ConfigError) and derives the NOR2 mode
  /// tables once.
  explicit NorDelayModel(const NorParams& params);

  /// delta_fall(Delta): falling-output MIS delay; Delta = tB - tA.
  DelayResult falling_delay(double delta) const;

  /// delta_rise(Delta; vn0): rising-output MIS delay. vn0 is the initial
  /// internal-node voltage in the (1,1) start mode (paper: GND worst case).
  DelayResult rising_delay(double delta, double vn0 = 0.0) const;

  /// SIS limits (|Delta| -> infinity), computed on single-switch
  /// trajectories rather than by saturating Delta.
  double falling_sis_b_first() const;              // delta_fall(-inf)
  double falling_sis_a_first() const;              // delta_fall(+inf)
  double rising_sis_b_first(double vn0 = 0.0) const;  // delta_rise(-inf)
  double rising_sis_a_first(double vn0 = 0.0) const;  // delta_rise(+inf)

  const NorParams& params() const { return tables_.params(); }

  /// Largest mode time constant (search-horizon building block).
  double slowest_time_constant() const;

 private:
  NorModeTables tables_;
};

}  // namespace charlie::core
