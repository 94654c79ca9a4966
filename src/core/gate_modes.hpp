// Operating modes of the generalized N-input hybrid gate model.
//
// An N-input gate has 2^N input states; each state turns the ideal switches
// of the series/parallel network on or off and yields one affine RC system
// V' = M V + g over V = (V_int, V_O). For N = 2 and kNorLike
// (GateParams::from_nor) these are the paper's four NOR modes (Section III
// B-E), with input A in bit 0 and B in bit 1 of the state:
//   (1,1): CN dVN/dt = 0;             CO dVO/dt = -VO (1/R3 + 1/R4)
//   (1,0): CN dVN/dt = -(VN - VO)/R2; CO dVO/dt = -VO/R3 + (VN - VO)/R2
//   (0,1): CN dVN/dt = (VDD - VN)/R1; CO dVO/dt = -VO/R4
//   (0,0): CN dVN/dt = (VDD - VN)/R1 - (VN - VO)/R2;
//          CO dVO/dt = (VN - VO)/R2
//
// A GateState packs the input levels as a bitmask: bit i (LSB = input 0) is
// the logic level of input i.
#pragma once

#include <string>

#include "core/gate_params.hpp"
#include "ode/linear_ode2.hpp"

namespace charlie::core {

using GateState = unsigned;

/// Number of input states of an n-input gate.
inline constexpr GateState gate_n_states(int n) { return 1u << n; }

/// Logic level of input `port` in `state`.
inline constexpr bool gate_state_input(GateState state, int port) {
  return ((state >> port) & 1u) != 0;
}

/// `state` with input `port` set to `value`.
inline constexpr GateState gate_state_with(GateState state, int port,
                                           bool value) {
  return value ? (state | (1u << port)) : (state & ~(1u << port));
}

/// "(1,0,1)"-style name, input 0 first (paper figure convention).
std::string gate_state_name(GateState state, int n_inputs);

/// Boolean output the gate settles to in `state`: NOR-like gates are high
/// iff every input is low, NAND-like gates are low iff every input is high.
bool gate_mode_output(GateTopology topology, GateState state, int n_inputs);

/// True when the internal stack node is isolated in `state` (every switch
/// adjacent to it is off), i.e. the mode ODE freezes V_int.
bool gate_mode_internal_frozen(const GateParams& params, GateState state);

/// The affine ODE V' = M V + g of `state` (see gate_params.hpp for the
/// series-chain conventions). Precondition: `params` is valid; validation
/// happens once at table construction, not per call.
ode::AffineOde2 gate_mode_ode(const GateParams& params, GateState state);

/// Steady state the mode converges to. When the internal node is frozen its
/// component stays at `v_int_hold`; every non-frozen steady state is exact
/// (supply-rail values, not a numeric matrix inversion).
ode::Vec2 gate_mode_steady_state(const GateParams& params, GateState state,
                                 double v_int_hold = 0.0);

}  // namespace charlie::core
