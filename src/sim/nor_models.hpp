// Two-input NOR baselines of the accuracy comparison (Fig 7) that have no
// N-input counterpart: the Exp- and SumExp-Channel of the Involution Tool.
//
// Each computes the boolean NOR in zero time and pushes the value changes
// through the single-input channel placed at the gate output -- exactly the
// arrangement the paper describes (and whose inability to see which input
// switched causes the Exp-Channel's broad-pulse errors). The inertial and
// pure-delay baselines are make_inertial_gate / make_pure_gate
// (sim/gate_models.hpp); the hybrid model is natively multi-input
// (HybridGateChannel).
#pragma once

#include <memory>

#include "sim/channel.hpp"
#include "sim/gate_models.hpp"

namespace charlie::sim {

std::unique_ptr<GateChannel> make_exp_nor(const SisGateDelays& delays,
                                          double delta_min);
std::unique_ptr<GateChannel> make_sumexp_nor(const SisGateDelays& delays,
                                             double delta_min);

}  // namespace charlie::sim
