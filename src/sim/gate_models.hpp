// Uniform N-input gate models for the accuracy comparison (Fig 7).
//
// Every delay model is wrapped as a GateChannel so the same trace harness
// drives them all:
//   * SIS-channel models (inertial, pure delay, and the Involution Tool's
//     Exp- and SumExp-Channel) compute the boolean NOR/NAND in zero time
//     and push the value changes through the single-input channel placed at
//     the gate output -- the Involution Tool arrangement, whose inability to
//     see which input switched (the Exp-Channel's broad-pulse errors) is
//     exactly what the hybrid model fixes;
//   * the hybrid model is natively N-input (HybridGateChannel).
#pragma once

#include <memory>

#include "core/gate_modes.hpp"
#include "core/gate_params.hpp"
#include "sim/channel.hpp"

namespace charlie::sim {

/// Zero-time boolean NOR/NAND of N inputs followed by an owned SIS output
/// channel.
class SisLogicGate : public GateChannel {
 public:
  SisLogicGate(core::GateTopology topology, int n_inputs,
               std::unique_ptr<SisChannel> channel);

  int n_inputs() const override { return n_inputs_; }
  void initialize(double t0, const std::vector<bool>& values) override;
  void on_input(double t, int port, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override;
  bool initial_output() const override;

 private:
  bool eval() const;

  core::GateTopology topology_;
  int n_inputs_;
  std::unique_ptr<SisChannel> channel_;
  core::GateState state_ = 0;
  bool gate_value_ = true;
};

/// Gate-delay figures used to parametrize the SIS baselines: single-input
/// channels cannot distinguish which input switched, so they are given the
/// average of the per-input SIS delays per transition direction.
struct SisGateDelays {
  double rise = 0.0;
  double fall = 0.0;
};

std::unique_ptr<GateChannel> make_inertial_gate(core::GateTopology topology,
                                                int n_inputs,
                                                const SisGateDelays& delays);
std::unique_ptr<GateChannel> make_pure_gate(core::GateTopology topology,
                                            int n_inputs,
                                            const SisGateDelays& delays);

/// Exp- and SumExp-Channel gates: involution channels with pure delay
/// `delta_min`, calibrated to the given SIS delays per direction.
std::unique_ptr<GateChannel> make_exp_gate(core::GateTopology topology,
                                           int n_inputs,
                                           const SisGateDelays& delays,
                                           double delta_min);
std::unique_ptr<GateChannel> make_sumexp_gate(core::GateTopology topology,
                                              int n_inputs,
                                              const SisGateDelays& delays,
                                              double delta_min);

}  // namespace charlie::sim
