#include "sim/gate_models.hpp"

#include "core/gate_modes.hpp"
#include "sim/exp_channel.hpp"
#include "sim/inertial.hpp"
#include "sim/pure_delay.hpp"
#include "sim/sumexp_channel.hpp"
#include "util/error.hpp"

namespace charlie::sim {

SisLogicGate::SisLogicGate(core::GateTopology topology, int n_inputs,
                           std::unique_ptr<SisChannel> channel)
    : topology_(topology), n_inputs_(n_inputs), channel_(std::move(channel)) {
  CHARLIE_ASSERT(channel_ != nullptr);
  CHARLIE_ASSERT(n_inputs_ >= 2 && n_inputs_ <= core::kMaxGateInputs);
}

bool SisLogicGate::eval() const {
  return core::gate_mode_output(topology_, state_, n_inputs_);
}

void SisLogicGate::initialize(double t0, const std::vector<bool>& values) {
  CHARLIE_ASSERT(values.size() == static_cast<std::size_t>(n_inputs_));
  state_ = 0;
  for (int i = 0; i < n_inputs_; ++i) {
    state_ = core::gate_state_with(state_, i, values[i]);
  }
  gate_value_ = eval();
  channel_->initialize(t0, gate_value_);
}

bool SisLogicGate::initial_output() const {
  return channel_->initial_output();
}

std::optional<PendingEvent> SisLogicGate::pending() const {
  return channel_->pending();
}

void SisLogicGate::on_input(double t, int port, bool value) {
  CHARLIE_ASSERT(port >= 0 && port < n_inputs_);
  state_ = core::gate_state_with(state_, port, value);
  const bool new_value = eval();
  if (new_value == gate_value_) {
    // The zero-time gate output is unchanged (other inputs still hold it);
    // nothing reaches the channel.
    return;
  }
  gate_value_ = new_value;
  channel_->on_input(t, new_value);
}

void SisLogicGate::on_fire(const PendingEvent& fired) {
  channel_->on_fire(fired);
}

std::unique_ptr<GateChannel> make_inertial_gate(core::GateTopology topology,
                                                int n_inputs,
                                                const SisGateDelays& delays) {
  return std::make_unique<SisLogicGate>(
      topology, n_inputs,
      std::make_unique<InertialChannel>(delays.rise, delays.fall));
}

std::unique_ptr<GateChannel> make_pure_gate(core::GateTopology topology,
                                            int n_inputs,
                                            const SisGateDelays& delays) {
  // A pure delay must be direction-independent to preserve ordering; use
  // the mean of the two directions.
  const double d = 0.5 * (delays.rise + delays.fall);
  return std::make_unique<SisLogicGate>(
      topology, n_inputs, std::make_unique<PureDelayChannel>(d));
}

std::unique_ptr<GateChannel> make_exp_gate(core::GateTopology topology,
                                           int n_inputs,
                                           const SisGateDelays& delays,
                                           double delta_min) {
  ExpChannelParams p;
  p.delta_inf_up = delays.rise;
  p.delta_inf_down = delays.fall;
  p.delta_min = delta_min;
  return std::make_unique<SisLogicGate>(topology, n_inputs,
                                        std::make_unique<ExpChannel>(p));
}

std::unique_ptr<GateChannel> make_sumexp_gate(core::GateTopology topology,
                                              int n_inputs,
                                              const SisGateDelays& delays,
                                              double delta_min) {
  SumExpChannelParams p;
  p.delta_min = delta_min;
  p.calibrate_direction(true, delays.rise);
  p.calibrate_direction(false, delays.fall);
  return std::make_unique<SisLogicGate>(topology, n_inputs,
                                        std::make_unique<SumExpChannel>(p));
}

}  // namespace charlie::sim
