#include "sim/hybrid_gate_channel.hpp"

#include "util/error.hpp"
#include "util/fault_injection.hpp"

namespace charlie::sim {

// One channel per gate instance: its size must not grow.
static_assert(sizeof(HybridGateChannel) <= 200);

HybridGateChannel::HybridGateChannel(const core::GateParams& params)
    : HybridGateChannel(core::GateModeTables::make(params)) {}

HybridGateChannel::HybridGateChannel(
    std::shared_ptr<const core::GateModeTables> tables)
    : tables_(std::move(tables)) {
  CHARLIE_ASSERT(tables_ != nullptr);
  n_inputs_ = tables_->n_inputs();
  load_tables();
}

void HybridGateChannel::load_tables() {
  segment_.bind(tables_->state_table(state_), tables_->vth(),
                tables_->horizon());
  delta_min_ = tables_->delta_min();
}

void HybridGateChannel::rebind_tables(
    std::shared_ptr<const core::GateModeTables> tables) {
  CHARLIE_ASSERT(tables != nullptr);
  CHARLIE_ASSERT_MSG(tables->n_inputs() == n_inputs_,
                     "rebind_tables: arity mismatch");
  tables_ = std::move(tables);
  load_tables();
}

void HybridGateChannel::initialize(double t0,
                                   const std::vector<bool>& values) {
  CHARLIE_ASSERT(values.size() == static_cast<std::size_t>(n_inputs_));
  state_ = 0;
  for (int i = 0; i < n_inputs_; ++i) {
    state_ = core::gate_state_with(state_, i, values[i]);
  }
  // Re-read the cached scalars: a shared worker-local table may have been
  // re-derived in place (process-variation rebinding) since the last run.
  load_tables();
  const core::ModeTable& mt = tables_->state_table(state_);
  // Steady state; an isolated internal stack node defaults to the
  // worst-case history value (GND for NOR-like, VDD for NAND-like).
  ode::Vec2 x0 = mt.steady;
  if (core::gate_mode_internal_frozen(tables_->gate_params(), state_)) {
    x0.x = tables_->default_hold();
  }
  segment_.reset(t0, x0, mt);
  queue_.reset(tables_->output_value(state_));
}

void HybridGateChannel::on_input(double t, int port, bool value) {
  CHARLIE_ASSERT(port >= 0 && port < n_inputs_);
  const double te = t + delta_min_;  // pure delay defers the switch
  CHARLIE_ASSERT_MSG(te >= segment_.t_ref() - 1e-18,
                     "hybrid channel: out-of-order input");

  // Crossings up to the effective switch time have physically happened --
  // the new input cannot cancel them (the pure delay shifts the *effect*
  // of the input past them). Only crossings after te are recomputed.
  commit_crossings(segment_, queue_, te);

  // Evolve the analog state to the switch instant, then change mode.
  ode::Vec2 x = segment_.state_at(te);
  x.y = CHARLIE_FAULT_DOUBLE("hybrid_channel.state", x.y);
  const core::GateState next = core::gate_state_with(state_, port, value);
  segment_.enter(te, x, tables_->state_table(next), "hybrid channel");
  state_ = next;

  queue_.set_live(next_crossing_event(segment_, te));
}

void HybridGateChannel::on_fire(const PendingEvent& fired) {
  // The waveform may cross again within the same mode (non-monotone V_O);
  // keep looking just past the crossing.
  if (queue_.fire(fired)) {
    queue_.set_live(next_crossing_event(segment_, fired.t + 1e-18));
  }
}

}  // namespace charlie::sim
