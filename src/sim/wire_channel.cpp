#include "sim/wire_channel.hpp"

#include "util/error.hpp"

namespace charlie::sim {

// One channel per gate instance: its size must not grow.
static_assert(sizeof(WireChannel) <= 192);

WireChannel::WireChannel(const wire::WireParams& params)
    : WireChannel(wire::WireModeTables::make(params)) {}

WireChannel::WireChannel(std::shared_ptr<const wire::WireModeTables> tables)
    : tables_(std::move(tables)) {
  CHARLIE_ASSERT(tables_ != nullptr);
  segment_.bind(tables_->drive_table(input_), tables_->vth(),
                tables_->horizon());
  drive_delay_ = tables_->drive_delay();
}

void WireChannel::initialize(double t0, bool value) {
  input_ = value;
  const core::ModeTable& mt = tables_->drive_table(value);
  segment_.reset(t0, mt.steady, mt);  // line fully settled at the rail
  queue_.reset(value);
}

void WireChannel::on_input(double t, bool value) {
  if (value == input_) return;  // defensive; the engine filters no-ops
  // The drive-shape correction defers the switch to the centroid of the
  // driver's output edge (wire_params.hpp): the rail flip acts at te.
  const double te = t + drive_delay_;
  CHARLIE_ASSERT_MSG(te >= segment_.t_ref() - 1e-18,
                     "wire channel: out-of-order input");

  // Crossings up to the effective switch instant have physically happened
  // and can no longer be cancelled.
  commit_crossings(segment_, queue_, te);

  // Analog handoff: evolve the line state to the switch instant, then flip
  // the drive rail. V_out and its slope carry over continuously.
  segment_.enter(te, segment_.state_at(te), tables_->drive_table(value),
                 "wire channel");
  input_ = value;

  queue_.set_live(next_crossing_event(segment_, te));
}

void WireChannel::on_fire(const PendingEvent& fired) {
  // The waveform may cross again within the same drive state (the slope
  // state can carry V_out back through the threshold); keep looking.
  if (queue_.fire(fired)) {
    queue_.set_live(next_crossing_event(segment_, fired.t + 1e-18));
  }
}

}  // namespace charlie::sim
