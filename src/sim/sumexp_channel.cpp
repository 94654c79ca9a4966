#include "sim/sumexp_channel.hpp"

#include <cmath>

#include "fit/brent_root.hpp"
#include "util/error.hpp"

namespace charlie::sim {

// One channel per gate instance: its size must not grow.
static_assert(sizeof(SumExpChannel) <= 152);

void SumExpChannelParams::validate() const {
  CHARLIE_ASSERT(tau_up_a > 0.0 && tau_up_b > 0.0);
  CHARLIE_ASSERT(tau_down_a > 0.0 && tau_down_b > 0.0);
  CHARLIE_ASSERT(weight_up >= 0.0 && weight_up <= 1.0);
  CHARLIE_ASSERT(weight_down >= 0.0 && weight_down <= 1.0);
  CHARLIE_ASSERT(delta_min >= 0.0);
}

namespace {

double shape_of(double dt, double ta, double tb, double w) {
  return w * std::exp(-dt / ta) + (1.0 - w) * std::exp(-dt / tb);
}

// First dt > 0 with shape(dt) = 1/2 (shape is monotone decreasing from 1).
double half_crossing(double ta, double tb, double w) {
  const double hi = 64.0 * std::max(ta, tb);
  return fit::brent_root(
      [&](double dt) { return shape_of(dt, ta, tb, w) - 0.5; }, 0.0, hi);
}

}  // namespace

double SumExpChannelParams::sis_delay(bool rising) const {
  const double ta = rising ? tau_up_a : tau_down_a;
  const double tb = rising ? tau_up_b : tau_down_b;
  const double w = rising ? weight_up : weight_down;
  return delta_min + half_crossing(ta, tb, w);
}

void SumExpChannelParams::calibrate_direction(bool rising, double target_sis) {
  CHARLIE_ASSERT_MSG(target_sis > delta_min,
                     "sumexp: SIS target must exceed delta_min");
  const double current = sis_delay(rising) - delta_min;
  const double scale = (target_sis - delta_min) / current;
  if (rising) {
    tau_up_a *= scale;
    tau_up_b *= scale;
  } else {
    tau_down_a *= scale;
    tau_down_b *= scale;
  }
}

SumExpChannel::SumExpChannel(const SumExpChannelParams& params)
    : params_(params) {
  params_.validate();
}

void SumExpChannel::initialize(double t0, bool value) {
  t_ref_ = t0;
  v_ref_ = value ? 1.0 : 0.0;
  target_ = v_ref_;
  segment_rising_ = value;
  queue_.reset(value);
}

double SumExpChannel::shape(double dt, bool rising) const {
  const double ta = rising ? params_.tau_up_a : params_.tau_down_a;
  const double tb = rising ? params_.tau_up_b : params_.tau_down_b;
  const double w = rising ? params_.weight_up : params_.weight_down;
  return shape_of(dt, ta, tb, w);
}

double SumExpChannel::state_at(double t) const {
  if (t <= t_ref_) return v_ref_;
  return target_ +
         (v_ref_ - target_) * shape(t - t_ref_, segment_rising_);
}

void SumExpChannel::on_input(double t, bool value) {
  const double te = t + params_.delta_min;
  // A crossing before the effective input time has already happened and
  // cannot be cancelled by this input.
  queue_.commit_live(te);
  const double v_now = state_at(te);

  t_ref_ = te;
  v_ref_ = v_now;
  target_ = value ? 1.0 : 0.0;
  segment_rising_ = value;

  const bool crossing_possible =
      (value && v_now < 0.5) || (!value && v_now > 0.5);
  if (!crossing_possible) return;

  // v(te + dt) = target + (v_now - target) * shape(dt); solve for 1/2.
  // shape must decay to (1/2 - target)/(v_now - target), which lies in
  // (0, 1) exactly when a crossing exists.
  const double ratio = (0.5 - target_) / (v_now - target_);
  CHARLIE_ASSERT(ratio > 0.0 && ratio < 1.0);
  const double ta = segment_rising_ ? params_.tau_up_a : params_.tau_down_a;
  const double tb = segment_rising_ ? params_.tau_up_b : params_.tau_down_b;
  const double hi = 64.0 * std::max(ta, tb);
  const double dt = fit::brent_root(
      [&](double x) { return shape(x, segment_rising_) - ratio; }, 0.0, hi);
  queue_.set_live(PendingEvent{te + dt, value});
}

void SumExpChannel::on_fire(const PendingEvent& fired) { queue_.fire(fired); }

}  // namespace charlie::sim
