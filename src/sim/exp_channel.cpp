#include "sim/exp_channel.hpp"

#include <cmath>

#include "util/error.hpp"

namespace charlie::sim {

// One channel per gate instance: its size must not grow.
static_assert(sizeof(ExpChannel) <= 128);

namespace {
constexpr double kLn2 = 0.6931471805599453;
}

double ExpChannelParams::tau_up() const {
  return (delta_inf_up - delta_min) / kLn2;
}

double ExpChannelParams::tau_down() const {
  return (delta_inf_down - delta_min) / kLn2;
}

void ExpChannelParams::validate() const {
  CHARLIE_ASSERT_MSG(delta_min >= 0.0, "exp channel: delta_min < 0");
  CHARLIE_ASSERT_MSG(delta_inf_up > delta_min,
                     "exp channel: delta_inf_up must exceed delta_min");
  CHARLIE_ASSERT_MSG(delta_inf_down > delta_min,
                     "exp channel: delta_inf_down must exceed delta_min");
}

ExpChannel::ExpChannel(const ExpChannelParams& params) : params_(params) {
  params_.validate();
}

void ExpChannel::initialize(double t0, bool value) {
  t_ref_ = t0;
  v_ref_ = value ? 1.0 : 0.0;
  target_ = v_ref_;
  tau_ = value ? params_.tau_up() : params_.tau_down();
  queue_.reset(value);
}

double ExpChannel::state_at(double t) const {
  if (t <= t_ref_) return v_ref_;
  return target_ + (v_ref_ - target_) * std::exp(-(t - t_ref_) / tau_);
}

void ExpChannel::on_input(double t, bool value) {
  const double te = t + params_.delta_min;  // pure delay defers the effect
  // A crossing before the effective input time has already happened and
  // cannot be cancelled by this input.
  queue_.commit_live(te);
  const double v_now = state_at(te);

  t_ref_ = te;
  v_ref_ = v_now;
  target_ = value ? 1.0 : 0.0;
  tau_ = value ? params_.tau_up() : params_.tau_down();

  if (value && v_now < 0.5) {
    // Rising crossing: v(t) = 1 - (1 - v_now) e^{-dt/tau} = 1/2.
    const double dt = tau_ * std::log((1.0 - v_now) / 0.5);
    queue_.set_live(PendingEvent{te + dt, true});
  } else if (!value && v_now > 0.5) {
    const double dt = tau_ * std::log(v_now / 0.5);
    queue_.set_live(PendingEvent{te + dt, false});
  }
  // Otherwise the waveform is already on the target side of the threshold:
  // any previously pending crossing is unreachable now (cancellation).
}

void ExpChannel::on_fire(const PendingEvent& fired) { queue_.fire(fired); }

std::optional<double> ExpChannel::delay_function(double big_t,
                                                 bool rising) const {
  // Previous output crossing at time 0 in the opposite direction; the
  // waveform keeps relaxing from 1/2 toward the opposite rail. The input
  // takes effect at T + delta_min.
  const double tau_new = rising ? params_.tau_up() : params_.tau_down();
  const double tau_old = rising ? params_.tau_down() : params_.tau_up();
  const double age = big_t + params_.delta_min;
  // When the input takes effect the old segment has relaxed from 1/2 away
  // from the new target rail for `age` seconds, so the distance to that
  // rail is (by up/down symmetry of the normalized waveform)
  //   gap(age) = 1 - 1/2 e^{-age/tau_old}.
  // For age < 0 (input before the previous output crossing) this
  // analytically continues the old segment backward; the delay becomes
  // smaller than delta_min and eventually NEGATIVE -- the IDM convention
  // under which -delta_down(-delta_up(T)) = T holds on the full domain
  // T > -delta_inf of the opposite direction. The function is undefined
  // (cancellation) once the extrapolated waveform sits at or beyond the
  // opposite rail, i.e. gap <= 0.
  const double gap = 1.0 - 0.5 * std::exp(-age / tau_old);
  if (gap <= 0.0) return std::nullopt;
  return params_.delta_min + tau_new * std::log(gap / 0.5);
}

}  // namespace charlie::sim
