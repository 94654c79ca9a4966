// Sum-of-exponentials involution channel (the Involution Tool's
// SumExp-Channel).
//
// Identical architecture to the Exp-Channel but with a two-time-constant
// switching waveform
//
//   v(t) = target + (v0 - target) * (w e^{-t/tau_a} + (1-w) e^{-t/tau_b}),
//
// which models gates whose output edge has a slow tail. The threshold
// crossing has no closed form, so it is located with Brent's method; the
// involution property still holds by construction (monotone waveforms).
#pragma once

#include "sim/channel.hpp"

namespace charlie::sim {

struct SumExpChannelParams {
  double tau_up_a = 10e-12;
  double tau_up_b = 40e-12;
  double weight_up = 0.7;    // weight of tau_up_a
  double tau_down_a = 10e-12;
  double tau_down_b = 40e-12;
  double weight_down = 0.7;
  double delta_min = 0.0;

  void validate() const;

  /// SIS delay (crossing time of the full-swing waveform) per direction.
  double sis_delay(bool rising) const;

  /// Scale both taus of one direction so the SIS delay matches `target`
  /// (keeps the weight and the tau ratio).
  void calibrate_direction(bool rising, double target_sis);
};

class SumExpChannel final : public SisChannel {
 public:
  explicit SumExpChannel(const SumExpChannelParams& params);

  void initialize(double t0, bool value) override;
  void on_input(double t, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override {
    return queue_.pending();
  }
  bool initial_output() const override { return queue_.output(); }

 private:
  double state_at(double t) const;
  double shape(double dt, bool rising) const;  // w e^{-dt/ta} + (1-w) e^{-dt/tb}

  SumExpChannelParams params_;
  double t_ref_ = 0.0;
  double v_ref_ = 0.0;
  double target_ = 0.0;
  bool segment_rising_ = false;
  CrossingQueue queue_;  // decided crossings + the live one
};

}  // namespace charlie::sim
