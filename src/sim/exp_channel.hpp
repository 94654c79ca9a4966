// Exponential involution channel (the IDM's Exp-Channel).
//
// The channel tracks a first-order RC state v(t) relaxing toward 1 (input
// high) or 0 (input low) with time constants tau_up / tau_down; output
// transitions occur when v crosses 1/2, and a pure delay delta_min defers
// the effect of each input transition. Because the switching waveforms are
// strictly monotone, the induced delay function
//
//   delta_up(T) = delta_min + tau_up * ln(2 - e^{-(T + delta_min)/tau_down})
//
// is a negative involution together with its falling counterpart:
// -delta_down(-delta_up(T)) = T (Fuegger et al., the paper's [3]). The
// same construction also yields the cancellation semantics for free: if an
// input reversal happens before the threshold is reached, the crossing
// simply never occurs and the pending event is withdrawn.
#pragma once

#include "sim/channel.hpp"

namespace charlie::sim {

struct ExpChannelParams {
  double delta_inf_up = 0.0;    // SIS delay for rising outputs [s]
  double delta_inf_down = 0.0;  // SIS delay for falling outputs [s]
  double delta_min = 0.0;       // pure delay [s]; must be < both SIS delays

  double tau_up() const;
  double tau_down() const;
  void validate() const;
};

class ExpChannel final : public SisChannel {
 public:
  explicit ExpChannel(const ExpChannelParams& params);

  void initialize(double t0, bool value) override;
  void on_input(double t, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override {
    return queue_.pending();
  }
  bool initial_output() const override { return queue_.output(); }

  /// Closed-form delay function delta(T) of this channel for a transition
  /// in direction `rising`, where T is the previous-output-to-input delay.
  /// Returns nullopt when the transition is cancelled (T below the
  /// cancellation bound where the argument of the log is <= 1/2... i.e.
  /// the waveform cannot reach the threshold).
  std::optional<double> delay_function(double big_t, bool rising) const;

 private:
  double state_at(double t) const;  // v(t) on the current segment

  ExpChannelParams params_;
  // Current analog segment: from (t_ref_, v_ref_) toward target_.
  double t_ref_ = 0.0;
  double v_ref_ = 0.0;
  double target_ = 0.0;
  double tau_ = 1.0;
  // Crossings predating the effective time of the latest input are decided
  // and non-cancellable; the live crossing of the current segment is not.
  CrossingQueue queue_;
};

}  // namespace charlie::sim
