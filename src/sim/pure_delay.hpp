// Pure (constant) delay channel: every input transition reappears at the
// output exactly `delay` later. No cancellation -- short pulses propagate
// unchanged, which is exactly the behaviour that makes pure delays
// unfaithful for glitch propagation (paper Section I).
#pragma once

#include "sim/channel.hpp"

namespace charlie::sim {

class PureDelayChannel final : public SisChannel {
 public:
  explicit PureDelayChannel(double delay);

  void initialize(double t0, bool value) override;
  void on_input(double t, bool value) override;
  void on_fire(const PendingEvent& fired) override;
  std::optional<PendingEvent> pending() const override;
  bool initial_output() const override { return initial_output_; }

 private:
  double delay_;
  bool initial_output_ = false;
  PendingFifo queue_;  // FIFO of not-yet-fired transitions
};

}  // namespace charlie::sim
