// Digital (binary) signal trace: an initial value plus strictly increasing
// transition times, each flipping the value. This is the signal format the
// event-driven simulator and the deviation-area metric operate on.
#pragma once

#include <cstddef>
#include <vector>

namespace charlie::waveform {

class DigitalTrace {
 public:
  DigitalTrace() = default;
  DigitalTrace(bool initial_value, std::vector<double> transitions);

  /// Append a transition; must advance time.
  void append_transition(double t);

  /// Pre-size the transition storage (capacity hint for a caller that
  /// knows how many transitions it will append).
  void reserve(std::size_t n) { transitions_.reserve(n); }

  /// Reset to an empty trace with the given initial value, keeping the
  /// transition storage capacity (arena reuse across simulation runs).
  void reset(bool initial_value) {
    initial_ = initial_value;
    transitions_.clear();
  }

  /// Signal value at time t (transitions take effect at exactly t).
  bool value_at(double t) const;

  bool initial_value() const { return initial_; }
  bool final_value() const;
  const std::vector<double>& transitions() const { return transitions_; }
  std::size_t n_transitions() const { return transitions_.size(); }
  bool empty() const { return transitions_.empty(); }

  /// Direction of transition `i`: true = rising (0 -> 1).
  bool is_rising(std::size_t i) const;

  /// Remove pulse pairs shorter than `min_width` (both polarities), the way
  /// an ideal inertial filter would. Returns the filtered trace.
  DigitalTrace without_short_pulses(double min_width) const;

  /// Restrict to transitions inside [t0, t1]; the initial value becomes
  /// value_at(t0).
  DigitalTrace window(double t0, double t1) const;

 private:
  bool initial_ = false;
  std::vector<double> transitions_;
};

}  // namespace charlie::waveform
