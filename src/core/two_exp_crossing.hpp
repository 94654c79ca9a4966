// The model's one threshold-crossing search. On every mode segment (gate
// modes and RC-wire drive states alike) the output is
// V_O(t_ref + tau) = d + a1 e^{l1 tau} + a2 e^{l2 tau}: at most one interior
// extremum, at most two crossings. The search brackets a crossing
// analytically and solves it by safeguarded Newton (Brent only on
// non-convergence); a mode without that expansion (defective/complex
// spectrum) falls back to one scan. The event channels and the scripted
// delay evaluation (core/gate_delay.hpp) both walk a ModeSegment, so
// simulated events, characteristic delays, STA arcs and wire step delays
// are the same solve.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/gate_mode_tables.hpp"
#include "ode/vec2.hpp"
#include "util/error.hpp"

namespace charlie::core {

struct TwoExpCrossing {
  double tau = 0.0;  // crossing offset from the segment reference time
  bool rising = false;
};

/// First crossing of `vo` through `vth` in [tau0, tau0 + horizon], or
/// nullopt. Requires vo.valid and l1, l2 <= 0 (decaying modes).
std::optional<TwoExpCrossing> two_exp_next_crossing(const TwoExpVo& vo,
                                                    double vth, double tau0,
                                                    double horizon);

struct ModeCrossing {
  double t = 0.0;  // absolute time of the crossing
  bool rising = false;
};

/// One segment of a piecewise mode trajectory: the analog state x_ref at
/// t_ref, the mode entered there, and the scalar expansion of the output
/// component on it. Output events are the output's crossings of vth within
/// `horizon` of a search start.
class ModeSegment {
 public:
  /// Point at mode `mt`, threshold and search horizon without moving the
  /// state (construction, table rebinding).
  void bind(const ModeTable& mt, double vth, double horizon) {
    mt_ = &mt;
    vth_ = vth;
    horizon_ = horizon;
  }

  /// Start a trajectory at (t, x) in mode `mt` (a channel's initialize()).
  void reset(double t, const ode::Vec2& x, const ModeTable& mt) {
    mt_ = &mt;
    t_ref_ = t;
    x_ref_ = x;
    scalar_ = two_exp_expand(mt, x);
  }

  /// Switch to mode `mt` at t >= t_ref with state `x` (normally
  /// state_at(t)). A non-finite state would poison every later search, so
  /// it throws ConvergenceError naming `owner` (e.g. "wire channel"); the
  /// budgeted entry points turn that into a kFailed result.
  void enter(double t, const ode::Vec2& x, const ModeTable& mt,
             const char* owner) {
    if (!std::isfinite(x.x) || !std::isfinite(x.y)) {
      throw_nonfinite_state(owner);
    }
    reset(t, x, mt);
  }

  double t_ref() const { return t_ref_; }

  /// Analog state at t >= t_ref.
  ode::Vec2 state_at(double t) const {
    CHARLIE_ASSERT(t >= t_ref_ - 1e-18);
    return mode_state_at(*mt_, x_ref_, t - t_ref_);
  }

  /// First output crossing at or after t_from within the horizon.
  std::optional<ModeCrossing> next_crossing(double t_from) const {
    const double tau0 = std::max(t_from - t_ref_, 0.0);
    const auto crossing = search(tau0, horizon_);
    if (!crossing.has_value()) return std::nullopt;
    return ModeCrossing{t_ref_ + crossing->tau, crossing->rising};
  }

  /// Absolute time of the first `rising`-direction crossing in
  /// [t_ref, t_ref + window], or nullopt: crossings alternate and there are
  /// at most two, so at most one wrong-way crossing is skipped.
  std::optional<double> first_crossing(bool rising, double window) const;

 private:
  // Counts the guard trip and throws (the cold half of enter()).
  [[noreturn]] static void throw_nonfinite_state(const char* owner);

  std::optional<TwoExpCrossing> search(double tau0, double horizon) const {
    return scalar_.valid
               ? two_exp_next_crossing(scalar_, vth_, tau0, horizon)
               : scan_vo_crossing(*mt_, x_ref_, vth_, tau0, horizon);
  }
  // The cold fallback for a mode without scalar expansion: samples
  // mode_state_at(mt, x_ref, tau) for a sign change, polished by Brent.
  static std::optional<TwoExpCrossing> scan_vo_crossing(
      const ModeTable& mt, const ode::Vec2& x_ref, double vth, double tau0,
      double horizon);

  const ModeTable* mt_ = nullptr;
  double vth_ = 0.0;
  double horizon_ = 0.0;
  double t_ref_ = 0.0;  // time of the state snapshot
  ode::Vec2 x_ref_{};   // analog state at t_ref_
  TwoExpVo scalar_{};   // output expansion on this segment
};

}  // namespace charlie::core
