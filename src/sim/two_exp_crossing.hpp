// Threshold-crossing search on the two-exponential scalar expansion.
//
// Every mode segment of the hybrid machinery -- gate modes and collapsed
// RC-wire drive states alike -- writes the output voltage as
//
//   V_O(t_ref + tau) = d + a1 e^{l1 tau} + a2 e^{l2 tau},
//
// a two-exponential-plus-constant with at most one interior extremum and at
// most two threshold crossings. The search below reduces the per-event
// crossing problem to a handful of exp() evaluations plus a safeguarded
// Newton solve (Brent only on non-convergence).
//
// sim::ModeSegment carries one such segment through an event channel:
// HybridGateChannel and WireChannel both hold a ModeSegment plus a
// CrossingQueue (sim/channel.hpp) and keep only their mode choice (input
// state bits, drive rail) and their pure delay (delta_min, drive_delay).
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "core/gate_mode_tables.hpp"
#include "ode/vec2.hpp"
#include "sim/channel.hpp"

namespace charlie::sim {

// The expansion itself is core's (gate_mode_tables.hpp); re-exported here
// for the sim-side callers of the crossing search.
using core::TwoExpVo;
using core::two_exp_expand;

struct TwoExpCrossing {
  double tau = 0.0;  // crossing offset from the segment reference time
  bool rising = false;
};

/// First crossing of `vo` through `vth` in [tau0, tau0 + horizon], or
/// nullopt. Requires vo.valid and l1, l2 <= 0 (decaying modes).
std::optional<TwoExpCrossing> two_exp_next_crossing(const TwoExpVo& vo,
                                                    double vth, double tau0,
                                                    double horizon);

struct ScanCrossing {
  double t = 0.0;  // absolute time of the crossing
  bool rising = false;
};

/// Generic fallback for modes with a defective/complex spectrum (no scalar
/// expansion): sample `vo_at` (absolute-time output voltage) at a fraction
/// of the mode's fastest rate -- never more than ~4k evaluations per
/// window -- bracket a sign change, and polish with Brent. Cold path: the
/// std::function indirection is irrelevant here.
std::optional<ScanCrossing> scan_vo_crossing(
    const core::ModeTable& mt, double vth, double t_from, double horizon,
    const std::function<double(double)>& vo_at);

/// One segment of a piecewise mode trajectory: the analog state x_ref at
/// t_ref, the mode entered there, and the scalar expansion of the output
/// component on it. Output events are the output's crossings of vth within
/// `horizon` of a search start.
class ModeSegment {
 public:
  /// Point at mode `mt` and at the threshold and search horizon of the
  /// channel's tables, without moving the state (construction, table
  /// rebinding).
  void bind(const core::ModeTable& mt, double vth, double horizon) {
    mt_ = &mt;
    vth_ = vth;
    horizon_ = horizon;
  }

  /// Start a trajectory at (t, x) in mode `mt` (a channel's initialize()).
  void reset(double t, const ode::Vec2& x, const core::ModeTable& mt) {
    mt_ = &mt;
    t_ref_ = t;
    x_ref_ = x;
    scalar_ = two_exp_expand(mt, x);
  }

  /// Switch to mode `mt` at t >= t_ref with state `x` (normally
  /// state_at(t): the analog state carries over). A non-finite state
  /// (overflowed exponential, corrupted table) would propagate NaN into
  /// every later crossing search of the channel, so it fails the run here
  /// with ConvergenceError naming `channel` (e.g. "wire channel"); the
  /// budgeted entry points turn that into a kFailed result.
  void enter(double t, const ode::Vec2& x, const core::ModeTable& mt,
             const char* channel) {
    if (!std::isfinite(x.x) || !std::isfinite(x.y)) {
      throw_nonfinite_state(channel);
    }
    reset(t, x, mt);
  }

  double t_ref() const { return t_ref_; }

  /// Analog state at t >= t_ref.
  ode::Vec2 state_at(double t) const {
    CHARLIE_ASSERT(t >= t_ref_ - 1e-18);
    return core::mode_state_at(*mt_, x_ref_, t - t_ref_);
  }

  /// First output crossing at or after t_from within the horizon.
  std::optional<PendingEvent> next_crossing(double t_from) const {
    if (!scalar_.valid) return next_crossing_scan(t_from);
    const double tau0 = std::max(t_from - t_ref_, 0.0);
    const auto crossing =
        two_exp_next_crossing(scalar_, vth_, tau0, horizon_);
    if (!crossing.has_value()) return std::nullopt;
    return PendingEvent{t_ref_ + crossing->tau, crossing->rising};
  }

  /// An input takes effect at `te`: commit the live crossing of `queue` if
  /// it lies at or before te, together with every further crossing of this
  /// segment up to te (a non-monotone output can cross more than once per
  /// mode; on_fire would have found them one at a time).
  void commit_crossings(CrossingQueue& queue, double te) const {
    std::optional<double> last = queue.commit_live(te);
    while (last.has_value()) {
      const auto extra = next_crossing(*last + 1e-18);
      if (!extra.has_value() || extra->t > te) break;
      queue.commit(*extra);
      last = extra->t;
    }
  }

 private:
  // Counts the guard trip and throws (the cold half of enter()).
  [[noreturn]] static void throw_nonfinite_state(const char* channel);

  std::optional<PendingEvent> next_crossing_scan(double t_from) const {
    const auto crossing = scan_vo_crossing(
        *mt_, vth_, t_from, horizon_,
        [this](double t) { return state_at(t).y; });
    if (!crossing.has_value()) return std::nullopt;
    return PendingEvent{crossing->t, crossing->rising};
  }

  const core::ModeTable* mt_ = nullptr;
  double vth_ = 0.0;
  double horizon_ = 0.0;
  double t_ref_ = 0.0;  // time of the state snapshot
  ode::Vec2 x_ref_{};   // analog state at t_ref_
  TwoExpVo scalar_{};   // output expansion on this segment
};

}  // namespace charlie::sim
