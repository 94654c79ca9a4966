// Independent numerical validation: the closed-form hybrid trajectories
// against RK45 integration of the raw mode ODEs (replacing the paper's
// MATLAB cross-check of its analytic solutions). The closed form is the
// engine's own state advance: a core::ModeSegment on the NOR2's tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/delay_model.hpp"
#include "core/two_exp_crossing.hpp"
#include "support/rk45.hpp"

namespace charlie {
namespace {

using core::GateState;
using core::NorParams;

// Input states (A,B) with A in bit 0 and B in bit 1.
constexpr GateState kS00 = 0b00;
constexpr GateState kS10 = 0b01;
constexpr GateState kS11 = 0b11;

// Integrate one mode ODE with RK45.
ode::Vec2 rk45_mode(const NorParams& p, GateState s, const ode::Vec2& x0,
                    double t) {
  const auto sys = core::gate_mode_ode(core::GateParams::from_nor(p), s);
  const ode::OdeRhs rhs = [&](double, std::span<const double> x,
                              std::span<double> dx) {
    const ode::Vec2 d = sys.derivative({x[0], x[1]});
    dx[0] = d.x;
    dx[1] = d.y;
  };
  const double x0_arr[] = {x0.x, x0.y};
  ode::Rk45Options opts;
  opts.rtol = 1e-11;
  opts.atol = 1e-14;
  const auto r = ode::integrate_rk45(rhs, x0_arr, 0.0, t, opts);
  return {r.x_final[0], r.x_final[1]};
}

class ModeVsRk45 : public ::testing::TestWithParam<GateState> {};

TEST_P(ModeVsRk45, ClosedFormMatchesIntegration) {
  const NorParams p = NorParams::paper_table1();
  const GateState s = GetParam();
  const core::GateModeTables tables(core::GateParams::from_nor(p));
  const ode::Vec2 x0{0.65, 0.37};  // generic interior state
  core::ModeSegment segment;
  segment.reset(0.0, x0, tables.state_table(s));
  for (double t : {5e-12, 25e-12, 80e-12, 300e-12}) {
    const ode::Vec2 exact = segment.state_at(t);
    const ode::Vec2 numeric = rk45_mode(p, s, x0, t);
    const std::string name = core::gate_state_name(s, 2);
    EXPECT_NEAR(exact.x, numeric.x, 1e-8) << name << " t=" << t;
    EXPECT_NEAR(exact.y, numeric.y, 1e-8) << name << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeVsRk45,
                         ::testing::Range(GateState{0}, GateState{4}));

TEST(HybridVsRk45, FullMisTrajectoryFalling) {
  // Piecewise trajectory (0,0) -> (1,0) -> (1,1) evaluated both ways.
  const NorParams p = NorParams::paper_table1();
  const core::GateModeTables tables(core::GateParams::from_nor(p));
  core::ModeSegment traj;
  traj.reset(0.0, tables.state_table(kS00).steady, tables.state_table(kS10));
  const ode::Vec2 x_mid = traj.state_at(30e-12);
  traj.enter(30e-12, x_mid, tables.state_table(kS11), "nor2 trajectory");

  // RK45 through the same mode sequence.
  ode::Vec2 x{p.vdd, p.vdd};
  x = rk45_mode(p, kS10, x, 30e-12);
  EXPECT_NEAR(x.x, x_mid.x, 1e-8);
  EXPECT_NEAR(x.y, x_mid.y, 1e-8);
  x = rk45_mode(p, kS11, x, 40e-12);
  const ode::Vec2 x_end = traj.state_at(70e-12);
  EXPECT_NEAR(x.x, x_end.x, 1e-8);
  EXPECT_NEAR(x.y, x_end.y, 1e-8);
}

TEST(HybridVsRk45, DelayFromBisectionOnRk45Matches) {
  // Compute delta_fall(20 ps) by root-finding on RK45 trajectories and
  // compare with the closed-form delay model (delta_min excluded).
  NorParams p = NorParams::paper_table1();
  p.delta_min = 0.0;
  const core::NorDelayModel model(p);
  const double delta = 20e-12;

  auto vo_at = [&](double t) {
    ode::Vec2 x{p.vdd, p.vdd};
    if (t <= delta) {
      return rk45_mode(p, kS10, x, std::max(t, 1e-18)).y;
    }
    x = rk45_mode(p, kS10, x, delta);
    return rk45_mode(p, kS11, x, t - delta).y;
  };
  // Bisection for vo = vdd/2.
  double lo = 1e-15;
  double hi = 200e-12;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (vo_at(mid) > p.vth()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double t_rk = 0.5 * (lo + hi);
  EXPECT_NEAR(t_rk, model.falling_delay(delta).delay, 1e-14);
}

}  // namespace
}  // namespace charlie
