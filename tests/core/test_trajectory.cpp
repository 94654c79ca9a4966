// Hybrid trajectories of the paper's NOR2: modes switched at input
// threshold crossings, (V_N, V_O) continuous across switches. Each
// trajectory is a core::ModeSegment on the NOR2's GateModeTables, entered
// anew at every switch -- the state advance the event channels use.
#include "core/two_exp_crossing.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace charlie::core {
namespace {

// Input states (A,B) with A in bit 0 and B in bit 1.
constexpr GateState kS00 = 0b00;
constexpr GateState kS10 = 0b01;
constexpr GateState kS01 = 0b10;
constexpr GateState kS11 = 0b11;

class Trajectory : public ::testing::Test {
 protected:
  // A trajectory starting at `t0` in state `s` with analog state `x0`.
  ModeSegment start(double t0, GateState s, const ode::Vec2& x0) const {
    ModeSegment segment;
    segment.reset(t0, x0, tables_.state_table(s));
    return segment;
  }
  // Same, from the steady state of `s` (V_N of (1,1) held at 0).
  ModeSegment start_steady(double t0, GateState s) const {
    return start(t0, s, tables_.state_table(s).steady);
  }
  // Input change to state `s` at time `t` (>= the previous switch).
  void switch_to(ModeSegment& segment, double t, GateState s) const {
    segment.enter(t, segment.state_at(t), tables_.state_table(s),
                  "nor2 trajectory");
  }
  // dV_O/dt of state `s` at analog state `x`.
  double vo_slope(GateState s, const ode::Vec2& x) const {
    return tables_.state_table(s).ode.derivative(x).y;
  }

  const NorParams p_ = NorParams::paper_table1();
  const GateModeTables tables_{GateParams::from_nor(p_)};
};

TEST_F(Trajectory, SteadyStateStaysPut) {
  const ModeSegment traj = start_steady(0.0, kS00);
  EXPECT_NEAR(traj.state_at(100e-12).x, p_.vdd, 1e-9);
  EXPECT_NEAR(traj.state_at(100e-12).y, p_.vdd, 1e-9);
}

TEST_F(Trajectory, ContinuityAcrossModeSwitch) {
  ModeSegment traj = start_steady(0.0, kS00);
  switch_to(traj, 0.0, kS10);
  const ModeSegment before = traj;
  switch_to(traj, 30e-12, kS11);
  // The trajectory slope is ~1e10 V/s, so the window must be small enough
  // that the physical change over 2*eps stays below the tolerance.
  const double eps = 1e-18;
  EXPECT_NEAR(before.state_at(30e-12 - eps).y, traj.state_at(30e-12 + eps).y,
              1e-6);
  EXPECT_NEAR(before.state_at(30e-12 - eps).x, traj.state_at(30e-12 + eps).x,
              1e-6);
}

TEST_F(Trajectory, Mode11FreezesVn) {
  ModeSegment traj = start_steady(0.0, kS00);
  switch_to(traj, 10e-12, kS10);  // (1,0): V_N starts draining
  switch_to(traj, 40e-12, kS11);  // (1,1): V_N freezes
  const double vn_at_switch = traj.state_at(40e-12).x;
  EXPECT_NEAR(traj.state_at(100e-12).x, vn_at_switch, 1e-9);
  EXPECT_NEAR(traj.state_at(400e-12).x, vn_at_switch, 1e-9);
  // While V_O keeps draining to ground.
  EXPECT_LT(traj.state_at(400e-12).y, 0.01);
}

TEST_F(Trajectory, FallingOutputConvergesToGround) {
  ModeSegment traj = start_steady(0.0, kS00);
  switch_to(traj, 0.0, kS01);
  EXPECT_NEAR(traj.state_at(1e-9).y, 0.0, 1e-6);
  EXPECT_NEAR(traj.state_at(1e-9).x, p_.vdd, 1e-6);
}

TEST_F(Trajectory, RisingOutputConvergesToVdd) {
  const ModeSegment traj = start(0.0, kS00, ode::Vec2{0.0, 0.0});
  EXPECT_NEAR(traj.state_at(2e-9).y, p_.vdd, 1e-6);
  EXPECT_NEAR(traj.state_at(2e-9).x, p_.vdd, 1e-6);
}

TEST_F(Trajectory, VoSlopeSignMatchesTransition) {
  ModeSegment traj = start_steady(0.0, kS00);
  switch_to(traj, 0.0, kS11);
  EXPECT_LT(vo_slope(kS11, traj.state_at(5e-12)), 0.0);  // falling output
  const ModeSegment rising = start(0.0, kS00, ode::Vec2{p_.vdd, 0.0});
  EXPECT_GT(vo_slope(kS00, rising.state_at(5e-12)), 0.0);
}

TEST_F(Trajectory, Fig4InitialConditionsReproduced) {
  // Paper Fig 4: all four systems from V_N = V_O = VDD, except
  // (0,0) starting at GND and (1,1) with V_N = VDD/2.
  {
    const ModeSegment t = start(0.0, kS11, ode::Vec2{p_.vdd / 2, p_.vdd});
    EXPECT_NEAR(t.state_at(150e-12).x, p_.vdd / 2, 1e-9);  // frozen
    EXPECT_LT(t.state_at(150e-12).y, 0.05);  // drained fast (R3||R4)
  }
  {
    const ModeSegment t = start(0.0, kS00, ode::Vec2{0.0, 0.0});
    const ode::Vec2 x = t.state_at(150e-12);
    EXPECT_GT(x.x, 0.5 * p_.vdd);  // charging toward VDD
    EXPECT_GT(x.x, x.y);          // N leads O through R2
  }
}

}  // namespace
}  // namespace charlie::core
