// Output threshold-crossing search of the gate core on the paper's NOR2:
// core::mode_table_crossing on one mode segment and
// core::gate_output_crossing across scripted input switches.
#include <gtest/gtest.h>

#include <cmath>

#include "core/gate_delay.hpp"
#include "core/mode_tables.hpp"
#include "core/trajectory.hpp"
#include "util/error.hpp"

namespace charlie::core {
namespace {

constexpr double kLn2 = 0.6931471805599453;
constexpr int kPortA = 0;
constexpr int kPortB = 1;

class Crossing : public ::testing::Test {
 protected:
  const NorParams p_ = NorParams::paper_table1();
  const NorModeTables tables_{p_};
  // (V_N, V_O) in the (0,0) steady state: both nodes at VDD.
  const ode::Vec2 x00_ = mode_steady_state(Mode::kS00, p_);
};

TEST_F(Crossing, SingleExponentialDecayExactTime) {
  // (0,0) -> (0,1): V_O = VDD e^{-t/(R4 CO)}; crossing of VDD/2 at
  // ln2 R4 CO (paper eq (9) without delta_min).
  const double t = mode_table_crossing(tables_.table(Mode::kS01), x00_, 1e-9,
                                       p_.vth(), /*rising=*/false);
  EXPECT_NEAR(t, kLn2 * p_.r4 * p_.co, 1e-16);
  const GateInputEvent ev{0.0, kPortB, true};
  EXPECT_NEAR(gate_output_crossing(tables_, 0u, 0.0, {&ev, 1},
                                   /*rising=*/false),
              kLn2 * p_.r4 * p_.co, 1e-16);
}

TEST_F(Crossing, ParallelDischargeExactTime) {
  // (0,0) -> (1,1): both nMOS conduct; crossing at ln2 CO (R3||R4)
  // (paper eq (8)).
  const double t = mode_table_crossing(tables_.table(Mode::kS11), x00_, 1e-9,
                                       p_.vth(), /*rising=*/false);
  const double rp = p_.r3 * p_.r4 / (p_.r3 + p_.r4);
  EXPECT_NEAR(t, kLn2 * p_.co * rp, 1e-16);
}

TEST_F(Crossing, DirectionFilterSkipsWrongWay) {
  // V_O falls in (0,1); a rising search finds nothing.
  EXPECT_LT(mode_table_crossing(tables_.table(Mode::kS01), x00_, 1e-9,
                                p_.vth(), /*rising=*/true),
            0.0);
}

TEST_F(Crossing, NoCrossingWhenAsymptoteOnSameSide) {
  // Steady (0,0) stays at VDD: never crosses VDD/2 either way.
  const ModeTable& mt = tables_.table(Mode::kS00);
  EXPECT_LT(mode_table_crossing(mt, x00_, 1e-9, p_.vth(), false), 0.0);
  EXPECT_LT(mode_table_crossing(mt, x00_, 1e-9, p_.vth(), true), 0.0);
  // With no input switch the gate evaluation reports the missing crossing.
  EXPECT_THROW(gate_output_crossing(tables_, 0u, 0.0, {}, /*rising=*/false),
               ConvergenceError);
}

TEST_F(Crossing, FindsCrossingAcrossSegmentBoundary) {
  // Switch to (1,1) shortly before the would-be (0,1) crossing: the actual
  // crossing happens in the second segment, earlier than the (0,1) one.
  const double t01 = kLn2 * p_.r4 * p_.co;  // ~20.9 ps
  const GateInputEvent events[] = {{0.0, kPortB, true},
                                   {0.7 * t01, kPortA, true}};
  const double t =
      gate_output_crossing(tables_, 0u, 0.0, events, /*rising=*/false);
  EXPECT_GT(t, 0.7 * t01);
  EXPECT_LT(t, t01);
}

TEST_F(Crossing, WindowBoundsRespected) {
  const ModeTable& mt = tables_.table(Mode::kS01);
  const double t_true = kLn2 * p_.r4 * p_.co;
  // Window ends before the crossing.
  EXPECT_LT(mode_table_crossing(mt, x00_, 0.5 * t_true, p_.vth(), false), 0.0);
  // Entered after the crossing: also nothing (V_O below threshold already).
  auto traj = NorTrajectory::from_steady_state(p_, 0.0, Mode::kS00);
  traj.set_inputs(0.0, false, true);
  EXPECT_LT(mode_table_crossing(mt, traj.state_at(2.0 * t_true), 1e-9,
                                p_.vth(), false),
            0.0);
}

}  // namespace
}  // namespace charlie::core
