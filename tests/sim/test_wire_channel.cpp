// sim::WireChannel: analog state handoff semantics -- step-response
// crossings, short-pulse attenuation, state continuity across drive
// switches, commitment of physically decided crossings, and piecewise
// agreement with RK45 through a drive sequence.
#include "sim/wire_channel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/rk45.hpp"
#include "sim/run_channel.hpp"
#include "wire/wire_params.hpp"

namespace charlie::sim {
namespace {

std::shared_ptr<const wire::WireModeTables> reference_tables() {
  static const auto tables =
      wire::WireModeTables::make(wire::WireParams::reference());
  return tables;
}

TEST(WireChannel, InitializeSettlesAtTheDrivingRail) {
  WireChannel ch(reference_tables());
  ch.initialize(0.0, false);
  EXPECT_FALSE(ch.initial_output());
  EXPECT_FALSE(ch.pending().has_value());
  EXPECT_NEAR(ch.state_at(1e-9).y, 0.0, 1e-12);

  ch.initialize(0.0, true);
  EXPECT_TRUE(ch.initial_output());
  EXPECT_FALSE(ch.pending().has_value());
  EXPECT_NEAR(ch.state_at(1e-9).y, 0.8, 1e-12);
}

TEST(WireChannel, StepResponseCrossingMatchesTheReducedOde) {
  // Rising step at t0: the pending crossing must solve V_out = V_th of the
  // closed-form two-exponential exactly (verified via state_at itself).
  WireChannel ch(reference_tables());
  ch.initialize(0.0, false);
  const double t0 = 100e-12;
  ch.on_input(t0, true);
  const auto pending = ch.pending();
  ASSERT_TRUE(pending.has_value());
  EXPECT_TRUE(pending->value);
  EXPECT_GT(pending->t, t0);
  const double vth = reference_tables()->vth();
  EXPECT_NEAR(ch.state_at(pending->t).y, vth, 1e-9);
  // The crossing lands in the physically sensible window: after a tenth of
  // the Elmore delay, before ten of them.
  const double elmore = reference_tables()->elmore_delay();
  EXPECT_GT(pending->t - t0, 0.1 * elmore);
  EXPECT_LT(pending->t - t0, 10.0 * elmore);
}

TEST(WireChannel, ShortPulsesAttenuateInsteadOfPropagating) {
  // A drive pulse much shorter than the wire's RC never charges the far
  // end to V_th: no output events at all -- the analog analogue of glitch
  // suppression, with no ad-hoc rejection rule.
  const double elmore = reference_tables()->elmore_delay();
  WireChannel ch(reference_tables());
  ch.initialize(0.0, false);
  ch.on_input(100e-12, true);
  ch.on_input(100e-12 + 0.05 * elmore, false);
  EXPECT_FALSE(ch.pending().has_value());

  // A pulse a few Elmore delays long passes through as two events.
  const waveform::DigitalTrace drive(false,
                                     {100e-12, 100e-12 + 4.0 * elmore});
  WireChannel ch2(reference_tables());
  const auto out = run_sis_channel(ch2, drive, 0.0, 2e-9);
  EXPECT_EQ(out.n_transitions(), 2u);
}

TEST(WireChannel, HandoffKeepsTheAnalogStateContinuous) {
  // Flip the drive mid-flight: the state just before and just after the
  // switch must agree (the handoff carries (u, V_out) across the mode
  // change untouched).
  WireChannel ch(reference_tables());
  ch.initialize(0.0, false);
  ch.on_input(100e-12, true);
  const double t_flip = 130e-12;
  const ode::Vec2 before = ch.state_at(t_flip);
  ch.on_input(t_flip, false);
  const ode::Vec2 after = ch.state_at(t_flip);
  EXPECT_NEAR(before.x, after.x, 1e-15);
  EXPECT_NEAR(before.y, after.y, 1e-15);
}

TEST(WireChannel, DecidedCrossingsSurviveLaterInputs) {
  // Let the rising crossing happen, then withdraw the drive *after* the
  // crossing time: the output event is physically decided and must stay
  // (committed), followed by the falling response.
  WireChannel ch(reference_tables());
  ch.initialize(0.0, false);
  ch.on_input(100e-12, true);
  const auto rising = ch.pending();
  ASSERT_TRUE(rising.has_value());
  const double t_after = rising->t + 5e-12;
  ch.on_input(t_after, false);
  const auto still = ch.pending();
  ASSERT_TRUE(still.has_value());
  EXPECT_EQ(still->t, rising->t);
  EXPECT_TRUE(still->value);
  // Fire it; the falling crossing of the new drive state becomes live.
  ch.on_fire(*still);
  const auto falling = ch.pending();
  ASSERT_TRUE(falling.has_value());
  EXPECT_FALSE(falling->value);
  EXPECT_GT(falling->t, t_after);
}

TEST(WireChannel, PiecewiseTrajectoryMatchesRk45) {
  // Integrate the reduced 2-state ODE through a drive sequence with RK45
  // and compare against the channel's closed-form state at several probe
  // times (same tolerance regime as the gate-mode RK45 cross-check).
  const auto tables = reference_tables();
  const wire::WireParams& p = tables->params();
  WireChannel ch(tables);
  ch.initialize(0.0, false);
  const double t1 = 50e-12;
  const double t2 = 120e-12;  // mid-flight flip
  const double t3 = 200e-12;

  auto rk45_to = [&](const ode::Vec2& x0, bool high,
                     double dt) -> ode::Vec2 {
    const auto& mt = tables->drive_table(high);
    const ode::OdeRhs rhs = [&](double, std::span<const double> x,
                                std::span<double> dx) {
      const ode::Vec2 d = mt.ode.derivative({x[0], x[1]});
      dx[0] = d.x;
      dx[1] = d.y;
    };
    ode::Rk45Options opts;
    opts.rtol = 1e-11;
    opts.atol = 1e-14;
    const double x0_arr[] = {x0.x, x0.y};
    const auto r = ode::integrate_rk45(rhs, x0_arr, 0.0, dt, opts);
    return {r.x_final[0], r.x_final[1]};
  };

  ch.on_input(t1, true);
  ch.on_input(t2, false);
  ode::Vec2 x = tables->drive_table(false).steady;
  x = rk45_to(x, true, t2 - t1);
  EXPECT_NEAR(ch.state_at(t2).x, x.x, 1e-8);
  EXPECT_NEAR(ch.state_at(t2).y, x.y, 1e-8);
  x = rk45_to(x, false, t3 - t2);
  EXPECT_NEAR(ch.state_at(t3).x, x.x, 1e-8);
  EXPECT_NEAR(ch.state_at(t3).y, x.y, 1e-8);
  (void)p;
}

TEST(WireChannel, DriveShapeCorrectionShiftsTheSwitchToTheEdgeCentroid) {
  // t_drive defers every drive switch by (1 - ln 2) t_drive; with an
  // otherwise identical geometry the whole trajectory translates by
  // exactly that much.
  wire::WireParams p = wire::WireParams::reference();
  WireChannel step(wire::WireModeTables::make(p));
  p.t_drive = 30e-12;
  WireChannel shaped(wire::WireModeTables::make(p));
  const double shift = (1.0 - std::log(2.0)) * 30e-12;

  step.initialize(0.0, false);
  shaped.initialize(0.0, false);
  step.on_input(100e-12, true);
  shaped.on_input(100e-12, true);
  const auto a = step.pending();
  const auto b = shaped.pending();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NEAR(b->t - a->t, shift, 1e-16);
}

TEST(WireChannel, SharedTablesAcrossInstances) {
  const auto tables = reference_tables();
  WireChannel a(tables);
  WireChannel b(tables);
  EXPECT_EQ(a.wire_tables().get(), b.wire_tables().get());
}

}  // namespace
}  // namespace charlie::sim
