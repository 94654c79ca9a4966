#include "sim/sumexp_channel.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace charlie::sim {
namespace {

SumExpChannelParams typical_params() {
  SumExpChannelParams p;
  p.tau_up_a = 10e-12;
  p.tau_up_b = 40e-12;
  p.weight_up = 0.7;
  p.tau_down_a = 8e-12;
  p.tau_down_b = 30e-12;
  p.weight_down = 0.6;
  p.delta_min = 5e-12;
  return p;
}

TEST(SumExpChannel, SisDelayMatchesComputedCrossing) {
  const SumExpChannelParams p = typical_params();
  SumExpChannel ch(p);
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  const auto e = ch.pending();
  ASSERT_TRUE(e.has_value());
  EXPECT_NEAR(e->t - 1e-9, p.sis_delay(true), 1e-15);
}

TEST(SumExpChannel, CalibrationHitsTarget) {
  SumExpChannelParams p = typical_params();
  p.calibrate_direction(true, 50e-12);
  p.calibrate_direction(false, 42e-12);
  EXPECT_NEAR(p.sis_delay(true), 50e-12, 1e-15);
  EXPECT_NEAR(p.sis_delay(false), 42e-12, 1e-15);
  // Tau ratio preserved by calibration.
  EXPECT_NEAR(p.tau_up_b / p.tau_up_a, 4.0, 1e-9);
}

TEST(SumExpChannel, CalibrationRejectsTargetBelowDeltaMin) {
  SumExpChannelParams p = typical_params();
  EXPECT_THROW(p.calibrate_direction(true, 4e-12), AssertionError);
}

TEST(SumExpChannel, GlitchCancellation) {
  SumExpChannel ch(typical_params());
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  ASSERT_TRUE(ch.pending().has_value());
  ch.on_input(1e-9 + 1e-12, false);
  EXPECT_FALSE(ch.pending().has_value());
}

TEST(SumExpChannel, SlowTailDelaysPartialSwing) {
  // After a partial transition, the remaining swing is dominated by the
  // slow exponential: the second delay must exceed the SIS delay ... no:
  // a partial swing starts closer to the rail, so the return crossing is
  // FASTER than SIS. Check that.
  const SumExpChannelParams p = typical_params();
  SumExpChannel ch(p);
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  const auto up = ch.pending();
  ASSERT_TRUE(up.has_value());
  ch.on_fire(*up);
  // Turn around shortly after the upward crossing: v is just above 1/2,
  // so the falling crossing comes much sooner than the full-swing delay.
  const double t_in = up->t + 1e-12;
  ch.on_input(t_in, false);
  const auto down = ch.pending();
  ASSERT_TRUE(down.has_value());
  EXPECT_LT(down->t - t_in, p.sis_delay(false));
}

TEST(SumExpChannel, CommittedCrossingSurvivesLateCancellation) {
  SumExpChannelParams p = typical_params();
  p.delta_min = 20e-12;
  SumExpChannel ch(p);
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  const auto up = ch.pending();
  ASSERT_TRUE(up.has_value());
  // Reversal 1 ps before the crossing, but effective 19 ps after it.
  ch.on_input(up->t - 1e-12, false);
  const auto still = ch.pending();
  ASSERT_TRUE(still.has_value());
  EXPECT_DOUBLE_EQ(still->t, up->t);
}

TEST(SumExpChannel, OnFireMismatchFailsLoudly) {
  // Same desync check as the other crossing channels: a fired event that is
  // not pending() throws, on the live and committed paths.
  SumExpChannelParams p = typical_params();
  p.delta_min = 20e-12;
  SumExpChannel ch(p);
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  const auto up = ch.pending();
  ASSERT_TRUE(up.has_value());
  PendingEvent wrong_time = *up;
  wrong_time.t += 1e-12;
  EXPECT_THROW(ch.on_fire(wrong_time), AssertionError);
  PendingEvent wrong_value = *up;
  wrong_value.value = !wrong_value.value;
  EXPECT_THROW(ch.on_fire(wrong_value), AssertionError);
  ch.on_fire(*up);
  EXPECT_THROW(ch.on_fire(*up), AssertionError);
  ch.on_input(2e-9, false);
  const auto down = ch.pending();
  ASSERT_TRUE(down.has_value());
  ch.on_input(down->t - 1e-12, true);  // effective after the crossing
  PendingEvent bogus = *ch.pending();
  EXPECT_DOUBLE_EQ(bogus.t, down->t);
  bogus.t -= 1e-12;
  EXPECT_THROW(ch.on_fire(bogus), AssertionError);
}

TEST(SumExpChannel, DegeneratesToExpWhenWeightIsOne) {
  SumExpChannelParams p;
  p.tau_up_a = 20e-12;
  p.tau_up_b = 100e-12;  // irrelevant at weight 1
  p.weight_up = 1.0;
  p.tau_down_a = 20e-12;
  p.tau_down_b = 100e-12;
  p.weight_down = 1.0;
  p.delta_min = 0.0;
  constexpr double kLn2 = 0.6931471805599453;
  EXPECT_NEAR(p.sis_delay(true), 20e-12 * kLn2, 1e-16);
}

TEST(SumExpChannel, ValidatesParameters) {
  SumExpChannelParams p = typical_params();
  p.weight_up = 1.5;
  EXPECT_THROW(SumExpChannel{p}, AssertionError);
  p = typical_params();
  p.tau_down_a = 0.0;
  EXPECT_THROW(SumExpChannel{p}, AssertionError);
}

}  // namespace
}  // namespace charlie::sim
