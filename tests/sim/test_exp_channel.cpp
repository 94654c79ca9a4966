#include "sim/exp_channel.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/involution.hpp"
#include "util/error.hpp"

namespace charlie::sim {
namespace {

ExpChannelParams typical_params() {
  ExpChannelParams p;
  p.delta_inf_up = 52e-12;
  p.delta_inf_down = 45e-12;
  p.delta_min = 18e-12;
  return p;
}

TEST(ExpChannel, SisDelayMatchesParametrization) {
  ExpChannel ch(typical_params());
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->t - 1e-9, 52e-12, 1e-15);  // SIS rising delay
  ch.on_fire(*p);
  ch.on_input(3e-9, false);
  const auto q = ch.pending();
  ASSERT_TRUE(q.has_value());
  EXPECT_NEAR(q->t - 3e-9, 45e-12, 1e-15);
}

TEST(ExpChannel, DelayFunctionLimits) {
  ExpChannel ch(typical_params());
  ch.initialize(0.0, false);
  // T -> infinity: the SIS delay.
  const auto d_inf = ch.delay_function(1e-6, true);
  ASSERT_TRUE(d_inf.has_value());
  EXPECT_NEAR(*d_inf, 52e-12, 1e-16);
  // T = -delta_min: the expansion point where delta(T) = delta_min.
  const auto d_mid = ch.delay_function(-18e-12, true);
  ASSERT_TRUE(d_mid.has_value());
  EXPECT_NEAR(*d_mid, 18e-12, 1e-16);
  // Below that the delay keeps shrinking (negative values are the IDM's
  // analytic continuation) until the domain edge at -delta_inf_down.
  const auto d_neg = ch.delay_function(-30e-12, true);
  ASSERT_TRUE(d_neg.has_value());
  EXPECT_LT(*d_neg, 18e-12);
  EXPECT_FALSE(ch.delay_function(-45e-12 - 1e-15, true).has_value());
}

TEST(ExpChannel, DelayFunctionIsMonotone) {
  ExpChannel ch(typical_params());
  ch.initialize(0.0, false);
  double prev = -1.0;
  for (double t = -40e-12; t < 200e-12; t += 1e-12) {
    const auto d = ch.delay_function(t, true);
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, prev);
    prev = *d;
  }
}

TEST(ExpChannel, InvolutionPropertyHolds) {
  // -delta_down(-delta_up(T)) = T: the defining IDM property (checked
  // numerically over a wide T range).
  ExpChannel ch(typical_params());
  ch.initialize(0.0, false);
  const auto check = check_involution(
      [&](double t) { return ch.delay_function(t, true); },
      [&](double t) { return ch.delay_function(t, false); }, -40e-12,
      300e-12, 500);
  EXPECT_GT(check.points_checked, 450);
  EXPECT_LT(check.max_abs_error, 1e-21);  // sub-attosecond round-trip error
}

TEST(ExpChannel, ChannelBehaviourMatchesDelayFunction) {
  // Drive the stateful channel and compare against the closed form.
  ExpChannel ch(typical_params());
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  const auto up = ch.pending();
  ASSERT_TRUE(up.has_value());
  ch.on_fire(*up);
  // Falling input 30 ps after the rising output crossing.
  const double t_in = up->t + 30e-12;
  ch.on_input(t_in, false);
  const auto down = ch.pending();
  ASSERT_TRUE(down.has_value());
  const auto expected = ch.delay_function(30e-12, false);
  ASSERT_TRUE(expected.has_value());
  EXPECT_NEAR(down->t - t_in, *expected, 1e-15);
}

TEST(ExpChannel, GlitchCancellation) {
  ExpChannel ch(typical_params());
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  ASSERT_TRUE(ch.pending().has_value());
  // Reverse the input before the waveform reaches the threshold: the
  // pending event disappears (annihilation).
  ch.on_input(1e-9 + 1e-12, false);
  EXPECT_FALSE(ch.pending().has_value());
}

TEST(ExpChannel, CommittedCrossingSurvivesLateCancellation) {
  // Input reversal whose *effective* time (t + delta_min) lands after the
  // pending crossing must not cancel it -- regression for the pure-delay
  // ordering bug.
  ExpChannelParams params = typical_params();
  ExpChannel ch(params);
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  // Crossing at 1 ns + 52 ps; reversal at 1 ns + 40 ps has effective time
  // 1 ns + 58 ps > crossing: the crossing is committed.
  ch.on_input(1e-9 + 40e-12, false);
  const auto still = ch.pending();
  ASSERT_TRUE(still.has_value());
  EXPECT_DOUBLE_EQ(still->t, p->t);
  EXPECT_TRUE(still->value);
  // After it fires, the falling crossing from the reversal is exposed.
  ch.on_fire(*still);
  const auto next = ch.pending();
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->value);
  EXPECT_GT(next->t, still->t);
}

TEST(ExpChannel, OnFireMismatchFailsLoudly) {
  // Engine/channel desync must be detected, not silently absorbed: a fired
  // event that is not pending() throws, on the live and committed paths.
  ExpChannel ch(typical_params());
  ch.initialize(0.0, false);
  ch.on_input(1e-9, true);
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  PendingEvent wrong_time = *p;
  wrong_time.t += 1e-12;
  EXPECT_THROW(ch.on_fire(wrong_time), AssertionError);
  PendingEvent wrong_value = *p;
  wrong_value.value = !wrong_value.value;
  EXPECT_THROW(ch.on_fire(wrong_value), AssertionError);
  ch.on_fire(*p);
  // Nothing pending: any fired event is a desync.
  EXPECT_THROW(ch.on_fire(*p), AssertionError);
  // Committed path: the reversal's effective time lands after the falling
  // crossing, which is committed; fire a wrong event against it.
  ch.on_input(2e-9, false);
  const auto fall = ch.pending();
  ASSERT_TRUE(fall.has_value());
  ch.on_input(fall->t - 1e-12, true);
  PendingEvent bogus = *ch.pending();
  EXPECT_DOUBLE_EQ(bogus.t, fall->t);
  bogus.t -= 1e-12;
  EXPECT_THROW(ch.on_fire(bogus), AssertionError);
}

TEST(ExpChannel, ParametersValidated) {
  ExpChannelParams p = typical_params();
  p.delta_min = 60e-12;  // exceeds SIS delays
  EXPECT_THROW(ExpChannel{p}, AssertionError);
  ExpChannelParams q = typical_params();
  q.delta_min = -1e-12;
  EXPECT_THROW(ExpChannel{q}, AssertionError);
}

TEST(ExpChannel, TauFormulas) {
  const ExpChannelParams p = typical_params();
  EXPECT_NEAR(p.tau_up(), (52e-12 - 18e-12) / std::log(2.0), 1e-18);
  EXPECT_NEAR(p.tau_down(), (45e-12 - 18e-12) / std::log(2.0), 1e-18);
}

}  // namespace
}  // namespace charlie::sim
