#include "sim/hybrid_gate_channel.hpp"

#include <gtest/gtest.h>

#include "core/delay_model.hpp"
#include "core/gate_mode_tables.hpp"
#include "util/error.hpp"

namespace charlie::sim {
namespace {

class HybridChannelFixture : public ::testing::Test {
 protected:
  const core::NorParams params_ = core::NorParams::paper_table1();
  const core::GateParams gate_ = core::GateParams::from_nor(params_);
  const core::NorDelayModel model_{params_};
};

TEST_F(HybridChannelFixture, InitialStateFollowsInputs) {
  HybridGateChannel ch(gate_);
  ch.initialize(0.0, {false, false});
  EXPECT_TRUE(ch.initial_output());
  EXPECT_EQ(ch.input_state(), 0b00u);  // (A,B) = (0,0)
  ch.initialize(0.0, {true, false});
  EXPECT_FALSE(ch.initial_output());
  EXPECT_EQ(ch.input_state(), 0b01u);  // (A,B) = (1,0): A is bit 0
}

TEST_F(HybridChannelFixture, SisFallingDelayMatchesDelayModel) {
  HybridGateChannel ch(gate_);
  ch.initialize(0.0, {false, false});
  ch.on_input(1e-9, 1, true);  // B rises alone
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->value);
  EXPECT_NEAR(p->t - 1e-9, model_.falling_sis_b_first(), 1e-15);
}

TEST_F(HybridChannelFixture, MisFallingDelayMatchesDelayModel) {
  for (double delta : {-40e-12, -10e-12, 0.0, 10e-12, 40e-12}) {
    HybridGateChannel ch(gate_);
    ch.initialize(0.0, {false, false});
    const double t0 = 1e-9;
    if (delta >= 0.0) {
      ch.on_input(t0, 0, true);
      if (delta > 0.0) ch.on_input(t0 + delta, 1, true);
      else ch.on_input(t0, 1, true);
    } else {
      ch.on_input(t0, 1, true);
      ch.on_input(t0 - delta, 0, true);
    }
    const auto p = ch.pending();
    ASSERT_TRUE(p.has_value()) << "delta=" << delta;
    EXPECT_NEAR(p->t - t0, model_.falling_delay(delta).delay, 1e-14)
        << "delta=" << delta;
  }
}

TEST_F(HybridChannelFixture, MisRisingDelayMatchesDelayModel) {
  // Start in (1,1) with drained history; both inputs fall with separation.
  for (double delta : {-40e-12, 0.0, 40e-12}) {
    HybridGateChannel ch(gate_);
    ch.initialize(0.0, {true, true});  // V_N = GND worst case
    const double t0 = 1e-9;
    double t_last = t0;
    if (delta >= 0.0) {
      ch.on_input(t0, 0, false);
      t_last = t0 + delta;
      if (delta > 0.0) ch.on_input(t_last, 1, false);
      else ch.on_input(t0, 1, false);
    } else {
      ch.on_input(t0, 1, false);
      t_last = t0 - delta;
      ch.on_input(t_last, 0, false);
    }
    const auto p = ch.pending();
    ASSERT_TRUE(p.has_value()) << "delta=" << delta;
    EXPECT_TRUE(p->value);
    EXPECT_NEAR(p->t - t_last, model_.rising_delay(delta, 0.0).delay, 1e-14)
        << "delta=" << delta;
  }
}

TEST_F(HybridChannelFixture, GlitchCancellation) {
  // A rises then falls quickly: if the input returns before V_O reaches
  // the threshold, no output event survives.
  HybridGateChannel ch(gate_);
  ch.initialize(0.0, {false, false});
  ch.on_input(1e-9, 0, true);
  ASSERT_TRUE(ch.pending().has_value());
  ch.on_input(1e-9 + 2e-12, 0, false);  // effective before the crossing
  // The (0,0) mode pulls V_O back up before it reaches VDD/2: the pending
  // event must be gone or rescheduled as unreachable -> none.
  EXPECT_FALSE(ch.pending().has_value());
}

TEST_F(HybridChannelFixture, CommittedCrossingSurvivesLateReversal) {
  HybridGateChannel ch(gate_);
  ch.initialize(0.0, {false, false});
  ch.on_input(1e-9, 0, true);
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  // Reversal 5 ps before the crossing, but delta_min = 18 ps defers its
  // effect past the crossing: the falling output event must survive,
  // followed by a rising one.
  ch.on_input(p->t - 5e-12, 0, false);
  const auto committed = ch.pending();
  ASSERT_TRUE(committed.has_value());
  EXPECT_DOUBLE_EQ(committed->t, p->t);
  EXPECT_FALSE(committed->value);
  ch.on_fire(*committed);
  const auto rise = ch.pending();
  ASSERT_TRUE(rise.has_value());
  EXPECT_TRUE(rise->value);
}

TEST_F(HybridChannelFixture, SharedTablesMatchPrivateTables) {
  // Channels sharing one precomputed table behave identically to channels
  // that derive their own.
  const auto tables = core::GateModeTables::make(gate_);
  HybridGateChannel shared1(tables);
  HybridGateChannel shared2(tables);
  HybridGateChannel owned(gate_);
  EXPECT_EQ(shared1.gate_tables().get(), shared2.gate_tables().get());
  for (HybridGateChannel* ch : {&shared1, &owned}) {
    ch->initialize(0.0, {false, false});
    ch->on_input(1e-9, 0, true);
  }
  ASSERT_TRUE(shared1.pending().has_value());
  ASSERT_TRUE(owned.pending().has_value());
  EXPECT_DOUBLE_EQ(shared1.pending()->t, owned.pending()->t);
}

TEST_F(HybridChannelFixture, MultipleCommittedCrossingsSurviveLateInput) {
  // Drive A up (falling crossing fires), then A down (rising crossing
  // scheduled), then let B arrive only after the rising crossing has
  // physically happened too: both crossings are past and the second input
  // promotes the live rising crossing to the committed queue. Every
  // committed event must then fire in order with matching payloads.
  HybridGateChannel ch(gate_);
  ch.initialize(0.0, {false, false});
  ch.on_input(1e-9, 0, true);
  const auto fall = ch.pending();
  ASSERT_TRUE(fall.has_value());
  EXPECT_FALSE(fall->value);
  ch.on_fire(*fall);
  ch.on_input(2e-9, 0, false);
  const auto rise = ch.pending();
  ASSERT_TRUE(rise.has_value());
  EXPECT_TRUE(rise->value);
  // B rises 1 ps before the rising crossing: delta_min defers its effect
  // past it, so the crossing is committed and survives, followed by the
  // falling crossing that B itself causes.
  ch.on_input(rise->t - 1e-12, 1, true);
  const auto committed = ch.pending();
  ASSERT_TRUE(committed.has_value());
  EXPECT_TRUE(committed->value);
  EXPECT_DOUBLE_EQ(committed->t, rise->t);
  ch.on_fire(*committed);
  const auto fall2 = ch.pending();
  ASSERT_TRUE(fall2.has_value());
  EXPECT_FALSE(fall2->value);
  EXPECT_GT(fall2->t, rise->t);
}

TEST_F(HybridChannelFixture, OnFireMismatchFailsLoudly) {
  // Engine/channel desync must be detected, not silently absorbed.
  HybridGateChannel ch(gate_);
  ch.initialize(0.0, {false, false});
  ch.on_input(1e-9, 0, true);
  const auto p = ch.pending();
  ASSERT_TRUE(p.has_value());
  PendingEvent wrong_time = *p;
  wrong_time.t += 1e-12;
  EXPECT_THROW(ch.on_fire(wrong_time), AssertionError);
  PendingEvent wrong_value = *p;
  wrong_value.value = !wrong_value.value;
  EXPECT_THROW(ch.on_fire(wrong_value), AssertionError);
  // The matching event still fires cleanly.
  ch.on_fire(*p);
  // Committed-path mismatch: commit a crossing, then fire a wrong event.
  ch.on_input(2e-9, 0, false);
  const auto rise = ch.pending();
  ASSERT_TRUE(rise.has_value());
  ch.on_input(rise->t - 1e-12, 1, true);  // promotes to committed_
  PendingEvent bogus = *ch.pending();
  bogus.t -= 1e-12;
  EXPECT_THROW(ch.on_fire(bogus), AssertionError);
}

TEST_F(HybridChannelFixture, StateQueryEvolvesContinuously) {
  HybridGateChannel ch(gate_);
  ch.initialize(0.0, {false, false});
  EXPECT_NEAR(ch.state_at(0.5e-9).y, params_.vdd, 1e-9);
  ch.on_input(1e-9, 0, true);
  const double te = 1e-9 + params_.delta_min;
  // Just after the effective switch the output barely moved.
  EXPECT_NEAR(ch.state_at(te).y, params_.vdd, 1e-6);
  EXPECT_LT(ch.state_at(te + 30e-12).y, params_.vdd * 0.8);
}

TEST_F(HybridChannelFixture, OutOfOrderInputThrows) {
  HybridGateChannel ch(gate_);
  ch.initialize(0.0, {false, false});
  ch.on_input(2e-9, 0, true);
  EXPECT_THROW(ch.on_input(1e-9, 1, true), AssertionError);
}

TEST_F(HybridChannelFixture, MisSpeedupVisibleThroughChannel) {
  // Simultaneous rising inputs produce an earlier output event than a
  // lone rising input -- the Charlie effect surfacing in simulation.
  HybridGateChannel lone(gate_);
  lone.initialize(0.0, {false, false});
  lone.on_input(1e-9, 1, true);
  HybridGateChannel both(gate_);
  both.initialize(0.0, {false, false});
  both.on_input(1e-9, 0, true);
  both.on_input(1e-9, 1, true);
  ASSERT_TRUE(lone.pending().has_value());
  ASSERT_TRUE(both.pending().has_value());
  EXPECT_LT(both.pending()->t, lone.pending()->t - 5e-12);
}

}  // namespace
}  // namespace charlie::sim
