#include "sim/run_channel.hpp"

#include <gtest/gtest.h>

#include "core/delay_model.hpp"
#include "sim/gate_models.hpp"
#include "sim/hybrid_gate_channel.hpp"

namespace charlie::sim {
namespace {

constexpr auto kNor = core::GateTopology::kNorLike;

TEST(RunChannel, SinglePulseThroughInertialNor) {
  SisGateDelays d{50e-12, 40e-12};
  auto gate = make_inertial_gate(kNor, 2, d);
  // B stays low; A pulses 1..2 ns: output falls then rises.
  const waveform::DigitalTrace a(false, {1e-9, 2e-9});
  const waveform::DigitalTrace b(false, {});
  const auto out = run_gate_channel(*gate, a, b, 0.0, 3e-9);
  EXPECT_TRUE(out.initial_value());
  ASSERT_EQ(out.n_transitions(), 2u);
  EXPECT_NEAR(out.transitions()[0], 1e-9 + 40e-12, 1e-15);
  EXPECT_NEAR(out.transitions()[1], 2e-9 + 50e-12, 1e-15);
}

TEST(RunChannel, OtherInputMasksTransitions) {
  SisGateDelays d{50e-12, 40e-12};
  auto gate = make_inertial_gate(kNor, 2, d);
  // B high the whole time: output pinned low; A's activity is invisible.
  const waveform::DigitalTrace a(false, {1e-9, 2e-9});
  const waveform::DigitalTrace b(true, {});
  const auto out = run_gate_channel(*gate, a, b, 0.0, 3e-9);
  EXPECT_FALSE(out.initial_value());
  EXPECT_EQ(out.n_transitions(), 0u);
}

TEST(RunChannel, OutputAlternates) {
  const auto params = core::NorParams::paper_table1();
  HybridGateChannel ch(core::GateParams::from_nor(params));
  // Dense random-ish activity on both inputs.
  const waveform::DigitalTrace a(false,
                                 {1e-9, 1.2e-9, 1.5e-9, 2.0e-9, 2.05e-9});
  const waveform::DigitalTrace b(false, {1.1e-9, 1.6e-9, 2.02e-9});
  const auto out = run_gate_channel(ch, a, b, 0.0, 3e-9);
  for (std::size_t i = 1; i < out.n_transitions(); ++i) {
    EXPECT_NE(out.is_rising(i), out.is_rising(i - 1));
    EXPECT_LT(out.transitions()[i - 1], out.transitions()[i]);
  }
}

TEST(RunChannel, EventsAfterWindowDiscarded) {
  SisGateDelays d{50e-12, 40e-12};
  auto gate = make_inertial_gate(kNor, 2, d);
  const waveform::DigitalTrace a(false, {1e-9});
  const waveform::DigitalTrace b(false, {});
  // Window ends before the output delay elapses.
  const auto out = run_gate_channel(*gate, a, b, 0.0, 1.02e-9);
  EXPECT_EQ(out.n_transitions(), 0u);
}

TEST(RunChannel, HybridMatchesDelayModelEndToEnd) {
  const auto params = core::NorParams::paper_table1();
  const core::NorDelayModel model(params);
  HybridGateChannel ch(core::GateParams::from_nor(params));
  const double delta = 15e-12;
  const waveform::DigitalTrace a(false, {1e-9});
  const waveform::DigitalTrace b(false, {1e-9 + delta});
  const auto out = run_gate_channel(ch, a, b, 0.0, 2e-9);
  ASSERT_EQ(out.n_transitions(), 1u);
  EXPECT_NEAR(out.transitions()[0] - 1e-9,
              model.falling_delay(delta).delay, 1e-14);
}

TEST(RunChannel, InitialValuesRespected) {
  SisGateDelays d{50e-12, 40e-12};
  auto gate = make_inertial_gate(kNor, 2, d);
  const waveform::DigitalTrace a(true, {1e-9});   // A falls at 1 ns
  const waveform::DigitalTrace b(false, {});
  const auto out = run_gate_channel(*gate, a, b, 0.0, 2e-9);
  EXPECT_FALSE(out.initial_value());
  ASSERT_EQ(out.n_transitions(), 1u);
  EXPECT_TRUE(out.is_rising(0));
  EXPECT_NEAR(out.transitions()[0], 1e-9 + 50e-12, 1e-15);
}

}  // namespace
}  // namespace charlie::sim
