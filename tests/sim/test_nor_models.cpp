#include "sim/nor_models.hpp"

#include <gtest/gtest.h>

#include "sim/run_channel.hpp"

namespace charlie::sim {
namespace {

constexpr auto kNor = core::GateTopology::kNorLike;

const SisGateDelays kDelays{50e-12, 40e-12};

TEST(NorModels, AllFactoriesProduceWorkingGates) {
  const waveform::DigitalTrace a(false, {1e-9, 2e-9});
  const waveform::DigitalTrace b(false, {});
  auto check = [&](std::unique_ptr<GateChannel> gate, const char* name) {
    const auto out = run_gate_channel(*gate, a, b, 0.0, 3e-9);
    EXPECT_TRUE(out.initial_value()) << name;
    EXPECT_EQ(out.n_transitions(), 2u) << name;
    EXPECT_FALSE(out.is_rising(0)) << name;
  };
  check(make_inertial_gate(kNor, 2, kDelays), "inertial");
  check(make_pure_gate(kNor, 2, kDelays), "pure");
  check(make_exp_nor(kDelays, 20e-12), "exp");
  check(make_sumexp_nor(kDelays, 20e-12), "sumexp");
}

TEST(NorModels, ExpNorSisDelaysHitTargets) {
  auto gate = make_exp_nor(kDelays, 20e-12);
  const waveform::DigitalTrace a(false, {1e-9, 3e-9});
  const waveform::DigitalTrace b(false, {});
  const auto out = run_gate_channel(*gate, a, b, 0.0, 5e-9);
  ASSERT_EQ(out.n_transitions(), 2u);
  EXPECT_NEAR(out.transitions()[0] - 1e-9, kDelays.fall, 1e-15);
  EXPECT_NEAR(out.transitions()[1] - 3e-9, kDelays.rise, 1e-15);
}

TEST(NorModels, SumExpNorSisDelaysHitTargets) {
  auto gate = make_sumexp_nor(kDelays, 20e-12);
  const waveform::DigitalTrace a(false, {1e-9, 3e-9});
  const waveform::DigitalTrace b(false, {});
  const auto out = run_gate_channel(*gate, a, b, 0.0, 5e-9);
  ASSERT_EQ(out.n_transitions(), 2u);
  EXPECT_NEAR(out.transitions()[0] - 1e-9, kDelays.fall, 1e-14);
  EXPECT_NEAR(out.transitions()[1] - 3e-9, kDelays.rise, 1e-14);
}

TEST(NorModels, SisModelsBlindToWhichInputSwitched) {
  // The paper's central criticism: a single-input output channel gives the
  // same delay regardless of which input caused the transition.
  auto gate = make_exp_nor(kDelays, 20e-12);
  const waveform::DigitalTrace a1(false, {1e-9});
  const waveform::DigitalTrace b1(false, {});
  const auto out_a = run_gate_channel(*gate, a1, b1, 0.0, 2e-9);
  auto gate2 = make_exp_nor(kDelays, 20e-12);
  const auto out_b = run_gate_channel(*gate2, b1, a1, 0.0, 2e-9);
  ASSERT_EQ(out_a.n_transitions(), 1u);
  ASSERT_EQ(out_b.n_transitions(), 1u);
  EXPECT_DOUBLE_EQ(out_a.transitions()[0], out_b.transitions()[0]);
}

TEST(NorModels, SisModelsBlindToMis) {
  // Simultaneous switching gives the same delay as single switching for a
  // SIS model (no Charlie effect) -- establishes the contrast the hybrid
  // channel is designed to fix.
  auto lone = make_inertial_gate(kNor, 2, kDelays);
  const waveform::DigitalTrace a(false, {1e-9});
  const waveform::DigitalTrace none(false, {});
  const auto out_lone = run_gate_channel(*lone, a, none, 0.0, 2e-9);
  auto both = make_inertial_gate(kNor, 2, kDelays);
  const auto out_both = run_gate_channel(*both, a, a, 0.0, 2e-9);
  ASSERT_EQ(out_lone.n_transitions(), 1u);
  ASSERT_EQ(out_both.n_transitions(), 1u);
  EXPECT_DOUBLE_EQ(out_lone.transitions()[0], out_both.transitions()[0]);
}

TEST(NorModels, PureDelayPassesGlitchInertialSwallowsIt) {
  const double width = 10e-12;  // far below the ~40-50 ps delays
  const waveform::DigitalTrace a(false, {1e-9, 1e-9 + width});
  const waveform::DigitalTrace b(false, {});
  auto pure = make_pure_gate(kNor, 2, kDelays);
  const auto out_pure = run_gate_channel(*pure, a, b, 0.0, 2e-9);
  EXPECT_EQ(out_pure.n_transitions(), 2u);  // glitch propagates
  auto inertial = make_inertial_gate(kNor, 2, kDelays);
  const auto out_inertial = run_gate_channel(*inertial, a, b, 0.0, 2e-9);
  EXPECT_EQ(out_inertial.n_transitions(), 0u);  // glitch filtered
}

}  // namespace
}  // namespace charlie::sim
