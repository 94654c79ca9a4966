// The NOR2's precomputed mode tables: GateModeTables of
// GateParams::from_nor on the paper's Table I parameters.
#include "core/gate_mode_tables.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/error.hpp"

namespace charlie::core {
namespace {

class ModeTablesFixture : public ::testing::Test {
 protected:
  const NorParams params_ = NorParams::paper_table1();
  const GateParams gate_ = GateParams::from_nor(params_);
  const GateModeTables tables_{gate_};
};

TEST_F(ModeTablesFixture, MatchesPerCallDerivation) {
  for (GateState s = 0; s < tables_.n_states(); ++s) {
    const ModeTable& t = tables_.state_table(s);
    const ode::AffineOde2 fresh = gate_mode_ode(gate_, s);
    const std::string name = gate_state_name(s, 2);
    EXPECT_EQ(t.ode.a().a, fresh.a().a) << name;
    EXPECT_EQ(t.ode.a().d, fresh.a().d) << name;
    EXPECT_EQ(t.ode.eigen().lambda1, fresh.eigen().lambda1) << name;
    const ode::Vec2 steady = gate_mode_steady_state(gate_, s, 0.0);
    EXPECT_EQ(t.steady.x, steady.x) << name;
    EXPECT_EQ(t.steady.y, steady.y) << name;
  }
  EXPECT_EQ(tables_.vth(), params_.vth());
  EXPECT_GT(tables_.horizon(), 0.0);
}

// The scalar basis V_O(tau) = d + a1 e^{l1 tau} + a2 e^{l2 tau} with the
// precomputed projector row must reproduce the full matrix trajectory from
// an arbitrary entry state, in every mode.
TEST_F(ModeTablesFixture, ScalarBasisReproducesTrajectory) {
  const ode::Vec2 x_ref{0.31, 0.67};
  for (GateState s = 0; s < tables_.n_states(); ++s) {
    const ModeTable& t = tables_.state_table(s);
    ASSERT_TRUE(t.scalar_valid) << gate_state_name(s, 2);
    const ode::Vec2 dev = x_ref - t.xp;
    double a1 = t.p1c * dev.x + t.p1d * dev.y;
    double a2 = dev.y - a1;
    double d = t.d;
    if (t.fold1) {
      d += a1;
      a1 = 0.0;
    }
    if (t.fold2) {
      d += a2;
      a2 = 0.0;
    }
    for (double tau : {0.0, 5e-12, 20e-12, 100e-12, 1e-9}) {
      const double scalar =
          d + a1 * std::exp(t.l1 * tau) + a2 * std::exp(t.l2 * tau);
      const double exact = t.ode.state_at(tau, x_ref).y;
      EXPECT_NEAR(scalar, exact, 1e-12 * params_.vdd)
          << gate_state_name(s, 2) << " tau=" << tau;
    }
  }
}

TEST_F(ModeTablesFixture, SharedTableIsOnePerMake) {
  const auto shared = GateModeTables::make(gate_);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared.use_count(), 1);
  const auto copy = shared;
  EXPECT_EQ(shared.use_count(), 2);
  EXPECT_EQ(&copy->state_table(0), &shared->state_table(0));
}

TEST(ModeTables, ValidatesOnConstruction) {
  NorParams p = NorParams::paper_table1();
  p.r1 = 0.0;
  EXPECT_THROW(GateModeTables tables(GateParams::from_nor(p)), ConfigError);
  EXPECT_THROW(GateModeTables::make(GateParams::from_nor(p)), ConfigError);
}

}  // namespace
}  // namespace charlie::core
